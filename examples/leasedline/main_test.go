package main

import (
	"bytes"
	"testing"
)

// TestRunDeterministic runs the example twice: both runs succeed and print
// the same bytes.
func TestRunDeterministic(t *testing.T) {
	var first, second bytes.Buffer
	if err := run(&first); err != nil {
		t.Fatal(err)
	}
	if err := run(&second); err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Errorf("two runs differ:\n%s\n---\n%s", first.String(), second.String())
	}
}
