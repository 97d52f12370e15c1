package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestChaossimDeterministic is the CLI contract: the same seed and
// schedule must print a byte-identical summary — the whole fault
// timeline, including jitter, is drawn from the schedule seed.
func TestChaossimDeterministic(t *testing.T) {
	runOnce := func(args ...string) string {
		out, err := runCmd(append([]string{"chaossim"}, args...)...)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	first := runOnce()
	if !strings.Contains(first, "chaos: flaps=") {
		t.Fatalf("summary missing chaos counters:\n%s", first)
	}
	if second := runOnce(); first != second {
		t.Errorf("same config produced different output:\n--- first ---\n%s--- second ---\n%s",
			first, second)
	}
	if other := runOnce("-seed", "2"); first == other {
		t.Error("different seed produced identical output")
	}
}

// TestChaossimScheduleFile replays a schedule file with every fault kind,
// including endpoint-pair link syntax and a jittered periodic flap.
func TestChaossimScheduleFile(t *testing.T) {
	path := filepath.Join("testdata", "faults.txt")
	out, err := runCmd("chaossim", "-schedule", path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"gray=1", "spikes=1", "crashes=1", "schedule seed=7"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	again, err := runCmd("chaossim", "-schedule", path)
	if err != nil {
		t.Fatal(err)
	}
	if out != again {
		t.Error("schedule-file replay not deterministic")
	}
}

func TestChaossimRejectsBadSchedule(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.txt")
	if err := os.WriteFile(path, []byte("flap 1 at 2s\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := runCmd("chaossim", "-schedule", path); err == nil {
		t.Fatal("schedule without 'end' and 'down' accepted")
	}
}
