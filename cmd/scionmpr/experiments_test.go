package main

import (
	"slices"
	"testing"
)

func TestExperimentsKnownNames(t *testing.T) {
	for _, tc := range []struct {
		name string
		want bool
	}{
		{"all", true},
		{"table1", true},
		{"fig5", true},
		{"overhead", true}, // alias of fig5
		{"fig6b", true},
		{"fig9", true}, // alias of scionlab
		{"gridsearch", true},
		{"forward", false},  // removed: must not silently succeed
		{"failover", false}, // removed with the replicated path-server fleet
		{"bogus", false},
		{"", false},
		{"Fig5", false},
		{"fig5 ", false},
	} {
		if got := slices.Contains(experimentNames(), tc.name); got != tc.want {
			t.Errorf("experiment %q known = %v, want %v", tc.name, got, tc.want)
		}
	}
}
