package strategy

import "testing"

// policyNames are the names New accepts.
var policyNames = []string{"weighted", "single-best"}

// TestNamesResolve: each accepted name resolves to a policy of that name.
func TestNamesResolve(t *testing.T) {
	for _, name := range policyNames {
		factory, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if p := factory(); p.Name() != name {
			t.Errorf("New(%q).Name() = %q", name, p.Name())
		}
	}
}

// TestParseErrors: New accepts the two policy names and nothing else: no
// parameters, surrounding whitespace, case folding or other policy names.
func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"",
		" ",
		"Weighted",
		"SINGLE-BEST",
		"weighted ",
		" weighted",
		"weighted\t",
		"weighted\n",
		"weighted x=1",
		"single-best stretch=2",
		"round-robin",
		"latency",
		"latency stretch=2",
		"disjoint",
		"hybrid",
		"hybrid cap=1",
		"nope",
	} {
		factory, err := New(spec)
		if err == nil {
			t.Errorf("New(%q): expected error", spec)
			continue
		}
		if factory != nil {
			t.Errorf("New(%q): non-nil factory with error %v", spec, err)
		}
	}
}
