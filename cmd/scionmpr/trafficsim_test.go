package main

import (
	"strings"
	"testing"
)

// TestTrafficsimDeterministic is the CLI contract: the same seed must
// produce a byte-identical summary across independent runs — 10,000
// concurrent flows through topology generation, beaconing, path lookup,
// token buckets and scheduling, with not a single source of
// nondeterminism.
func TestTrafficsimDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("two full 10k-flow runs in -short mode")
	}
	runOnce := func(args ...string) string {
		out, err := runCmd(append([]string{"trafficsim"}, args...)...)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	first := runOnce()
	if !strings.Contains(first, "flows: 10000 total") {
		t.Fatalf("expected 10000 flows in summary:\n%s", first)
	}
	if second := runOnce(); first != second {
		t.Errorf("same seed produced different output:\n--- first ---\n%s--- second ---\n%s",
			first, second)
	}
	if other := runOnce("-seed", "2"); first == other {
		t.Error("different seed produced identical output")
	}
}

// TestTrafficsimSmall exercises the deadline cutoff and the alternate
// scheduler on a workload sized for the test cache.
func TestTrafficsimSmall(t *testing.T) {
	out, err := runCmd("trafficsim", "-n", "20", "-tier1", "3", "-cores", "3",
		"-flows", "200", "-pairs", "10", "-sched", "single-best", "-duration", "500ms")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "flows: 200 total") {
		t.Errorf("unexpected output:\n%s", out)
	}
}

// TestTrafficsimRejectsBadScheduler: -sched takes a policy name, not a
// spec, and the removed policies exit 1 like any unknown name.
func TestTrafficsimRejectsBadScheduler(t *testing.T) {
	for _, sched := range []string{"no-such-scheduler", "round-robin", "hybrid cap=1", "weighted x=1", ""} {
		if out, code := execute("trafficsim", "-sched", sched); code != 1 || out != "" {
			t.Errorf("-sched %q: exit %d, stdout %q; want exit 1 and no output", sched, code, out)
		}
	}
}
