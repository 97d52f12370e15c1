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
// schedulers on a workload sized for the test cache.
func TestTrafficsimSmall(t *testing.T) {
	for _, sched := range []string{"single-best", "round-robin", "latency"} {
		out, err := runCmd("trafficsim", "-n", "20", "-tier1", "3", "-cores", "3",
			"-flows", "200", "-pairs", "10", "-sched", sched, "-duration", "500ms")
		if err != nil {
			t.Fatalf("%s: %v", sched, err)
		}
		if !strings.Contains(out, "flows: 200 total") {
			t.Errorf("%s: unexpected output:\n%s", sched, out)
		}
	}
}

func TestTrafficsimRejectsBadScheduler(t *testing.T) {
	if _, err := runCmd("trafficsim", "-sched", "no-such-scheduler"); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
}
