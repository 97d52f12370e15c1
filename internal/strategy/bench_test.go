package strategy

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// benchPaths builds a representative 8-path candidate set, matching the
// traffic engine's default MaxPaths.
func benchPaths() []PathView {
	rng := rand.New(rand.NewSource(3))
	paths := make([]PathView, 8)
	for i := range paths {
		hops := 2 + rng.Intn(5)
		paths[i] = PathView{
			Hops:       hops,
			Delay:      time.Duration(5+rng.Intn(30)) * time.Millisecond,
			Bottleneck: 1e7 + rng.Float64()*1e8,
			Busy:       i%3 == 0,
		}
	}
	return paths
}

// BenchmarkPolicyPick measures the per-decision scoring cost of every
// policy on the hot path (allocations gated at 0 by TestPolicyPickAllocs).
func BenchmarkPolicyPick(b *testing.B) {
	paths := benchPaths()
	for _, name := range policyNames {
		factory, err := New(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			p := factory()
			p.Pick(paths) // warm any internal scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Pick(paths)
			}
		})
	}
}

// TestPolicyPickAllocs pins the steady-state Pick hot path of every
// policy at zero allocations.
func TestPolicyPickAllocs(t *testing.T) {
	paths := benchPaths()
	for _, name := range policyNames {
		factory, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		p := factory()
		p.Pick(paths) // first call may grow scratch slices
		if allocs := testing.AllocsPerRun(100, func() { p.Pick(paths) }); allocs != 0 {
			t.Errorf("%s: Pick allocates %v/op on the steady-state hot path, want 0", name, allocs)
		}
	}
}

// TestBenchPathsStable pins the benchmark input so BenchmarkPolicyPick
// comparisons measure the scorers, not drift in the workload.
func TestBenchPathsStable(t *testing.T) {
	got := fmt.Sprintf("%+v", benchPaths())
	again := fmt.Sprintf("%+v", benchPaths())
	if got != again {
		t.Fatal("benchPaths is not deterministic")
	}
}
