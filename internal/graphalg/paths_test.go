package graphalg

import (
	"testing"

	"scionmpr/internal/topology"
)

func line(n int) *topology.Graph {
	g := topology.New()
	for i := 1; i <= n; i++ {
		g.AddAS(ia(1, uint64(i)), true)
	}
	for i := 1; i < n; i++ {
		g.MustConnect(ia(1, uint64(i)), ia(1, uint64(i+1)), topology.Core)
	}
	return g
}

func TestSamplePairs(t *testing.T) {
	g := line(10)
	pairs := SamplePairs(g, 8)
	if len(pairs) == 0 || len(pairs) > 8 {
		t.Fatalf("pairs = %d", len(pairs))
	}
	for i, p := range pairs {
		if p[0] == p[1] {
			t.Errorf("pair %d is degenerate", i)
		}
		if i > 0 && p == pairs[i-1] {
			t.Errorf("duplicate pair %v", p)
		}
	}
	if SamplePairs(g, 0) != nil {
		t.Error("n=0 must be nil")
	}
	single := topology.New()
	single.AddAS(ia(1, 1), false)
	if SamplePairs(single, 5) != nil {
		t.Error("single-AS graph must give nil")
	}
	// Determinism.
	again := SamplePairs(g, 8)
	for i := range pairs {
		if pairs[i] != again[i] {
			t.Fatal("SamplePairs not deterministic")
		}
	}
}
