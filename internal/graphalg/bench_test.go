package graphalg_test

import (
	"testing"

	"scionmpr/internal/graphalg"
	"scionmpr/internal/topology"
)

// BenchmarkMaxFlow measures the Edmonds-Karp kernel behind Figures 6-8
// on the 16-AS core of a 120-AS synthetic Internet.
func BenchmarkMaxFlow(b *testing.B) {
	p := topology.DefaultGenParams()
	p.NumASes = 120
	p.Tier1 = 6
	full, err := topology.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	coreT, err := topology.ExtractCore(full, 16)
	if err != nil {
		b.Fatal(err)
	}
	pairs := graphalg.SamplePairs(coreT, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range pairs {
			graphalg.OptimalFlow(coreT, p[0], p[1])
		}
	}
}
