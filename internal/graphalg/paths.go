package graphalg

import (
	"sort"

	"scionmpr/internal/addr"
	"scionmpr/internal/topology"
)

// SamplePairs deterministically selects up to n distinct (src, dst) pairs
// from the graph's ASes, spread across the sorted IA order. It is used to
// bound the cost of all-pairs metrics on large topologies.
func SamplePairs(g *topology.Graph, n int) [][2]addr.IA {
	ias := g.IAs()
	if len(ias) < 2 || n <= 0 {
		return nil
	}
	var out [][2]addr.IA
	// A fixed multiplicative stride walks pairs deterministically without
	// clustering on neighbors in the sorted order.
	stride := len(ias)/2 + 1
	for i := 0; len(out) < n && i < n*4; i++ {
		s := ias[(i*7)%len(ias)]
		d := ias[(i*7+stride+i)%len(ias)]
		if s == d {
			continue
		}
		out = append(out, [2]addr.IA{s, d})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0].Less(out[j][0])
		}
		return out[i][1].Less(out[j][1])
	})
	// Deduplicate.
	uniq := out[:0]
	for i, p := range out {
		if i == 0 || p != out[i-1] {
			uniq = append(uniq, p)
		}
	}
	return uniq
}
