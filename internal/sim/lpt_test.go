package sim

import (
	"testing"

	"scionmpr/internal/topology"
)

// makespan runs greedy list scheduling: workers pick the next group off
// the list as they free up, which is exactly how the parallel segment
// hands out shard groups. Cost of a group is its event count times the
// shard's static weight (the tick-segment cost model: one tick per AS,
// work proportional to degree).
func makespan(groups []shardGroup, weight func(uint32) uint32, workers int) uint64 {
	load := make([]uint64, workers)
	for _, g := range groups {
		// Least-loaded worker is the one that frees up first.
		min := 0
		for i := 1; i < workers; i++ {
			if load[i] < load[min] {
				min = i
			}
		}
		w := uint64(weight(g.shard))
		if w == 0 {
			w = 1
		}
		load[min] += uint64(len(g.evs)) * w
	}
	max := load[0]
	for _, l := range load[1:] {
		if l > max {
			max = l
		}
	}
	return max
}

// roundRobinMakespan statically assigns shard i to worker i%workers —
// the naive strategy the degree-aware pickup order replaced.
func roundRobinMakespan(groups []shardGroup, weight func(uint32) uint32, workers int) uint64 {
	load := make([]uint64, workers)
	for i, g := range groups {
		w := uint64(weight(g.shard))
		if w == 0 {
			w = 1
		}
		load[i%workers] += uint64(len(g.evs)) * w
	}
	max := load[0]
	for _, l := range load[1:] {
		if l > max {
			max = l
		}
	}
	return max
}

// TestLPTOrderingBeatsRoundRobin is the regression guard for the
// degree-aware segment ordering: on a 1k-AS internet-like topology
// (power-law degrees, so a handful of hub ASes dominate tick cost), LPT
// pickup order must schedule a tick segment with a strictly smaller
// makespan than naive round-robin assignment, and stay within the
// classic LPT bound of its lower bound.
func TestLPTOrderingBeatsRoundRobin(t *testing.T) {
	p := topology.DefaultGenParams()
	p.NumASes = 1000
	topo, err := topology.Generate(p)
	if err != nil {
		t.Fatal(err)
	}

	// One group per AS with a single event — the shape of every tick
	// segment — built in registration order, exactly as EnableSharding
	// registers shards.
	ias := topo.IAs()
	groups := make([]shardGroup, len(ias))
	weights := make([]uint32, len(ias))
	var total, maxW uint64
	for i, ia := range ias {
		groups[i] = shardGroup{shard: uint32(i), evs: []int32{int32(i)}}
		d := uint32(topo.AS(ia).Degree())
		if d == 0 {
			d = 1
		}
		weights[i] = d
		total += uint64(d)
		if uint64(d) > maxW {
			maxW = uint64(d)
		}
	}
	weight := func(sh uint32) uint32 { return weights[sh] }

	const workers = 8
	rr := roundRobinMakespan(groups, weight, workers)
	naive := makespan(groups, weight, workers)

	OrderGroups(groups, weight)
	// OrderGroups must be a permutation: same shard set, heaviest first.
	if len(groups) != len(ias) {
		t.Fatalf("OrderGroups changed group count: %d != %d", len(groups), len(ias))
	}
	for i := 1; i < len(groups); i++ {
		if weight(groups[i-1].shard) < weight(groups[i].shard) {
			t.Fatalf("groups not in descending weight order at %d: %d < %d",
				i, weight(groups[i-1].shard), weight(groups[i].shard))
		}
	}
	lpt := makespan(groups, weight, workers)

	lower := total / workers
	if maxW > lower {
		lower = maxW
	}
	t.Logf("1k-AS tick segment, %d workers: lower bound %d, LPT %d, greedy-in-id-order %d, round-robin %d",
		workers, lower, lpt, naive, rr)
	if lpt > naive {
		t.Errorf("LPT makespan %d worse than greedy id-order %d", lpt, naive)
	}
	if lpt >= rr {
		t.Errorf("LPT makespan %d not better than naive round-robin %d", lpt, rr)
	}
	// Graham's LPT guarantee: makespan <= (4/3 - 1/(3m)) * OPT, and
	// OPT >= max(total/m, max item).
	if float64(lpt) > (4.0/3.0)*float64(lower)+1 {
		t.Errorf("LPT makespan %d exceeds 4/3 of lower bound %d", lpt, lower)
	}
}
