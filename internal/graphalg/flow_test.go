package graphalg

import (
	"math/rand"
	"testing"
	"testing/quick"

	"scionmpr/internal/addr"
	"scionmpr/internal/topology"
)

func ia(isd addr.ISD, as uint64) addr.IA { return addr.IA{ISD: isd, AS: addr.AS(as)} }

// addEdge adds a directed edge u->v with capacity c plus its zero-capacity
// residual reverse arc.
func addEdge(f *FlowNetwork, u, v, c int) {
	f.addArc(u, v, c)
	f.addArc(v, u, 0)
}

func TestMaxFlowDirected(t *testing.T) {
	// Classic diamond: s->a->t and s->b->t, plus a->b.
	f := NewFlowNetwork(4)
	s, a, b, tt := 0, 1, 2, 3
	addEdge(f, s, a, 2)
	addEdge(f, s, b, 1)
	addEdge(f, a, b, 1)
	addEdge(f, a, tt, 1)
	addEdge(f, b, tt, 2)
	if got := f.MaxFlow(s, tt); got != 3 {
		t.Errorf("max flow = %d, want 3", got)
	}
}

func TestMaxFlowSameNode(t *testing.T) {
	f := NewFlowNetwork(2)
	addEdge(f, 0, 1, 5)
	if f.MaxFlow(0, 0) != 0 {
		t.Error("s==t flow must be 0")
	}
}

func TestMaxFlowDisconnected(t *testing.T) {
	f := NewFlowNetwork(3)
	addEdge(f, 0, 1, 5)
	if got := f.MaxFlow(0, 2); got != 0 {
		t.Errorf("disconnected flow = %d, want 0", got)
	}
}

func TestMaxFlowUndirected(t *testing.T) {
	// Ring of 4 nodes: two disjoint paths between opposite corners.
	f := NewFlowNetwork(4)
	f.AddUndirected(0, 1, 1)
	f.AddUndirected(1, 2, 1)
	f.AddUndirected(2, 3, 1)
	f.AddUndirected(3, 0, 1)
	if got := f.MaxFlow(0, 2); got != 2 {
		t.Errorf("ring flow = %d, want 2", got)
	}
}

func parallelPair(n int) *topology.Graph {
	g := topology.New()
	g.AddAS(ia(1, 1), true)
	g.AddAS(ia(1, 2), true)
	for i := 0; i < n; i++ {
		g.MustConnect(ia(1, 1), ia(1, 2), topology.Core)
	}
	return g
}

func TestOptimalFlowParallelLinks(t *testing.T) {
	g := parallelPair(3)
	if got := OptimalFlow(g, ia(1, 1), ia(1, 2)); got != 3 {
		t.Errorf("parallel-link flow = %d, want 3", got)
	}
	if OptimalFlow(g, ia(1, 1), ia(1, 1)) != 0 {
		t.Error("same-AS optimal flow must be 0")
	}
	if OptimalFlow(g, ia(1, 1), ia(9, 9)) != 0 {
		t.Error("unknown dst optimal flow must be 0")
	}
}

func TestOptimalFlowRing(t *testing.T) {
	g := topology.New()
	for i := 1; i <= 5; i++ {
		g.AddAS(ia(1, uint64(i)), true)
	}
	for i := 1; i <= 5; i++ {
		j := i%5 + 1
		g.MustConnect(ia(1, uint64(i)), ia(1, uint64(j)), topology.Core)
	}
	if got := OptimalFlow(g, ia(1, 1), ia(1, 3)); got != 2 {
		t.Errorf("ring flow = %d, want 2", got)
	}
}

func TestUnionFlowCountsSharedLinksOnce(t *testing.T) {
	s, m, d := ia(1, 1), ia(1, 2), ia(1, 3)
	shared := PathLink{A: s, B: m, ID: 1}
	p1 := []PathLink{shared, {A: m, B: d, ID: 2}}
	p2 := []PathLink{shared, {A: m, B: d, ID: 3}}
	// Both paths share link 1, so one failure (link 1) disconnects.
	if got := UnionFlow([][]PathLink{p1, p2}, s, d); got != 1 {
		t.Errorf("shared-bottleneck flow = %d, want 1", got)
	}
	// Disjoint second path raises resilience to 2.
	p3 := []PathLink{{A: s, B: m, ID: 4}, {A: m, B: d, ID: 5}}
	if got := UnionFlow([][]PathLink{p1, p3}, s, d); got != 2 {
		t.Errorf("disjoint flow = %d, want 2", got)
	}
}

func TestUnionFlowEdgeCases(t *testing.T) {
	s, d := ia(1, 1), ia(1, 2)
	if UnionFlow(nil, s, d) != 0 {
		t.Error("empty path set must give 0")
	}
	if UnionFlow([][]PathLink{{{A: s, B: d, ID: 1}}}, s, s) != 0 {
		t.Error("s==t must give 0")
	}
	// dst not present in union.
	p := [][]PathLink{{{A: s, B: ia(1, 9), ID: 1}}}
	if UnionFlow(p, s, d) != 0 {
		t.Error("dst absent from union must give 0")
	}
}

func TestUnionFlowNeverExceedsOptimal(t *testing.T) {
	p := topology.DefaultGenParams()
	p.NumASes = 120
	p.Tier1 = 5
	g, err := topology.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	core, err := topology.ExtractCore(g, 30)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	checked := 0
	for _, pr := range SamplePairs(core, 10) {
		var pls [][]PathLink
		for i := 0; i < 4; i++ {
			if pl := randomWalk(core, pr[0], pr[1], 6, rng); pl != nil {
				pls = append(pls, pl)
			}
		}
		got := UnionFlow(pls, pr[0], pr[1])
		opt := OptimalFlow(core, pr[0], pr[1])
		if got > opt {
			t.Errorf("pair %v: union flow %d exceeds optimum %d", pr, got, opt)
		}
		if got > 0 {
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no sampled pair got a path set with positive flow")
	}
}

// randomWalk returns a loop-free src->dst path of at most maxHops links,
// found by a depth-first walk that tries each AS's links in seeded random
// order, or nil if none exists within the bound.
func randomWalk(g *topology.Graph, src, dst addr.IA, maxHops int, rng *rand.Rand) []PathLink {
	seen := map[addr.IA]bool{src: true}
	var walk func(at addr.IA, path []PathLink) []PathLink
	walk = func(at addr.IA, path []PathLink) []PathLink {
		if at == dst {
			return path
		}
		if len(path) == maxHops {
			return nil
		}
		links := g.AS(at).Links
		for _, i := range rng.Perm(len(links)) {
			next := links[i].Other(at)
			if seen[next] {
				continue
			}
			seen[next] = true
			if found := walk(next, append(path, PathLink{A: at, B: next, ID: links[i].ID})); found != nil {
				return found
			}
			seen[next] = false
		}
		return nil
	}
	return walk(src, nil)
}

func TestMaxFlowConservationProperty(t *testing.T) {
	// Property: on a random bipartite-ish unit network, flow is bounded by
	// min(outdeg(s), indeg(t)).
	f := func(edges []uint8) bool {
		const n = 8
		net := NewFlowNetwork(n)
		outS, inT := 0, 0
		for i, e := range edges {
			u := int(e) % n
			v := (int(e) / n) % n
			if u == v {
				continue
			}
			addEdge(net, u, v, 1+i%3)
			if u == 0 {
				outS += 1 + i%3
			}
			if v == n-1 {
				inT += 1 + i%3
			}
		}
		flow := net.MaxFlow(0, n-1)
		bound := outS
		if inT < bound {
			bound = inT
		}
		return flow <= bound && flow >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
