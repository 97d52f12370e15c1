// Package graphalg provides the graph algorithms behind the paper's path
// quality evaluation: unit-capacity max-flow / min-cut (failure resilience
// and aggregate capacity, Figures 6a/6b), plus deterministic pair sampling.
//
// The paper treats the two quality metrics as duals (§5.3): the minimum
// number of inter-AS link failures that disconnect a pair equals, by
// max-flow-min-cut on a unit-capacity multigraph, the number of link-
// disjoint paths, i.e. the aggregate capacity in multiples of a single
// link's capacity. Both Figure 6a and 6b are therefore computed by MaxFlow,
// on the union of disseminated paths (achieved quality) or on the full
// topology (optimum).
package graphalg

import (
	"scionmpr/internal/addr"
	"scionmpr/internal/topology"
)

// FlowNetwork is a directed residual network for Edmonds-Karp max-flow.
// Undirected unit-capacity links (inter-AS links) are added with AddUndirected.
// The zero value is not usable; create networks with NewFlowNetwork.
type FlowNetwork struct {
	n    int
	head []int // head[v] = first edge index of v, -1 if none
	next []int // next[e] = next edge of the same node
	to   []int // to[e] = target node
	cap  []int // cap[e] = residual capacity
}

// NewFlowNetwork creates a network with n nodes and no edges.
func NewFlowNetwork(n int) *FlowNetwork {
	h := make([]int, n)
	for i := range h {
		h[i] = -1
	}
	return &FlowNetwork{n: n, head: h}
}

func (f *FlowNetwork) addArc(u, v, c int) {
	f.to = append(f.to, v)
	f.cap = append(f.cap, c)
	f.next = append(f.next, f.head[u])
	f.head[u] = len(f.to) - 1
}

// AddUndirected adds an undirected edge of capacity c: both arcs get
// capacity c and serve as each other's residual.
func (f *FlowNetwork) AddUndirected(u, v, c int) {
	f.addArc(u, v, c)
	f.addArc(v, u, c)
}

// MaxFlow computes the maximum s-t flow with Edmonds-Karp (BFS augmenting
// paths). It mutates residual capacities; call it once per network.
func (f *FlowNetwork) MaxFlow(s, t int) int {
	if s == t {
		return 0
	}
	flow := 0
	parentEdge := make([]int, f.n)
	queue := make([]int, 0, f.n)
	for {
		for i := range parentEdge {
			parentEdge[i] = -1
		}
		queue = queue[:0]
		queue = append(queue, s)
		parentEdge[s] = -2
		found := false
	bfs:
		for qi := 0; qi < len(queue); qi++ {
			u := queue[qi]
			for e := f.head[u]; e != -1; e = f.next[e] {
				v := f.to[e]
				if f.cap[e] > 0 && parentEdge[v] == -1 {
					parentEdge[v] = e
					if v == t {
						found = true
						break bfs
					}
					queue = append(queue, v)
				}
			}
		}
		if !found {
			return flow
		}
		// Find bottleneck along the augmenting path.
		aug := int(^uint(0) >> 1)
		for v := t; v != s; {
			e := parentEdge[v]
			if f.cap[e] < aug {
				aug = f.cap[e]
			}
			v = f.to[e^1]
		}
		for v := t; v != s; {
			e := parentEdge[v]
			f.cap[e] -= aug
			f.cap[e^1] += aug
			v = f.to[e^1]
		}
		flow += aug
	}
}

// indexer maps IAs to dense node indices.
type indexer struct {
	idx map[addr.IA]int
}

func newIndexer() *indexer { return &indexer{idx: map[addr.IA]int{}} }

func (x *indexer) of(ia addr.IA) int {
	if i, ok := x.idx[ia]; ok {
		return i
	}
	i := len(x.idx)
	x.idx[ia] = i
	return i
}

// OptimalFlow computes the maximum number of link-disjoint paths between
// src and dst in the full topology, treating every parallel inter-AS link
// as an undirected unit-capacity edge. This is the paper's "optimum" curve
// in Figures 6a/6b.
func OptimalFlow(g *topology.Graph, src, dst addr.IA) int {
	if src == dst {
		return 0
	}
	ix := newIndexer()
	for _, ia := range g.IAs() {
		ix.of(ia)
	}
	net := NewFlowNetwork(len(ix.idx))
	for _, l := range g.Links {
		net.AddUndirected(ix.of(l.A), ix.of(l.B), 1)
	}
	s, okS := ix.idx[src]
	t, okT := ix.idx[dst]
	if !okS || !okT {
		return 0
	}
	return net.MaxFlow(s, t)
}

// PathLink is one inter-AS link hop of a disseminated path: the two
// endpoint ASes and the unique link identifier (so parallel links remain
// distinct edges in the union graph).
type PathLink struct {
	A, B addr.IA
	ID   topology.LinkID
}

// UnionFlow computes the maximum s-t flow over the union of the links of a
// set of disseminated paths, each link with unit capacity and counted once
// no matter how many paths share it. Per the paper this value is both the
// failure resilience (min links to disconnect) and the aggregate capacity
// of the path set.
func UnionFlow(paths [][]PathLink, src, dst addr.IA) int {
	if src == dst || len(paths) == 0 {
		return 0
	}
	ix := newIndexer()
	seen := map[topology.LinkID]struct{}{}
	type edge struct{ u, v int }
	var edges []edge
	for _, p := range paths {
		for _, pl := range p {
			if _, dup := seen[pl.ID]; dup {
				continue
			}
			seen[pl.ID] = struct{}{}
			edges = append(edges, edge{ix.of(pl.A), ix.of(pl.B)})
		}
	}
	s, okS := ix.idx[src]
	t, okT := ix.idx[dst]
	if !okS || !okT {
		return 0
	}
	net := NewFlowNetwork(len(ix.idx))
	for _, e := range edges {
		net.AddUndirected(e.u, e.v, 1)
	}
	return net.MaxFlow(s, t)
}
