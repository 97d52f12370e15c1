// Package topology models the AS-level Internet graph that SCION beaconing
// and the BGP/BGPsec baselines operate on: ASes with business relationships
// (core, provider-customer, peer), parallel inter-AS links identified by
// per-AS interface numbers, ISD assignments, and helpers to derive the
// paper's evaluation topologies (a 2000-AS core network, a large intra-ISD
// hierarchy, and the SCIONLab core).
//
// The package can ingest the public CAIDA serial-2 AS-relationship format
// and can synthesize a deterministic Internet-like topology with the same
// structural statistics as the CAIDA AS-rel-geo dataset used in the paper
// (hierarchy, power-law customer cones, parallel link multiplicity).
package topology

import (
	"fmt"
	"sort"

	"scionmpr/internal/addr"
)

// Rel is the business relationship of the A side of a link toward the B
// side, following the Gao-Rexford model extended with SCION core links.
type Rel int

const (
	// Core connects two core ASes (used for core beaconing). In CAIDA
	// terms this subsumes tier-1 peering.
	Core Rel = iota
	// ProviderOf means A is a provider of B (A sells transit to B).
	ProviderOf
	// PeerOf means A and B are settlement-free peers (non-core).
	PeerOf
)

func (r Rel) String() string {
	switch r {
	case Core:
		return "core"
	case ProviderOf:
		return "provider"
	case PeerOf:
		return "peer"
	}
	return fmt.Sprintf("rel(%d)", int(r))
}

// LinkID uniquely identifies one inter-domain link (one parallel link
// between two neighboring ASes). It is the identifier counted in the
// diversity algorithm's Link History Table (paper §4.2).
type LinkID uint32

// Link is a single physical inter-domain link. Neighboring ASes may be
// connected by several parallel links (frequent in the CAIDA geo dataset);
// each gets its own Link with distinct interface IDs on both ends.
//
// For ProviderOf links, A is always the provider side.
type Link struct {
	ID  LinkID
	A   addr.IA
	B   addr.IA
	AIf addr.IfID
	BIf addr.IfID
	Rel Rel
}

func (l *Link) String() string {
	return fmt.Sprintf("%s#%s--%s#%s(%s)", l.A, l.AIf, l.B, l.BIf, l.Rel)
}

// Other returns the IA on the far side of the link from ia.
func (l *Link) Other(ia addr.IA) addr.IA {
	if l.A == ia {
		return l.B
	}
	return l.A
}

// LocalIf returns ia's interface on this link.
func (l *Link) LocalIf(ia addr.IA) addr.IfID {
	if l.A == ia {
		return l.AIf
	}
	return l.BIf
}

// RemoteIf returns the far side's interface.
func (l *Link) RemoteIf(ia addr.IA) addr.IfID {
	if l.A == ia {
		return l.BIf
	}
	return l.AIf
}

// AS is one autonomous system in the topology.
type AS struct {
	IA   addr.IA
	Core bool
	// Links holds all links incident to this AS, in interface-ID order.
	Links []*Link

	nextIf addr.IfID
	// neighbors caches the sorted distinct-neighbor list (nil =
	// recompute); invalidated by Connect. Beacon servers and shard-weight
	// assignment ask for it per AS, so rebuilding it on every call showed
	// up in large-topology profiles.
	neighbors []addr.IA
}

// Degree is the number of neighboring ASes (not links; parallel links to
// the same neighbor count once). The paper's core extraction prunes by
// this AS-level degree.
func (a *AS) Degree() int {
	return len(a.neighborList())
}

// neighborList returns (building if needed) the cached sorted neighbor
// list.
func (a *AS) neighborList() []addr.IA {
	if a.neighbors == nil {
		out := make([]addr.IA, 0, len(a.Links))
		for _, l := range a.Links {
			out = append(out, l.Other(a.IA))
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
		// Compact duplicates (parallel links) in place.
		j := 0
		for i, ia := range out {
			if i == 0 || ia != out[j-1] {
				out[j] = ia
				j++
			}
		}
		a.neighbors = out[:j]
	}
	return a.neighbors
}

// Graph is the mutable AS-level topology.
type Graph struct {
	ASes   map[addr.IA]*AS
	Links  []*Link
	nextID LinkID
}

// New returns an empty topology graph.
func New() *Graph {
	return &Graph{ASes: map[addr.IA]*AS{}}
}

// AddAS inserts an AS; it is a no-op if the AS already exists.
func (g *Graph) AddAS(ia addr.IA, core bool) *AS {
	if as, ok := g.ASes[ia]; ok {
		if core {
			as.Core = true
		}
		return as
	}
	as := &AS{IA: ia, Core: core, nextIf: 1}
	g.ASes[ia] = as
	return as
}

// AS returns the AS record for ia, or nil.
func (g *Graph) AS(ia addr.IA) *AS { return g.ASes[ia] }

// Connect adds one link between a and b with relationship rel (from a's
// perspective: rel==ProviderOf means a is the provider of b). Interface
// identifiers are allocated from each AS's local space. Both ASes must
// already exist.
func (g *Graph) Connect(a, b addr.IA, rel Rel) (*Link, error) {
	asA, okA := g.ASes[a]
	asB, okB := g.ASes[b]
	if !okA || !okB {
		return nil, fmt.Errorf("topology: connect %s--%s: unknown AS", a, b)
	}
	if a == b {
		return nil, fmt.Errorf("topology: self-link on %s", a)
	}
	g.nextID++
	l := &Link{
		ID: g.nextID, A: a, B: b,
		AIf: asA.nextIf, BIf: asB.nextIf,
		Rel: rel,
	}
	asA.nextIf++
	asB.nextIf++
	asA.Links = append(asA.Links, l)
	asB.Links = append(asB.Links, l)
	asA.neighbors, asB.neighbors = nil, nil
	g.Links = append(g.Links, l)
	return l, nil
}

// MustConnect is Connect for static topology construction; it panics on error.
func (g *Graph) MustConnect(a, b addr.IA, rel Rel) *Link {
	l, err := g.Connect(a, b, rel)
	if err != nil {
		panic(err)
	}
	return l
}

// NumASes returns the AS count.
func (g *Graph) NumASes() int { return len(g.ASes) }

// IAs returns all IAs in deterministic (sorted) order.
func (g *Graph) IAs() []addr.IA {
	out := make([]addr.IA, 0, len(g.ASes))
	for ia := range g.ASes {
		out = append(out, ia)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// CoreIAs returns the core ASes in deterministic order.
func (g *Graph) CoreIAs() []addr.IA {
	var out []addr.IA
	for _, ia := range g.IAs() {
		if g.ASes[ia].Core {
			out = append(out, ia)
		}
	}
	return out
}

// Neighbors returns the distinct neighboring IAs of ia in deterministic
// order. The returned slice is the shared cache (valid until the next
// Connect touching ia); callers must not modify it.
func (g *Graph) Neighbors(ia addr.IA) []addr.IA {
	as := g.ASes[ia]
	if as == nil {
		return nil
	}
	return as.neighborList()
}

// LinksBetween returns all parallel links between a and b.
func (g *Graph) LinksBetween(a, b addr.IA) []*Link {
	as := g.ASes[a]
	if as == nil {
		return nil
	}
	var out []*Link
	for _, l := range as.Links {
		if l.Other(a) == b {
			out = append(out, l)
		}
	}
	return out
}

// Customers returns the IAs that are customers of ia.
func (g *Graph) Customers(ia addr.IA) []addr.IA {
	return g.relNeighbors(ia, func(l *Link) bool {
		return l.Rel == ProviderOf && l.A == ia
	})
}

// CoreNeighbors returns core-linked neighbors of ia.
func (g *Graph) CoreNeighbors(ia addr.IA) []addr.IA {
	return g.relNeighbors(ia, func(l *Link) bool { return l.Rel == Core })
}

func (g *Graph) relNeighbors(ia addr.IA, keep func(*Link) bool) []addr.IA {
	as := g.ASes[ia]
	if as == nil {
		return nil
	}
	seen := map[addr.IA]struct{}{}
	var out []addr.IA
	for _, l := range as.Links {
		if !keep(l) {
			continue
		}
		o := l.Other(ia)
		if _, ok := seen[o]; !ok {
			seen[o] = struct{}{}
			out = append(out, o)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// LinkByIf resolves (ia, ifID) to the link attached at that interface.
func (g *Graph) LinkByIf(ia addr.IA, ifID addr.IfID) *Link {
	as := g.ASes[ia]
	if as == nil {
		return nil
	}
	// Connect numbers an AS's interfaces 1, 2, ... in Links order.
	if i := int(ifID) - 1; i >= 0 && i < len(as.Links) && as.Links[i].LocalIf(ia) == ifID {
		return as.Links[i]
	}
	for _, l := range as.Links {
		if l.LocalIf(ia) == ifID {
			return l
		}
	}
	return nil
}

// LinkByID resolves a link ID to the link, or nil if no such link
// exists. IDs are allocated sequentially starting at 1, so this is a
// direct index into the link slice.
func (g *Graph) LinkByID(id LinkID) *Link {
	i := int(id) - 1
	if i < 0 || i >= len(g.Links) {
		return nil
	}
	if l := g.Links[i]; l.ID == id {
		return l
	}
	// Defensive fallback for graphs with non-sequential IDs (e.g. built
	// by hand in tests).
	for _, l := range g.Links {
		if l.ID == id {
			return l
		}
	}
	return nil
}

// CustomerCone returns the size of ia's customer cone (ia itself plus all
// direct and indirect customers), the metric CAIDA AS-Rank uses and the
// paper uses to pick intra-ISD core ASes (§5.1).
func (g *Graph) CustomerCone(ia addr.IA) int {
	seen := map[addr.IA]struct{}{ia: {}}
	stack := []addr.IA{ia}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range g.Customers(cur) {
			if _, ok := seen[c]; !ok {
				seen[c] = struct{}{}
				stack = append(stack, c)
			}
		}
	}
	return len(seen)
}

// Validate checks structural invariants: link endpoints exist, interface
// IDs are unique per AS, and core links only connect core ASes.
func (g *Graph) Validate() error {
	for _, l := range g.Links {
		a, okA := g.ASes[l.A]
		b, okB := g.ASes[l.B]
		if !okA || !okB {
			return fmt.Errorf("topology: link %s references unknown AS", l)
		}
		if l.Rel == Core && (!a.Core || !b.Core) {
			return fmt.Errorf("topology: core link %s touches non-core AS", l)
		}
	}
	for ia, as := range g.ASes {
		seen := map[addr.IfID]struct{}{}
		for _, l := range as.Links {
			ifID := l.LocalIf(ia)
			if _, dup := seen[ifID]; dup {
				return fmt.Errorf("topology: %s: duplicate interface %s", ia, ifID)
			}
			seen[ifID] = struct{}{}
		}
	}
	return nil
}

// Subgraph returns a new graph induced on keep, preserving core flags and
// relationships. Interface IDs and link IDs are reassigned.
func (g *Graph) Subgraph(keep map[addr.IA]bool) *Graph {
	sub := New()
	for _, ia := range g.IAs() {
		if keep[ia] {
			sub.AddAS(ia, g.ASes[ia].Core)
		}
	}
	for _, l := range g.Links {
		if keep[l.A] && keep[l.B] {
			sub.MustConnect(l.A, l.B, l.Rel)
		}
	}
	return sub
}

// Stats summarizes a topology for logging and experiment output.
type Stats struct {
	ASes, CoreASes, Links, CoreLinks int
	ParallelPairs                    int // neighbor pairs with >1 link
	MaxDegree                        int
}

// ComputeStats derives summary statistics.
func (g *Graph) ComputeStats() Stats {
	s := Stats{ASes: len(g.ASes), Links: len(g.Links)}
	pair := map[[2]uint64]int{}
	for _, l := range g.Links {
		if l.Rel == Core {
			s.CoreLinks++
		}
		k := [2]uint64{l.A.Uint64(), l.B.Uint64()}
		if k[0] > k[1] {
			k[0], k[1] = k[1], k[0]
		}
		pair[k]++
	}
	for _, n := range pair {
		if n > 1 {
			s.ParallelPairs++
		}
	}
	for _, as := range g.ASes {
		if as.Core {
			s.CoreASes++
		}
		if d := as.Degree(); d > s.MaxDegree {
			s.MaxDegree = d
		}
	}
	return s
}

func (s Stats) String() string {
	return fmt.Sprintf("ASes=%d core=%d links=%d coreLinks=%d parallelPairs=%d maxDeg=%d",
		s.ASes, s.CoreASes, s.Links, s.CoreLinks, s.ParallelPairs, s.MaxDegree)
}
