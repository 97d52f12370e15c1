// Package bgp is a path-vector BGP simulator used as the comparison
// baseline of the paper's §5: per-AS speakers with Adj-RIB-In and Loc-RIB,
// Gao-Rexford (valley-free) import preferences and export policies, a
// Minimum Route Advertisement Interval of 15 seconds and a 5 ms processing
// delay per update (the paper's SimBGP configuration), and RFC 4271
// message sizing.
//
// Following the paper's methodology, each AS originates a single prefix;
// per-monitor overhead for realistic per-AS prefix counts is derived
// afterwards by the accounting in msg.go (BGP aggregates prefixes sharing
// path attributes into one update; BGPsec cannot aggregate).
package bgp

import (
	"sort"

	"scionmpr/internal/addr"
	"scionmpr/internal/topology"
)

// RelClass classifies the neighbor a route was learned from, driving
// LOCAL_PREF (customer > peer > provider) and export policy.
type RelClass int

const (
	FromProvider RelClass = iota
	FromPeer
	FromCustomer
	FromSelf // locally originated
)

func (r RelClass) String() string {
	switch r {
	case FromProvider:
		return "provider"
	case FromPeer:
		return "peer"
	case FromCustomer:
		return "customer"
	case FromSelf:
		return "self"
	}
	return "unknown"
}

// Route is one path-vector route for a prefix (prefixes are identified by
// their origin AS, one prefix per AS in the simulation).
type Route struct {
	Prefix addr.IA
	// Path is the AS path, nearest AS first, origin last. A
	// self-originated route has Path == [self].
	Path []addr.IA
	// From is the neighbor the route was learned from (zero for self).
	From addr.IA
	Rel  RelClass
}

// HasLoop reports whether ia appears on the path.
func (r *Route) HasLoop(ia addr.IA) bool {
	for _, h := range r.Path {
		if h == ia {
			return true
		}
	}
	return false
}

// better implements BGP decision: higher LOCAL_PREF (customer > peer >
// provider), then shorter AS path, then lowest neighbor address as the
// deterministic tiebreak.
func better(a, b *Route) bool {
	if a.Rel != b.Rel {
		return a.Rel > b.Rel
	}
	if len(a.Path) != len(b.Path) {
		return len(a.Path) < len(b.Path)
	}
	return a.From.Less(b.From)
}

// relClass computes the relationship class of routes learned from
// neighbor. Core links (present in extracted core topologies) rank as
// peering, matching how tier-1 interconnection appears to BGP.
func relClass(topo *topology.Graph, local, neighbor addr.IA) RelClass {
	for _, l := range topo.LinksBetween(local, neighbor) {
		switch l.Rel {
		case topology.ProviderOf:
			if l.A == neighbor {
				return FromProvider
			}
			return FromCustomer
		case topology.PeerOf, topology.Core:
			return FromPeer
		}
	}
	return FromPeer
}

// UpdateStats aggregates the updates a speaker received per origin AS,
// the raw material for the Figure 5 accounting.
type UpdateStats struct {
	// Announcements is the number of announcement NLRI received.
	Announcements uint64
	// Withdrawals is the number of withdrawal NLRI received.
	Withdrawals uint64
	// PathLenSum sums the AS-path lengths of the announcements.
	PathLenSum uint64
}

// Speaker is the BGP speaker of one AS (the paper models each AS's border
// routers in a star around one internal speaker holding the LOC_RIB).
type Speaker struct {
	Local addr.IA
	topo  *topology.Graph

	// adjIn[prefix][neighbor] is the Adj-RIB-In.
	adjIn map[addr.IA]map[addr.IA]*Route
	// locRib[prefix] is the selected best route.
	locRib map[addr.IA]*Route
	// announced[neighbor][prefix] tracks what we advertised, so policy
	// changes and withdrawals generate correct withdraw messages.
	announced map[addr.IA]map[addr.IA]bool

	// pending[neighbor][prefix] holds the routes (nil = withdraw) waiting
	// for the neighbor's MRAI timer.
	pending map[addr.IA]map[addr.IA]*Route

	// Received aggregates incoming update statistics per origin.
	Received map[addr.IA]*UpdateStats
	// SentUpdates counts flushed update messages.
	SentUpdates uint64
}

// NewSpeaker creates the speaker for an AS.
func NewSpeaker(topo *topology.Graph, local addr.IA) *Speaker {
	return &Speaker{
		Local:     local,
		topo:      topo,
		adjIn:     map[addr.IA]map[addr.IA]*Route{},
		locRib:    map[addr.IA]*Route{},
		announced: map[addr.IA]map[addr.IA]bool{},
		pending:   map[addr.IA]map[addr.IA]*Route{},
		Received:  map[addr.IA]*UpdateStats{},
	}
}

// Originate installs the speaker's own prefix and queues exports. The
// stored path excludes the local AS (paths are "as seen from here"; the
// local AS number is prepended at export time).
func (s *Speaker) Originate() {
	r := &Route{Prefix: s.Local, Path: nil, Rel: FromSelf}
	s.locRib[s.Local] = r
	s.exportChange(s.Local, r)
}

// stats returns (allocating) the per-origin receive stats.
func (s *Speaker) stats(origin addr.IA) *UpdateStats {
	st := s.Received[origin]
	if st == nil {
		st = &UpdateStats{}
		s.Received[origin] = st
	}
	return st
}

// HandleAnnounce processes one received announcement NLRI.
func (s *Speaker) HandleAnnounce(from addr.IA, prefix addr.IA, path []addr.IA) {
	st := s.stats(prefix)
	st.Announcements++
	st.PathLenSum += uint64(len(path))

	r := &Route{Prefix: prefix, Path: path, From: from, Rel: relClass(s.topo, s.Local, from)}
	if r.HasLoop(s.Local) {
		return
	}
	m := s.adjIn[prefix]
	if m == nil {
		m = map[addr.IA]*Route{}
		s.adjIn[prefix] = m
	}
	m[from] = r
	s.reselect(prefix)
}

// HandleWithdraw processes one received withdrawal NLRI.
func (s *Speaker) HandleWithdraw(from addr.IA, prefix addr.IA) {
	s.stats(prefix).Withdrawals++
	if m := s.adjIn[prefix]; m != nil {
		delete(m, from)
	}
	s.reselect(prefix)
}

// reselect recomputes the best route for prefix and, on change, queues
// exports to all neighbors.
func (s *Speaker) reselect(prefix addr.IA) {
	old := s.locRib[prefix]
	if old != nil && old.Rel == FromSelf {
		return // own prefix never displaced
	}
	var best *Route
	for _, r := range s.adjIn[prefix] {
		if best == nil || better(r, best) {
			best = r
		}
	}
	if routesEqual(old, best) {
		return
	}
	if best == nil {
		delete(s.locRib, prefix)
	} else {
		s.locRib[prefix] = best
	}
	s.exportChange(prefix, best)
}

func routesEqual(a, b *Route) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.From != b.From || len(a.Path) != len(b.Path) {
		return false
	}
	for i := range a.Path {
		if a.Path[i] != b.Path[i] {
			return false
		}
	}
	return true
}

// exportable implements Gao-Rexford: routes from customers (and own
// prefixes) go to everyone; routes from peers and providers go only to
// customers.
func (s *Speaker) exportable(r *Route, to addr.IA) bool {
	if r.Rel == FromCustomer || r.Rel == FromSelf {
		return true
	}
	return relClass(s.topo, s.Local, to) == FromCustomer
}

// exportChange queues announcements/withdrawals for all neighbors after a
// best-route change (best == nil means the route is gone).
func (s *Speaker) exportChange(prefix addr.IA, best *Route) {
	for _, nb := range s.topo.Neighbors(s.Local) {
		if best != nil && nb == best.From {
			continue // no re-advertisement to the source
		}
		send := best != nil && s.exportable(best, nb) && !best.HasLoop(nb)
		had := s.announced[nb][prefix]
		switch {
		case send:
			s.queue(nb, prefix, best)
		case had:
			s.queue(nb, prefix, nil) // withdraw
		}
	}
}

func (s *Speaker) queue(nb, prefix addr.IA, r *Route) {
	m := s.pending[nb]
	if m == nil {
		m = map[addr.IA]*Route{}
		s.pending[nb] = m
	}
	m[prefix] = r
}

// HasPending reports whether any neighbor has queued advertisements.
func (s *Speaker) HasPending(nb addr.IA) bool { return len(s.pending[nb]) > 0 }

// Flush drains the pending set for one neighbor into announcement and
// withdrawal lists (one MRAI firing). The caller transmits them.
func (s *Speaker) Flush(nb addr.IA) (announce []*Route, withdraw []addr.IA) {
	m := s.pending[nb]
	if len(m) == 0 {
		return nil, nil
	}
	delete(s.pending, nb)
	prefixes := make([]addr.IA, 0, len(m))
	for p := range m {
		prefixes = append(prefixes, p)
	}
	sort.Slice(prefixes, func(i, j int) bool { return prefixes[i].Less(prefixes[j]) })
	for _, p := range prefixes {
		r := m[p]
		a := s.announced[nb]
		if a == nil {
			a = map[addr.IA]bool{}
			s.announced[nb] = a
		}
		if r == nil {
			if a[p] {
				withdraw = append(withdraw, p)
				delete(a, p)
			}
			continue
		}
		// Prepend self to the exported path.
		exported := &Route{
			Prefix: p,
			Path:   append([]addr.IA{s.Local}, r.Path...),
		}
		announce = append(announce, exported)
		a[p] = true
	}
	if len(announce) > 0 || len(withdraw) > 0 {
		s.SentUpdates++
	}
	return announce, withdraw
}

// Best returns the Loc-RIB route for a prefix, or nil.
func (s *Speaker) Best(prefix addr.IA) *Route { return s.locRib[prefix] }

// AdjInRoutes returns all Adj-RIB-In routes for a prefix (BGP multi-path
// view, used by the Figure 6 path quality comparison where the paper
// assumes full BGP multi-path support).
func (s *Speaker) AdjInRoutes(prefix addr.IA) []*Route {
	m := s.adjIn[prefix]
	out := make([]*Route, 0, len(m))
	for _, r := range m {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].Path) != len(out[j].Path) {
			return len(out[i].Path) < len(out[j].Path)
		}
		return out[i].From.Less(out[j].From)
	})
	return out
}
