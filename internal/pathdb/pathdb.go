// Package pathdb implements the SCION path-server infrastructure: path
// segment registration and de-registration by leaf ASes, the core path
// servers that store intra-ISD down-segments and core-segments, local
// path servers answering endpoint lookups, TTL-based caching, and path
// revocation (paper §2.2 "Path Segment Dissemination" and §4.1).
//
// The package works directly on seg.PCB values; lookups are synchronous
// function calls with exact request/reply wire sizes so the Table 1
// scope/frequency analysis can account for them.
package pathdb

import (
	"fmt"
	"sort"

	"scionmpr/internal/addr"
	"scionmpr/internal/seg"
	"scionmpr/internal/sim"
	"scionmpr/internal/telemetry"
)

// SegType classifies a registered path segment.
type SegType int

const (
	// Up segments lead from a leaf AS to a core AS of its ISD.
	Up SegType = iota
	// Down segments lead from a core AS to a leaf AS (an up-segment
	// reversed; the wire representation is identical).
	Down
	// Core segments connect two core ASes.
	Core
)

func (t SegType) String() string {
	switch t {
	case Up:
		return "up"
	case Down:
		return "down"
	case Core:
		return "core"
	}
	return fmt.Sprintf("segtype(%d)", int(t))
}

// Request is a path segment lookup, sized per the SCION segment request
// wire format (destination IA plus type and flags).
type Request struct {
	Type SegType
	Dst  addr.IA
}

// WireLen implements sim.Message.
func (r Request) WireLen() int { return 1 + 8 + 3 }

// Reply carries the answered segments.
type Reply struct {
	Segments []*seg.PCB
}

// WireLen implements sim.Message.
func (r Reply) WireLen() int {
	n := 2
	for _, s := range r.Segments {
		n += s.WireLen()
	}
	return n
}

// Server is one AS's path server. A core AS's path server additionally
// stores the down-segments registered by the leaf ASes of its ISD and the
// core-segments to reach other core ASes (paper §2.2).
type Server struct {
	Local addr.IA
	Core  bool

	// down[dst] are registered down-segments reaching leaf AS dst
	// (stored at core path servers of dst's ISD).
	down map[addr.IA][]*seg.PCB
	// core[dst] are core-segments reaching core AS dst.
	core map[addr.IA][]*seg.PCB
	// up are the local AS's own up-segments (local path server role).
	up []*seg.PCB

	// revoked holds links under an active timed revocation, mapped to
	// the expiry of the revocation state. Segments over those links are
	// filtered from lookups but stay stored, so once the revocation
	// lapses (link repaired, or revocation simply timed out per paper
	// §4.1 — revocations are soft state) the paths reappear without
	// waiting for the next beaconing interval to re-register them.
	revoked map[seg.LinkKey]sim.Time

	// lastRevoked remembers when each link last had a revocation
	// recorded. Unlike revoked it never lapses: it is the
	// revocation-recency signal path-selection policies use to penalize
	// recently flapping paths (LastRevocation).
	lastRevoked map[seg.LinkKey]sim.Time

	cache *Cache

	// Stats for the Table 1 experiment.
	Registrations, Deregistrations, Lookups, CacheHits, Revocations uint64

	// Telemetry (nil no-ops when disabled). Path servers execute in
	// serial simulation context, so cells live on the serial shard and
	// traces are emitted directly.
	clock                                    *sim.Simulator
	cReg, cDereg, cLookup, cHit, cRevocation *telemetry.Cell
}

// NewServer creates a path server for an AS.
func NewServer(local addr.IA, isCore bool, cacheTTL sim.Time) *Server {
	return &Server{
		Local:       local,
		Core:        isCore,
		down:        map[addr.IA][]*seg.PCB{},
		core:        map[addr.IA][]*seg.PCB{},
		up:          nil,
		revoked:     map[seg.LinkKey]sim.Time{},
		lastRevoked: map[seg.LinkKey]sim.Time{},
		cache:       NewCache(cacheTTL),
	}
}

// SetTelemetry resolves the server's metric cells in reg and attaches
// the simulator used for trace emission (registration, revocation and
// reinstatement events). Either argument may be nil.
func (s *Server) SetTelemetry(reg *telemetry.Registry, clock *sim.Simulator) {
	s.clock = clock
	if reg == nil {
		return
	}
	s.cReg = reg.Counter("pathdb_registrations_total").Cell(0)
	s.cDereg = reg.Counter("pathdb_deregistrations_total").Cell(0)
	s.cLookup = reg.Counter("pathdb_lookups_total").Cell(0)
	s.cHit = reg.Counter("pathdb_cache_hits_total").Cell(0)
	s.cRevocation = reg.Counter("pathdb_revocations_total").Cell(0)
}

// trace emits a path lifecycle event from serial context.
func (s *Server) trace(kind telemetry.EventKind, subject, aux uint64, reason string) {
	if s.clock == nil {
		return
	}
	s.clock.Trace(sim.SerialShard, telemetry.Event{
		Kind: kind, Actor: s.Local.Uint64(), Subject: subject, Aux: aux, Reason: reason,
	})
}

// RegisterDown records a down-segment for the leaf AS at the end of the
// segment. Only core path servers accept registrations (paper: leaf ASes
// register at the core path server of their ISD). Duplicate paths update
// in place (re-registration refreshes expiry).
func (s *Server) RegisterDown(now sim.Time, segment *seg.PCB) error {
	if !s.Core {
		return fmt.Errorf("pathdb: %s is not a core path server", s.Local)
	}
	if segment.Expired(now) {
		return fmt.Errorf("pathdb: registering expired segment %v", segment)
	}
	dst := segment.Leaf()
	s.Registrations++
	s.cReg.Inc()
	s.trace(telemetry.PathRegistered, dst.Uint64(), uint64(segment.NumHops()), "down")
	s.down[dst] = upsert(s.down[dst], segment)
	return nil
}

// RegisterCore records a core-segment reaching its leaf (final) core AS.
func (s *Server) RegisterCore(now sim.Time, segment *seg.PCB) error {
	if !s.Core {
		return fmt.Errorf("pathdb: %s is not a core path server", s.Local)
	}
	if segment.Expired(now) {
		return fmt.Errorf("pathdb: registering expired segment %v", segment)
	}
	s.Registrations++
	s.cReg.Inc()
	s.trace(telemetry.PathRegistered, segment.Origin().Uint64(), uint64(segment.NumHops()), "core")
	// Core segments are looked up by origin: a path server asking "how do
	// I reach core AS X" wants segments originated at X (traversed in
	// reverse) or ending at X. We key by the far end (origin).
	s.core[segment.Origin()] = upsert(s.core[segment.Origin()], segment)
	return nil
}

// RegisterUp records one of the local AS's own up-segments.
func (s *Server) RegisterUp(now sim.Time, segment *seg.PCB) error {
	if segment.Expired(now) {
		return fmt.Errorf("pathdb: registering expired segment %v", segment)
	}
	s.Registrations++
	s.cReg.Inc()
	s.trace(telemetry.PathRegistered, segment.Origin().Uint64(), uint64(segment.NumHops()), "up")
	s.up = upsert(s.up, segment)
	return nil
}

// segLess is the canonical lookup-reply order: fewest hops first, then
// by hops key. Stored lists are kept in this order by upsert so lookups
// can serve them without sorting.
func segLess(a, b *seg.PCB) bool {
	if a.NumHops() != b.NumHops() {
		return a.NumHops() < b.NumHops()
	}
	return a.HopsKey() < b.HopsKey()
}

// upsert returns list with segment added or refreshed. Lookups hand
// stored lists out and the cache keeps them, so an insertion never shifts
// entries a reply can see: it appends past the end, which no reply
// covers, or builds a new slice. Only a refresh writes in place, swapping
// in the same path with a later expiry so that held replies see it too.
func upsert(list []*seg.PCB, segment *seg.PCB) []*seg.PCB {
	key := segment.HopsKey()
	for i, old := range list {
		if old.HopsKey() == key {
			// Same hops key means the same sort position: refresh in place.
			if segment.Info.Expiry > old.Info.Expiry {
				list[i] = segment
			}
			return list
		}
	}
	i := sort.Search(len(list), func(i int) bool { return !segLess(list[i], segment) })
	if i == len(list) {
		return append(list, segment)
	}
	out := make([]*seg.PCB, 0, len(list)+1)
	out = append(append(append(out, list[:i]...), segment), list[i:]...)
	return out
}

// Deregister removes a previously registered down-segment by its path
// identity (paper: path de-registration, an intra-ISD operation) and
// evicts cached replies. Like upsert, it leaves the old list untouched.
func (s *Server) Deregister(segment *seg.PCB) bool {
	dst := segment.Leaf()
	key := segment.HopsKey()
	list := s.down[dst]
	for i, old := range list {
		if old.HopsKey() == key {
			s.down[dst] = append(list[:i:i], list[i+1:]...)
			s.cache.Flush()
			s.Deregistrations++
			s.cDereg.Inc()
			return true
		}
	}
	return false
}

// LookupDown answers a down-segment query for a leaf AS, serving from the
// TTL cache first (paper: caching is effective due to multi-hour path
// lifetimes and the Zipf distribution of destinations).
func (s *Server) LookupDown(now sim.Time, dst addr.IA) []*seg.PCB {
	s.Lookups++
	s.cLookup.Inc()
	s.expireRevocations(now)
	if segs, ok := s.cache.Get(now, cacheKey{typ: Down, dst: dst}); ok {
		s.CacheHits++
		s.cHit.Inc()
		return segs
	}
	segs := s.live(now, s.down[dst])
	s.cache.Put(now, cacheKey{typ: Down, dst: dst}, segs)
	return segs
}

// LookupCore answers a core-segment query for a core AS.
func (s *Server) LookupCore(now sim.Time, dst addr.IA) []*seg.PCB {
	s.Lookups++
	s.cLookup.Inc()
	s.expireRevocations(now)
	if segs, ok := s.cache.Get(now, cacheKey{typ: Core, dst: dst}); ok {
		s.CacheHits++
		s.cHit.Inc()
		return segs
	}
	segs := s.live(now, s.core[dst])
	s.cache.Put(now, cacheKey{typ: Core, dst: dst}, segs)
	return segs
}

// LookupUp answers an endpoint's up-segment query (an intra-AS operation,
// paper §4.1 "Endpoint Path Lookup").
func (s *Server) LookupUp(now sim.Time) []*seg.PCB {
	s.Lookups++
	s.cLookup.Inc()
	s.expireRevocations(now)
	return s.live(now, s.up)
}

// live hides expired segments and segments that traverse an actively
// revoked link. Stored lists are maintained in segLess order
// (see upsert), so when nothing needs filtering the stored slice is
// returned directly — the common case allocates and sorts nothing.
// Callers must treat the reply as read-only.
func (s *Server) live(now sim.Time, in []*seg.PCB) []*seg.PCB {
	drop := func(p *seg.PCB) bool {
		return p.Expired(now) || (len(s.revoked) > 0 && s.revokedSegment(p))
	}
	i := 0
	for i < len(in) && !drop(in[i]) {
		i++
	}
	if i == len(in) {
		return in
	}
	out := make([]*seg.PCB, i, len(in)-1)
	copy(out, in[:i])
	for _, p := range in[i+1:] {
		if !drop(p) {
			out = append(out, p)
		}
	}
	return out
}

func (s *Server) revokedSegment(p *seg.PCB) bool {
	for _, lk := range p.Links() {
		if _, ok := s.revoked[lk]; ok {
			return true
		}
	}
	return false
}

// expireRevocations drops revocation state that has timed out; if any
// lapses the lookup cache is flushed so reinstated paths become visible
// immediately.
func (s *Server) expireRevocations(now sim.Time) {
	// Collect lapsed keys first and emit in sorted order: map iteration
	// order must not leak into the deterministic trace stream.
	var lapsed []seg.LinkKey
	for lk, exp := range s.revoked {
		if now >= exp {
			lapsed = append(lapsed, lk)
		}
	}
	if len(lapsed) == 0 {
		return
	}
	sort.Slice(lapsed, func(i, j int) bool {
		if lapsed[i].IA != lapsed[j].IA {
			return lapsed[i].IA.Less(lapsed[j].IA)
		}
		return lapsed[i].If < lapsed[j].If
	})
	for _, lk := range lapsed {
		delete(s.revoked, lk)
		s.trace(telemetry.PathReinstated, lk.IA.Uint64(), uint64(lk.If), "")
	}
	s.cache.Flush()
}

// LastRevocation returns when the server most recently recorded a
// revocation for the link (via RevokeFor), and whether it ever has. The
// record is permanent — it reports history, not whether the revocation
// is still active.
func (s *Server) LastRevocation(link seg.LinkKey) (sim.Time, bool) {
	t, ok := s.lastRevoked[link]
	return t, ok
}

// RevokeFor places link under a timed revocation: segments over it are
// hidden from lookups until the revocation expires at now+ttl, then
// reinstated automatically (paper §4.1: revocations are soft state that
// must be refreshed while the failure persists). It returns the number
// of currently stored segments the revocation hides. A ttl <= 0 falls
// back to the permanent Revoke.
func (s *Server) RevokeFor(now sim.Time, link seg.LinkKey, ttl sim.Time) int {
	s.lastRevoked[link] = now
	if ttl <= 0 {
		return s.Revoke(link)
	}
	exp := now + ttl
	if cur, ok := s.revoked[link]; !ok || exp > cur {
		s.revoked[link] = exp
	}
	affected := 0
	count := func(list []*seg.PCB) {
		for _, p := range list {
			if containsLink(p, link) {
				affected++
			}
		}
	}
	for dst := range s.down {
		count(s.down[dst])
	}
	for dst := range s.core {
		count(s.core[dst])
	}
	count(s.up)
	s.cache.Flush()
	if affected > 0 {
		s.Revocations++
		s.cRevocation.Inc()
	}
	s.trace(telemetry.PathRevoked, link.IA.Uint64(), uint64(link.If), "soft")
	return affected
}

// Revoke removes every stored segment (down, core, up) containing the
// given link and flushes the cache; it returns the number of segments
// dropped. This models the intra-ISD revocation reaction of paper §4.1.
func (s *Server) Revoke(link seg.LinkKey) int {
	dropped := 0
	filter := func(list []*seg.PCB) []*seg.PCB {
		var out []*seg.PCB
		for _, p := range list {
			if containsLink(p, link) {
				dropped++
				continue
			}
			out = append(out, p)
		}
		return out
	}
	for dst := range s.down {
		s.down[dst] = filter(s.down[dst])
	}
	for dst := range s.core {
		s.core[dst] = filter(s.core[dst])
	}
	s.up = filter(s.up)
	s.cache.Flush()
	if dropped > 0 {
		s.Revocations++
		s.cRevocation.Inc()
	}
	s.trace(telemetry.PathRevoked, link.IA.Uint64(), uint64(link.If), "hard")
	return dropped
}

func containsLink(p *seg.PCB, link seg.LinkKey) bool {
	for _, lk := range p.Links() {
		if lk == link {
			return true
		}
	}
	return false
}

// DownDestinations lists leaf ASes with registered down-segments.
func (s *Server) DownDestinations() []addr.IA {
	out := make([]addr.IA, 0, len(s.down))
	for ia, list := range s.down {
		if len(list) > 0 {
			out = append(out, ia)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}
