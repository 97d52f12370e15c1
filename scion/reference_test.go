package scion

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"scionmpr/internal/addr"
	"scionmpr/internal/pathsrv"
	"scionmpr/internal/seg"
	"scionmpr/internal/sim"
	"scionmpr/internal/telemetry"
)

// The per-AS path server scion.Network ran on before it served segments
// from one pathsrv.Service: a server per AS, each leaf's up-segments
// stored at the leaf and again as down-segments at every core of its
// ISD, with a TTL reply cache. Kept verbatim as the oracle the role view
// is compared against; the only edits are the ref names and error
// prefix, the segment types' constants, and the removal of its
// registration trace events (a kind nothing emits any more) and of the
// telemetry setter nothing here calls. The oracle runs with its cache
// disabled (TTL 0).

// refServer is one AS's path server. A core AS's path server additionally
// stores the down-segments registered by the leaf ASes of its ISD and the
// core-segments to reach other core ASes (paper §2.2).
type refServer struct {
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

	cache *refCache

	// Stats for the Table 1 experiment.
	Registrations, Deregistrations, Lookups, CacheHits, Revocations uint64

	// Telemetry (nil no-ops when disabled). Path servers execute in
	// serial simulation context, so cells live on the serial shard and
	// traces are emitted directly.
	clock                                    *sim.Simulator
	cReg, cDereg, cLookup, cHit, cRevocation *telemetry.Cell
}

// newRefServer creates a path server for an AS.
func newRefServer(local addr.IA, isCore bool, cacheTTL sim.Time) *refServer {
	return &refServer{
		Local:       local,
		Core:        isCore,
		down:        map[addr.IA][]*seg.PCB{},
		core:        map[addr.IA][]*seg.PCB{},
		up:          nil,
		revoked:     map[seg.LinkKey]sim.Time{},
		lastRevoked: map[seg.LinkKey]sim.Time{},
		cache:       newRefCache(cacheTTL),
	}
}

// trace emits a path lifecycle event from serial context.
func (s *refServer) trace(kind telemetry.EventKind, subject, aux uint64, reason string) {
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
func (s *refServer) RegisterDown(now sim.Time, segment *seg.PCB) error {
	if !s.Core {
		return fmt.Errorf("ref: %s is not a core path server", s.Local)
	}
	if segment.Expired(now) {
		return fmt.Errorf("ref: registering expired segment %v", segment)
	}
	dst := segment.Leaf()
	s.Registrations++
	s.cReg.Inc()
	s.down[dst] = refUpsert(s.down[dst], segment)
	return nil
}

// RegisterCore records a core-segment reaching its leaf (final) core AS.
func (s *refServer) RegisterCore(now sim.Time, segment *seg.PCB) error {
	if !s.Core {
		return fmt.Errorf("ref: %s is not a core path server", s.Local)
	}
	if segment.Expired(now) {
		return fmt.Errorf("ref: registering expired segment %v", segment)
	}
	s.Registrations++
	s.cReg.Inc()
	// Core segments are looked up by origin: a path server asking "how do
	// I reach core AS X" wants segments originated at X (traversed in
	// reverse) or ending at X. We key by the far end (origin).
	s.core[segment.Origin()] = refUpsert(s.core[segment.Origin()], segment)
	return nil
}

// RegisterUp records one of the local AS's own up-segments.
func (s *refServer) RegisterUp(now sim.Time, segment *seg.PCB) error {
	if segment.Expired(now) {
		return fmt.Errorf("ref: registering expired segment %v", segment)
	}
	s.Registrations++
	s.cReg.Inc()
	s.up = refUpsert(s.up, segment)
	return nil
}

// refSegLess is the canonical lookup-reply order: fewest hops first, then
// by hops key. Stored lists are kept in this order by refUpsert so lookups
// can serve them without sorting.
func refSegLess(a, b *seg.PCB) bool {
	if a.Len() != b.Len() {
		return a.Len() < b.Len()
	}
	return a.HopsKey() < b.HopsKey()
}

// refUpsert returns list with segment added or refreshed. Lookups hand
// stored lists out and the cache keeps them, so an insertion never shifts
// entries a reply can see: it appends past the end, which no reply
// covers, or builds a new slice. Only a refresh writes in place, swapping
// in the same path with a later expiry so that held replies see it too.
func refUpsert(list []*seg.PCB, segment *seg.PCB) []*seg.PCB {
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
	i := sort.Search(len(list), func(i int) bool { return !refSegLess(list[i], segment) })
	if i == len(list) {
		return append(list, segment)
	}
	out := make([]*seg.PCB, 0, len(list)+1)
	out = append(append(append(out, list[:i]...), segment), list[i:]...)
	return out
}

// Deregister removes a previously registered down-segment by its path
// identity (paper: path de-registration, an intra-ISD operation) and
// evicts cached replies. Like refUpsert, it leaves the old list untouched.
func (s *refServer) Deregister(segment *seg.PCB) bool {
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
func (s *refServer) LookupDown(now sim.Time, dst addr.IA) []*seg.PCB {
	s.Lookups++
	s.cLookup.Inc()
	s.expireRevocations(now)
	if segs, ok := s.cache.Get(now, refCacheKey{typ: DownSeg, dst: dst}); ok {
		s.CacheHits++
		s.cHit.Inc()
		return segs
	}
	segs := s.live(now, s.down[dst])
	s.cache.Put(now, refCacheKey{typ: DownSeg, dst: dst}, segs)
	return segs
}

// LookupCore answers a core-segment query for a core AS.
func (s *refServer) LookupCore(now sim.Time, dst addr.IA) []*seg.PCB {
	s.Lookups++
	s.cLookup.Inc()
	s.expireRevocations(now)
	if segs, ok := s.cache.Get(now, refCacheKey{typ: CoreSeg, dst: dst}); ok {
		s.CacheHits++
		s.cHit.Inc()
		return segs
	}
	segs := s.live(now, s.core[dst])
	s.cache.Put(now, refCacheKey{typ: CoreSeg, dst: dst}, segs)
	return segs
}

// LookupUp answers an endpoint's up-segment query (an intra-AS operation,
// paper §4.1 "Endpoint Path Lookup").
func (s *refServer) LookupUp(now sim.Time) []*seg.PCB {
	s.Lookups++
	s.cLookup.Inc()
	s.expireRevocations(now)
	return s.live(now, s.up)
}

// live hides expired segments and segments that traverse an actively
// revoked link. Stored lists are maintained in refSegLess order
// (see refUpsert), so when nothing needs filtering the stored slice is
// returned directly — the common case allocates and sorts nothing.
// Callers must treat the reply as read-only.
func (s *refServer) live(now sim.Time, in []*seg.PCB) []*seg.PCB {
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

func (s *refServer) revokedSegment(p *seg.PCB) bool {
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
func (s *refServer) expireRevocations(now sim.Time) {
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
func (s *refServer) LastRevocation(link seg.LinkKey) (sim.Time, bool) {
	t, ok := s.lastRevoked[link]
	return t, ok
}

// RevokeFor places link under a timed revocation: segments over it are
// hidden from lookups until the revocation expires at now+ttl, then
// reinstated automatically (paper §4.1: revocations are soft state that
// must be refreshed while the failure persists). It returns the number
// of currently stored segments the revocation hides. A ttl <= 0 falls
// back to the permanent Revoke.
func (s *refServer) RevokeFor(now sim.Time, link seg.LinkKey, ttl sim.Time) int {
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
			if refContainsLink(p, link) {
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
func (s *refServer) Revoke(link seg.LinkKey) int {
	dropped := 0
	filter := func(list []*seg.PCB) []*seg.PCB {
		var out []*seg.PCB
		for _, p := range list {
			if refContainsLink(p, link) {
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

func refContainsLink(p *seg.PCB, link seg.LinkKey) bool {
	for _, lk := range p.Links() {
		if lk == link {
			return true
		}
	}
	return false
}

// DownDestinations lists leaf ASes with registered down-segments.
func (s *refServer) DownDestinations() []addr.IA {
	out := make([]addr.IA, 0, len(s.down))
	for ia, list := range s.down {
		if len(list) > 0 {
			out = append(out, ia)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

type refCacheKey struct {
	typ SegType
	dst addr.IA
}

type refCacheEntry struct {
	segs    []*seg.PCB
	expires sim.Time
}

// refCache is a TTL cache for lookup replies. Caching makes down- and
// core-segment lookups cheap in practice because SCION paths live for
// hours and destination popularity is Zipf distributed (paper §4.1).
type refCache struct {
	ttl     sim.Time
	entries map[refCacheKey]refCacheEntry
	// Hits and Misses are cumulative statistics.
	Hits, Misses uint64
}

// newRefCache creates a cache; ttl <= 0 disables caching.
func newRefCache(ttl sim.Time) *refCache {
	return &refCache{ttl: ttl, entries: map[refCacheKey]refCacheEntry{}}
}

// Get returns a cached reply if fresh.
func (c *refCache) Get(now sim.Time, k refCacheKey) ([]*seg.PCB, bool) {
	if c.ttl <= 0 {
		c.Misses++
		return nil, false
	}
	e, ok := c.entries[k]
	if !ok || now >= e.expires {
		delete(c.entries, k)
		c.Misses++
		return nil, false
	}
	c.Hits++
	return e.segs, true
}

// Put stores a reply.
func (c *refCache) Put(now sim.Time, k refCacheKey, segs []*seg.PCB) {
	if c.ttl <= 0 {
		return
	}
	c.entries[k] = refCacheEntry{segs: segs, expires: now + c.ttl}
}

// Flush empties the cache (after revocations).
func (c *refCache) Flush() { c.entries = map[refCacheKey]refCacheEntry{} }

// refNetwork is n's path-server infrastructure rebuilt twice from one
// termination of its beacons: a fresh Service in n (replacing the one
// NewNetwork registered) and one oracle server per AS, registered as
// NewNetwork used to, so both hold the same segment pointers.
func refNetwork(t *testing.T, n *Network) map[addr.IA]*refServer {
	t.Helper()
	now := n.now()
	n.paths = pathsrv.New(pathsrv.Config{Clock: n.clock})
	refs := map[addr.IA]*refServer{}
	for _, ia := range n.Topo.IAs() {
		refs[ia] = newRefServer(ia, n.Topo.AS(ia).Core, 0)
	}
	for _, ia := range n.Topo.IAs() {
		run, origins := n.intraRun, n.cores[ia.ISD]
		if n.Topo.AS(ia).Core {
			run, origins = n.coreRun, n.Topo.CoreIAs()
		}
		for _, origin := range origins {
			if origin == ia {
				continue
			}
			segs, err := n.terminate(run, origin, ia)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range segs {
				refRegister(t, n, refs, now, s)
			}
		}
	}
	return refs
}

// refRegister registers s at n's Service and at the oracle servers that
// stored it: a core-segment at its leaf, an up-segment at its leaf and,
// as a down-segment, at every core of the leaf's ISD.
func refRegister(t *testing.T, n *Network, refs map[addr.IA]*refServer, now sim.Time, s *seg.PCB) {
	t.Helper()
	leaf := s.Leaf()
	errs := []error{n.paths.Register(now, s)}
	if n.Topo.AS(leaf).Core {
		errs = append(errs, refs[leaf].RegisterCore(now, s))
	} else {
		errs = append(errs, refs[leaf].RegisterUp(now, s))
		for _, c := range n.cores[leaf.ISD] {
			errs = append(errs, refs[c].RegisterDown(now, s))
		}
	}
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestPathServerMatchesReference drives a seeded sequence of
// registration refreshes, revocations of both keys of a link, lapses at
// the TTL and 1 ns before it, and clock advances across segment expiry
// through the role view and the per-AS oracle, and requires identical
// replies, pointer for pointer, from every role of every AS after each
// step: up at every AS, down at every core for every leaf (other ISDs'
// included) and at leaves, core at every core for every core, and nil
// from an unknown AS. It also requires the same revocation recency and
// the same lookup count.
func TestPathServerMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(*testing.T) *Network
	}{{"demo", demoNet}, {"isd364", newISDNet}} {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.build(t)
			refs := refNetwork(t, n)
			total := checkReference(t, n, refs, "registration")
			rng := rand.New(rand.NewSource(1))
			ttl := sim.Time(n.Opts.RevocationTTL)
			hid, lapsed, refreshed := false, false, 0
			for step := 0; step < 24; step++ {
				switch rng.Intn(3) {
				case 0: // revoke both keys of a link, then lapse it
					l := n.Topo.Links[rng.Intn(len(n.Topo.Links))]
					at := n.now()
					n.NoteLinkDown(l)
					for _, key := range []seg.LinkKey{{IA: l.A, If: l.AIf}, {IA: l.B, If: l.BIf}} {
						for _, ia := range n.Topo.IAs() {
							refs[ia].RevokeFor(at, key, ttl)
						}
					}
					during := checkReference(t, n, refs, fmt.Sprintf("step %d: revoke %v", step, l))
					hid = hid || during < total
					if rng.Intn(2) == 0 {
						advanceTo(n, at+ttl-1)
						before := checkReference(t, n, refs, fmt.Sprintf("step %d: 1ns before the lapse", step))
						advanceTo(n, at+ttl)
						after := checkReference(t, n, refs, fmt.Sprintf("step %d: at the lapse", step))
						lapsed = lapsed || after > before
					}
				case 1: // refresh some segments with a later expiry
					now := n.now()
					for _, ia := range n.Topo.IAs() {
						if up := refs[ia].LookupUp(now); len(up) > 0 && rng.Intn(4) == 0 {
							fresh := *up[rng.Intn(len(up))]
							fresh.Info.Expiry += sim.Time(time.Hour)
							refRegister(t, n, refs, now, &fresh)
							refreshed++
						}
					}
					checkReference(t, n, refs, fmt.Sprintf("step %d: refresh", step))
				case 2:
					advanceTo(n, n.now()+sim.Time(rng.Intn(3000))*sim.Time(time.Millisecond))
					checkReference(t, n, refs, fmt.Sprintf("step %d: advance", step))
				}
			}
			if !hid || !lapsed || refreshed == 0 {
				t.Fatalf("the sequence exercises too little: revocation hid segments %v, lapse restored them %v, %d refreshes",
					hid, lapsed, refreshed)
			}
			// Every segment of the bootstrap expires within 8 h of its
			// start, refreshed ones an hour later: step past all of them,
			// through states where some have expired.
			partial := false
			for left := total; left > 0; {
				advanceTo(n, n.now()+sim.Time(30*time.Minute))
				left = checkReference(t, n, refs, fmt.Sprintf("at %v", time.Duration(n.now())))
				partial = partial || (left > 0 && left < total)
			}
			if !partial {
				t.Error("no lookup saw some segments expired and others not")
			}
		})
	}
}

// advanceTo runs n's clock until the control-plane time reaches at.
func advanceTo(n *Network, at sim.Time) {
	n.clock.RunUntil(at - n.intraRun.End)
}

// checkReference compares every role of every AS with the oracle and
// returns the number of up- and core-segments served.
func checkReference(t *testing.T, n *Network, refs map[addr.IA]*refServer, what string) int {
	t.Helper()
	now := n.now()
	lookups, refLookups := n.Lookups, uint64(0)
	for _, ref := range refs {
		refLookups -= ref.Lookups
	}
	same := func(role string, got, want []*seg.PCB) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %s: %d segments, oracle %d", what, role, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: %s: segment %d is %v, oracle %v", what, role, i, got[i], want[i])
			}
		}
	}
	ias, cores := n.Topo.IAs(), n.Topo.CoreIAs()
	served := 0
	for i, ia := range ias {
		ps, ref := n.PathServer(ia), refs[ia]
		up := ps.LookupUp(now)
		served += len(up)
		same(fmt.Sprintf("up at %s", ia), up, ref.LookupUp(now))
		if !ref.Core && i%7 == 0 {
			// Roles a leaf lacks.
			same(fmt.Sprintf("down at leaf %s", ia), ps.LookupDown(now, ia), ref.LookupDown(now, ia))
			same(fmt.Sprintf("core at leaf %s", ia), ps.LookupCore(now, cores[0]), ref.LookupCore(now, cores[0]))
		}
	}
	for _, c := range cores {
		ps, ref := n.PathServer(c), refs[c]
		for _, dst := range ias {
			if !refs[dst].Core {
				same(fmt.Sprintf("down at %s for %s", c, dst), ps.LookupDown(now, dst), ref.LookupDown(now, dst))
			}
		}
		for _, dst := range cores {
			core := ps.LookupCore(now, dst)
			served += len(core)
			same(fmt.Sprintf("core at %s for %s", c, dst), core, ref.LookupCore(now, dst))
		}
	}
	unknown := addr.MustIA(9, 9)
	if n.PathServer(unknown).LookupUp(now) != nil || n.PathServer(unknown).LookupDown(now, ias[0]) != nil ||
		n.PathServer(unknown).LookupCore(now, cores[0]) != nil {
		t.Fatalf("%s: an unknown AS answered", what)
	}
	for _, ref := range refs {
		refLookups += ref.Lookups
	}
	if got := n.Lookups - lookups - 3; got != refLookups {
		t.Fatalf("%s: %d lookups counted, oracle %d", what, got, refLookups)
	}
	return served
}
