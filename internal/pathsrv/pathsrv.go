// Package pathsrv is the path-lookup serving layer: a sharded,
// concurrent path-query service layered over the beaconing control
// plane, sized for a closed-loop population of millions of
// endpoints (paper §3 "Deployment", §4.1 "Endpoint Path Lookup").
//
// # Architecture
//
// The service is read-mostly. Destinations are hashed onto a fixed set
// of shards; each shard's serving state is an immutable snapshot reached
// through an atomic pointer, so a lookup is a pointer load, a map probe
// for the pair's slot and a slice index — no locks, no allocation on the
// fast path. All writes (segment registrations from beacon servers, link
// revocations and reinstatements from the chaos/fault plane) mutate a
// writer-owned master copy and batch into epoch publications that swap
// the affected shards' snapshot pointers; a link index lets a revocation
// recompute only the pairs over that link, and a republished shard copies
// its dense entries slice, not a map. Lookups observe either the old or
// the new epoch, never a torn mix.
//
// Client-side, a Cache (one per client actor or reader goroutine)
// memoizes (src, dst) replies. Invalidation is precise rather than
// flush-everything: every publication diffs each rebuilt pair against
// the previous snapshot and evicts exactly the cached pairs whose path
// set changed — so a revocation storm invalidates the affected pairs
// and nothing else.
//
// # Determinism and concurrency contract
//
// In simulation the writer side (Register, Deregister, RevokeLink,
// ReinstateLink, Publish) runs in serial simulator events, while lookups
// run on parallel client-actor shards and touch only immutable snapshots
// plus the actor's own cache and telemetry cells — worker-count-invariant
// by the same discipline as internal/sim. Outside the simulation the same
// structure holds with goroutines: one writer, any number of readers
// with local caches (TestConcurrentReadersBesideWriter runs this under
// -race, and the benchmark's lookup_churn workload times it).
// Registered caches are walked by the writer during publication, so a
// concurrent reader must use an unregistered local cache (NewLocalCache).
package pathsrv

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync/atomic"

	"scionmpr/internal/addr"
	"scionmpr/internal/seg"
	"scionmpr/internal/sim"
	"scionmpr/internal/telemetry"
)

// Config parameterizes a Service.
type Config struct {
	// Shards is the destination shard count, clamped to [1, 64]
	// (default 16). The shard of a destination is a pure function of its
	// IA, so shard assignment never depends on execution order.
	Shards int
	// RevocationTTL bounds how long a revocation without explicit
	// reinstatement hides segments (default 2s of virtual time);
	// RevokeLink callers may override per call.
	RevocationTTL sim.Time
	// Clock, if set, timestamps trace events (serial context only).
	Clock *sim.Simulator
	// Telemetry, if set, receives the service's counters and gauges.
	Telemetry *telemetry.Registry
}

// pairKey identifies one (src, dst) query.
type pairKey struct {
	src, dst addr.IA
}

// pairEntry is one pair's immutable serving state inside a snapshot.
type pairEntry struct {
	segs []*seg.PCB
	// minExpiry is the earliest expiry among segs: before it the slice
	// can be served as-is with no per-segment expiry checks.
	minExpiry sim.Time
}

// snapshot is one shard's immutable serving state. A new snapshot is
// built for every mutation batch that touches the shard and installed
// with an atomic pointer swap; lookups never see it change.
type snapshot struct {
	epoch uint64
	// keys are the shard's master pairs in canonical order when it was
	// last rebuilt whole, and at is their inverse, keyed by packed pair;
	// both are shared by every snapshot with the same key set.
	keys []pairKey
	at   map[packedPair]int32
	// entries runs parallel to keys; an empty entry is a pair not served.
	entries []pairEntry
	live    int // non-empty entries
	// minExpiry is the earliest segment expiry across all pairs (0 when
	// empty): past it the snapshot holds dead segments and the next
	// publication must rebuild the shard even without new registrations.
	minExpiry sim.Time
}

var emptySnapshot = &snapshot{}

// packedPair is a pairKey as two words: one hash of 16 bytes instead of
// one per field of two padded IAs, which was most of a lookup's time.
type packedPair [2]uint64

func (k pairKey) packed() packedPair { return packedPair{k.src.Uint64(), k.dst.Uint64()} }

// entry returns key's serving state, empty when the pair is not served.
func (snap *snapshot) entry(key pairKey) pairEntry {
	if i, ok := snap.at[key.packed()]; ok {
		return snap.entries[i]
	}
	return pairEntry{}
}

// pairMaster is one pair's writer-side state: its registered segments in
// reply order and, parallel to them, the segments' ids; stamp is the last
// touch that listed the pair. slot is the pair's index in its shard's
// snapshot after a whole rebuild, -1 once pruned from the master copy.
type pairMaster struct {
	key   pairKey
	stamp uint64
	slot  int32
	segs  []*seg.PCB
	ids   []uint32
}

// segState is what the revocation filter reads of one segment, by id:
// its expiry, its pair and how many of its links are revoked.
type segState struct {
	expiry  sim.Time
	pair    *pairMaster
	revoked int32
}

// linkEntry indexes one link: the shards a change to it republishes and
// the ids of the segments over it — derived, never serialized, a superset
// but never a subset.
type linkEntry struct {
	shards uint64
	segs   []uint32
}

// Service is the sharded path-query service.
type Service struct {
	nshards uint32
	revTTL  sim.Time

	// snaps are the per-shard atomic snapshot pointers — the only state
	// the lookup path touches.
	snaps []atomic.Pointer[snapshot]

	// Writer-owned state. Only the writer (serial simulator events, or
	// the single writer goroutine outside the sim) may touch it.
	master     []map[pairKey]*pairMaster
	linkShards map[seg.LinkKey]*linkEntry
	linkMemo   [1024]linkSlot // see link
	revoked    map[seg.LinkKey]sim.Time
	dirty      uint64 // bitmask of shards with pending (de-)registrations
	// touched[sh] holds the pairs to recompute at shard sh's next publish;
	// from masterMin[sh] (earliest master expiry, 0: unknown) on, all are.
	touched   [][]*pairMaster
	masterMin []sim.Time
	segs      []segState // by segment id, renumbered only by reindex
	stamp     uint64     // counts touches
	dead      int        // ids no master list holds since the last reindex
	epoch     uint64
	caches    []*Cache

	// Stats mirror the telemetry counters for registry-free use.
	Registrations, Refreshes, Publishes, PublishedShards uint64
	Revocations, Reinstatements, Invalidations, Rejected uint64

	clock                               *sim.Simulator
	cReg, cRefresh, cPub, cRev, cRein   *telemetry.Cell
	cInvPublish, cInvRevoke, cInvRetire *telemetry.Cell
}

// New creates a Service.
func New(cfg Config) *Service {
	n := cfg.Shards
	if n <= 0 {
		n = 16
	}
	if n > 64 {
		n = 64
	}
	ttl := cfg.RevocationTTL
	if ttl <= 0 {
		ttl = 2 * sim.Time(1e9)
	}
	s := &Service{
		nshards:    uint32(n),
		revTTL:     ttl,
		snaps:      make([]atomic.Pointer[snapshot], n),
		master:     make([]map[pairKey]*pairMaster, n),
		linkShards: map[seg.LinkKey]*linkEntry{},
		revoked:    map[seg.LinkKey]sim.Time{},
		touched:    make([][]*pairMaster, n),
		masterMin:  make([]sim.Time, n),
		clock:      cfg.Clock,
	}
	for i := range s.snaps {
		s.snaps[i].Store(emptySnapshot)
		s.master[i] = map[pairKey]*pairMaster{}
	}
	if reg := cfg.Telemetry; reg != nil {
		s.cReg = reg.Counter("pathsrv_registrations_total").Cell(0)
		s.cRefresh = reg.Counter("pathsrv_registration_refreshes_total").Cell(0)
		s.cPub = reg.Counter("pathsrv_publishes_total").Cell(0)
		s.cRev = reg.Counter("pathsrv_revocations_total").Cell(0)
		s.cRein = reg.Counter("pathsrv_reinstatements_total").Cell(0)
		s.cInvPublish = reg.Counter(`pathsrv_cache_invalidations_total{reason="publish"}`).Cell(0)
		s.cInvRevoke = reg.Counter(`pathsrv_cache_invalidations_total{reason="revoke"}`).Cell(0)
		s.cInvRetire = reg.Counter(`pathsrv_cache_invalidations_total{reason="reinstate"}`).Cell(0)
		reg.GaugeFunc("pathsrv_epoch", func() float64 { return float64(s.epoch) })
		reg.GaugeFunc("pathsrv_revoked_links", func() float64 { return float64(len(s.revoked)) })
		reg.GaugeFunc("pathsrv_snapshot_pairs", func() float64 {
			total := 0
			for i := range s.snaps {
				total += s.snaps[i].Load().live
			}
			return float64(total)
		})
	}
	return s
}

// NumShards returns the destination shard count.
func (s *Service) NumShards() int { return int(s.nshards) }

// Epoch returns the current publication epoch (writer context).
func (s *Service) Epoch() uint64 { return s.epoch }

// ShardOf maps a destination IA to its shard, a pure function usable
// from any context.
func (s *Service) ShardOf(dst addr.IA) uint32 {
	// splitmix64 finalizer: IAs are near-sequential, so mix hard before
	// reducing to avoid systematically imbalanced shards.
	x := dst.Uint64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return uint32(x % uint64(s.nshards))
}

// trace emits a service lifecycle event (writer/serial context only).
func (s *Service) trace(kind telemetry.EventKind, actor, subject, aux uint64, reason string) {
	if s.clock == nil {
		return
	}
	s.clock.Trace(sim.SerialShard, telemetry.Event{
		Kind: kind, Actor: actor, Subject: subject, Aux: aux, Reason: reason,
	})
}

// Register records a path segment under (origin, leaf): subsequent
// lookups for that pair will serve it after the next publication.
// Re-registering a known path refreshes its expiry in place. Writer
// context only.
func (s *Service) Register(now sim.Time, p *seg.PCB) error {
	if p.Expired(now) {
		s.Rejected++
		return fmt.Errorf("pathsrv: registering expired segment %v", p)
	}
	key := pairKey{src: p.Origin(), dst: p.Leaf()}
	if key.src == key.dst {
		s.Rejected++
		return fmt.Errorf("pathsrv: degenerate segment %v", p)
	}
	sh := s.ShardOf(key.dst)
	pm := s.master[sh][key]
	if pm == nil {
		pm = &pairMaster{key: key}
		s.master[sh][key] = pm
	}
	list, mutated, fresh := upsert(pm.segs, p)
	if !mutated {
		return nil
	}
	pm.segs = list
	s.dirty |= 1 << sh
	at := slices.Index(list, p)
	if fresh {
		s.Registrations++
		s.cReg.Inc()
		pm.ids = slices.Insert(pm.ids, at, s.index(pm, p, 1<<sh))
	} else {
		s.Refreshes++
		s.cRefresh.Inc()
		s.segs[pm.ids[at]].expiry = p.Info.Expiry
	}
	return nil
}

// Deregister removes the registered path with p's hops key from its
// (origin, leaf) pair (paper §2.2: path de-registration); lookups stop
// serving it at the next publication. It reports whether the path was
// registered. The removed id stays on its links' entries until the next
// reindex, as a pruned one does. Writer context only.
func (s *Service) Deregister(p *seg.PCB) bool {
	key := pairKey{src: p.Origin(), dst: p.Leaf()}
	sh := s.ShardOf(key.dst)
	pm := s.master[sh][key]
	if pm == nil {
		return false
	}
	hk := p.HopsKey()
	i := slices.IndexFunc(pm.segs, func(q *seg.PCB) bool { return q.HopsKey() == hk })
	if i < 0 {
		return false
	}
	pm.segs, pm.ids = slices.Delete(pm.segs, i, i+1), slices.Delete(pm.ids, i, i+1)
	s.dead++
	s.dirty |= 1 << sh
	return true
}

// index numbers a segment of pm and adds shards and its id to the entries
// of the links it crosses (seg.PCB.Links): one map operation per link,
// one more while links are revoked.
func (s *Service) index(pm *pairMaster, p *seg.PCB, shards uint64) uint32 {
	id := uint32(len(s.segs))
	st := segState{expiry: p.Info.Expiry, pair: pm}
	for _, lk := range p.Links() {
		e := s.link(lk)
		e.shards |= shards
		e.segs = append(e.segs, id)
		if len(s.revoked) > 0 {
			if _, ok := s.revoked[lk]; ok {
				st.revoked++
			}
		}
	}
	s.segs = append(s.segs, st)
	return id
}

// reindex renumbers every master segment, dropping the ids no master
// list holds any more.
func (s *Service) reindex() {
	s.segs, s.dead = s.segs[:0], 0
	for _, e := range s.linkShards {
		e.segs = e.segs[:0]
	}
	for _, master := range s.master {
		for _, pm := range master {
			pm.ids = pm.ids[:0]
			for _, p := range pm.segs {
				pm.ids = append(pm.ids, s.index(pm, p, 0))
			}
		}
	}
}

type linkSlot struct {
	lk seg.LinkKey
	e  *linkEntry
}

// link returns lk's entry, creating it. Entries are never removed, so a
// direct-mapped memo in front of the map stays valid; it answers most
// lookups without the map's hash of the padded key, which was the largest
// cost of indexing a checkpoint.
func (s *Service) link(lk seg.LinkKey) *linkEntry {
	m := &s.linkMemo[(uint64(lk.IA.AS)<<16|uint64(lk.If))*0x9e3779b97f4a7c15>>54]
	if m.e != nil && m.lk == lk {
		return m.e
	}
	e := s.linkShards[lk]
	if e == nil {
		e = &linkEntry{}
		s.linkShards[lk] = e
	}
	m.lk, m.e = lk, e
	return e
}

// touch adds delta to the revoked-link count of every segment over link,
// marks their pairs for recomputation, each once, and returns the shards
// a change to link republishes.
func (s *Service) touch(link seg.LinkKey, delta int32) uint64 {
	e := s.linkShards[link]
	if e == nil {
		return 0
	}
	s.stamp++
	for _, id := range e.segs {
		st := &s.segs[id]
		st.revoked += delta
		if pm := st.pair; pm.stamp != s.stamp {
			pm.stamp = s.stamp
			sh := s.ShardOf(pm.key.dst)
			s.touched[sh] = append(s.touched[sh], pm)
		}
	}
	return e.shards
}

// upsert inserts p into a (Len, HopsKey)-ordered list or refreshes
// the matching path's expiry in place. It reports whether the list
// changed at all and whether p was a previously unknown path.
func upsert(list []*seg.PCB, p *seg.PCB) (out []*seg.PCB, mutated, fresh bool) {
	key := p.HopsKey()
	for i, old := range list {
		if old.HopsKey() == key {
			if p.Info.Expiry > old.Info.Expiry {
				list[i] = p
				return list, true, false
			}
			return list, false, false
		}
	}
	i := sort.Search(len(list), func(i int) bool { return !segLess(list[i], p) })
	list = append(list, nil)
	copy(list[i+1:], list[i:])
	list[i] = p
	return list, true, true
}

// segLess is the canonical reply order: fewest hops first, then by hops
// key.
func segLess(a, b *seg.PCB) bool {
	if a.Len() != b.Len() {
		return a.Len() < b.Len()
	}
	return a.HopsKey() < b.HopsKey()
}

// Lookup answers a (src, dst) path query from the current snapshot —
// safe from any number of concurrent readers. It returns the reply
// segments (read-only, shared with the snapshot) and the earliest
// expiry among them: before that instant the exact same reply would be
// served again, which is what caches key their freshness on.
func (s *Service) Lookup(now sim.Time, src, dst addr.IA) ([]*seg.PCB, sim.Time) {
	e := s.snaps[s.ShardOf(dst)].Load().entry(pairKey{src: src, dst: dst})
	if now < e.minExpiry {
		return e.segs, e.minExpiry
	}
	// Some segment expired since publication, or none is served: filter a
	// copy.
	var out []*seg.PCB
	min := sim.Time(0)
	for _, p := range e.segs {
		if p.Expired(now) {
			continue
		}
		if min == 0 || p.Info.Expiry < min {
			min = p.Info.Expiry
		}
		out = append(out, p)
	}
	return out, min
}

// RevokeLink hides every stored segment traversing link until the
// revocation lapses (now+ttl; ttl <= 0 uses the configured default) or
// the link is explicitly reinstated. Affected shards are republished
// immediately — revocation freshness does not wait for the next batch
// publication — and caches holding affected pairs are invalidated.
// Returns the number of pairs whose reply changed. Writer context only.
func (s *Service) RevokeLink(now sim.Time, link seg.LinkKey, ttl sim.Time) int {
	if ttl <= 0 {
		ttl = s.revTTL
	}
	exp, had := now+ttl, len(s.revoked)
	if cur, ok := s.revoked[link]; !ok || exp > cur {
		s.revoked[link] = exp
	}
	s.Revocations++
	s.cRev.Inc()
	s.trace(telemetry.PathRevoked, link.IA.Uint64(), uint64(link.If), 0, "serve")
	// Count the link only when it is new to the set, not on an extended TTL.
	mask := s.touch(link, int32(len(s.revoked)-had))
	if mask == 0 {
		return 0
	}
	return s.publish(now, s.dirty|mask, "revoke", s.cInvRevoke)
}

// ReinstateLink lifts a revocation early (the link healed) and
// republishes the affected shards. Writer context only.
func (s *Service) ReinstateLink(now sim.Time, link seg.LinkKey) int {
	if _, ok := s.revoked[link]; !ok {
		return 0
	}
	delete(s.revoked, link)
	s.Reinstatements++
	s.cRein.Inc()
	s.trace(telemetry.PathReinstated, link.IA.Uint64(), uint64(link.If), 0, "serve")
	mask := s.touch(link, -1)
	if mask == 0 {
		return 0
	}
	return s.publish(now, s.dirty|mask, "reinstate", s.cInvRetire)
}

// Publish applies the accumulated registration batch (and any lapsed
// revocations) by republishing every affected shard. A no-op when
// nothing changed. Writer context only.
func (s *Service) Publish(now sim.Time) int {
	shards := s.dirty | s.expireRevocations(now)
	// Shards whose published snapshot now contains dead segments need a
	// pruning rebuild even without new registrations.
	for sh := uint32(0); sh < s.nshards; sh++ {
		if snap := s.snaps[sh].Load(); snap.minExpiry > 0 && now >= snap.minExpiry {
			shards |= 1 << sh
		}
	}
	if shards == 0 {
		return 0
	}
	return s.publish(now, shards, "publish", s.cInvPublish)
}

// expireRevocations lifts the revocations whose TTL passed, in link order
// for a deterministic trace, and returns the shards to republish.
func (s *Service) expireRevocations(now sim.Time) (shards uint64) {
	var lapsed []seg.LinkKey
	for lk, exp := range s.revoked {
		if now >= exp {
			lapsed = append(lapsed, lk)
		}
	}
	slices.SortFunc(lapsed, compareLinks)
	for _, lk := range lapsed {
		delete(s.revoked, lk)
		s.Reinstatements++
		s.cRein.Inc()
		shards |= s.touch(lk, -1)
		s.trace(telemetry.PathReinstated, lk.IA.Uint64(), uint64(lk.If), 0, "lapse")
	}
	return shards
}

// publish rebuilds the given shards, swaps their snapshots under a new
// epoch, and invalidates cached pairs whose reply changed.
func (s *Service) publish(now sim.Time, shards uint64, reason string, invCell *telemetry.Cell) int {
	s.epoch++
	s.Publishes++
	s.cPub.Inc()
	var changed []pairKey
	for sh := uint32(0); sh < s.nshards; sh++ {
		if shards&(1<<sh) == 0 {
			continue
		}
		changed = s.rebuild(sh, now, changed)
		s.PublishedShards++
		s.trace(telemetry.SnapshotPublished, uint64(sh), s.epoch,
			uint64(s.snaps[sh].Load().live), reason)
	}
	s.dirty = 0
	if s.dead > len(s.segs)/2 {
		s.reindex()
	}
	if len(changed) > 0 {
		s.invalidate(changed, invCell)
	}
	return len(changed)
}

// rebuild constructs shard sh's new snapshot: the touched pairs are
// recomputed from the master copy, hiding revoked segments, and every other
// entry is copied from the old snapshot by slot; every pair whose visible
// path set changed is appended to changed. With registrations pending or a
// master segment expired, all are touched: expired segments are pruned
// from the master copy for good, and the pairs keep the old index only when
// the master copy holds exactly its keys. Expiries and revocations are read
// from the segments' states, by id.
func (s *Service) rebuild(sh uint32, now sim.Time, changed []pairKey) []pairKey {
	old, master := s.snaps[sh].Load(), s.master[sh]
	snap := &snapshot{epoch: s.epoch, keys: old.keys, at: old.at}
	recompute := func(pm *pairMaster, prev pairEntry) {
		// The snapshot must own its slice: master backing arrays are
		// mutated in place by later upserts and prunes while old
		// snapshots may still be read concurrently.
		visible := make([]*seg.PCB, 0, len(pm.segs))
		var min sim.Time
		for i, id := range pm.ids {
			if st := &s.segs[id]; st.revoked == 0 {
				if len(visible) == 0 || st.expiry < min {
					min = st.expiry
				}
				visible = append(visible, pm.segs[i])
			}
		}
		snap.entries[pm.slot] = pairEntry{segs: visible, minExpiry: min}
		if !samePathSet(prev.segs, visible) {
			changed = append(changed, pm.key)
		}
	}
	touched := s.touched[sh]
	s.touched[sh] = touched[:0]
	if s.dirty&(1<<sh) != 0 || now >= s.masterMin[sh] {
		// Prune expired segments from the master copy in place; they can
		// never come back. Before masterMin there are none.
		var masterMin sim.Time
		held := 0 // master pairs at their slot of the old index
		for key, pm := range master {
			live, ids := pm.segs[:0], pm.ids[:0]
			for i, id := range pm.ids {
				if exp := s.segs[id].expiry; now < exp {
					live, ids = append(live, pm.segs[i]), append(ids, id)
					if masterMin == 0 || exp < masterMin {
						masterMin = exp
					}
				}
			}
			s.dead += len(pm.ids) - len(ids)
			pm.segs, pm.ids = live, ids
			if len(pm.segs) == 0 {
				// Dead ids name pm until the next reindex: touch lists it,
				// rebuild skips it.
				delete(master, key)
				pm.slot = -1
				if len(old.entry(key).segs) > 0 {
					changed = append(changed, key)
				}
			} else if int(pm.slot) < len(old.keys) && old.keys[pm.slot] == key {
				held++
			}
		}
		s.masterMin[sh] = masterMin
		if held != len(master) || held != len(old.keys) {
			snap.keys = sortedPairs(master)
			snap.at = make(map[packedPair]int32, len(snap.keys))
			for i, key := range snap.keys {
				snap.at[key.packed()] = int32(i)
				master[key].slot = int32(i)
			}
		}
		snap.entries = make([]pairEntry, len(snap.keys))
		for _, pm := range master {
			recompute(pm, old.entry(pm.key))
		}
	} else {
		// A pair touched twice is compared with its first recomputation,
		// so it counts as changed once.
		snap.entries = slices.Clone(old.entries)
		for _, pm := range touched {
			if pm.slot >= 0 {
				recompute(pm, snap.entries[pm.slot])
			}
		}
	}
	for _, e := range snap.entries {
		if len(e.segs) > 0 {
			snap.live++
			if snap.minExpiry == 0 || e.minExpiry < snap.minExpiry {
				snap.minExpiry = e.minExpiry
			}
		}
	}
	s.snaps[sh].Store(snap)
	return changed
}

// samePathSet reports whether two canonical-ordered replies describe the
// same set of paths (expiry refreshes do not count as a change: a cached
// older reply remains correct until its own segments expire).
func samePathSet(a, b []*seg.PCB) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] && a[i].HopsKey() != b[i].HopsKey() {
			return false
		}
	}
	return true
}

// invalidate evicts the changed pairs from every registered cache, in
// cache registration order.
func (s *Service) invalidate(pairs []pairKey, cell *telemetry.Cell) {
	for _, c := range s.caches {
		for _, k := range pairs {
			if _, ok := c.entries[k]; ok {
				delete(c.entries, k)
				c.Invalidations++
				s.Invalidations++
				cell.Inc()
			}
		}
	}
}

// Digest hashes the full serving state — every shard's snapshot in
// canonical order, plus active revocations — extending the repo's
// fingerprint guarantee to the serving layer. Writer context only.
func (s *Service) Digest() [sha256.Size]byte {
	h := sha256.New()
	for sh := uint32(0); sh < s.nshards; sh++ {
		s.writeShard(h, sh)
	}
	s.writeRevoked(h)
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// writeShard streams shard sh's served pairs in canonical order into h.
func (s *Service) writeShard(h io.Writer, sh uint32) {
	var scratch [8]byte
	w64 := func(v uint64) {
		binary.BigEndian.PutUint64(scratch[:], v)
		h.Write(scratch[:])
	}
	snap := s.snaps[sh].Load()
	w64(uint64(sh))
	w64(snap.epoch)
	for i, k := range snap.keys {
		e := snap.entries[i]
		if len(e.segs) == 0 {
			continue
		}
		w64(k.src.Uint64())
		w64(k.dst.Uint64())
		w64(uint64(e.minExpiry))
		w64(uint64(len(e.segs)))
		for _, p := range e.segs {
			w64(uint64(p.Info.Expiry))
			h.Write([]byte(p.HopsKey()))
		}
	}
}

// writeRevoked streams the active revocations in canonical order into h.
func (s *Service) writeRevoked(h io.Writer) {
	var scratch [8]byte
	w64 := func(v uint64) {
		binary.BigEndian.PutUint64(scratch[:], v)
		h.Write(scratch[:])
	}
	for _, lk := range sortedLinks(s.revoked) {
		w64(lk.IA.Uint64())
		w64(uint64(lk.If))
		w64(uint64(s.revoked[lk]))
	}
}

// comparePairs is the canonical pair order: by dst, then src.
func comparePairs(a, b pairKey) int {
	if a.dst != b.dst {
		return cmp.Compare(a.dst.Uint64(), b.dst.Uint64())
	}
	return cmp.Compare(a.src.Uint64(), b.src.Uint64())
}

// compareLinks is the canonical link order: by IA, then If.
func compareLinks(a, b seg.LinkKey) int {
	return cmp.Or(cmp.Compare(a.IA.Uint64(), b.IA.Uint64()), cmp.Compare(a.If, b.If))
}

// sortedPairs returns m's keys in canonical order.
func sortedPairs(m map[pairKey]*pairMaster) []pairKey {
	keys := make([]pairKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, comparePairs)
	return keys
}

// sortedLinks returns m's keys in canonical order.
func sortedLinks[V any](m map[seg.LinkKey]V) []seg.LinkKey {
	keys := make([]seg.LinkKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, compareLinks)
	return keys
}
