// Package beacon implements SCION beacon servers: PCB origination,
// reception, storage, and interval-driven propagation for both levels of
// the routing hierarchy — selective flooding among core ASes (core
// beaconing) and uni-directional dissemination down the provider-customer
// hierarchy (intra-ISD beaconing), paper §2.2 and §4.1. PCB selection is
// delegated to a core.Selector (baseline or path-diversity algorithm).
package beacon

import (
	"math"
	"sort"

	"scionmpr/internal/addr"
	"scionmpr/internal/seg"
	"scionmpr/internal/sim"
)

// Entry is one stored beacon plus the ingress interface it arrived on
// (needed to build the local AS entry when propagating).
type Entry struct {
	PCB     *seg.PCB
	Ingress addr.IfID
	// ReceivedAt is when the beacon server stored this instance.
	ReceivedAt sim.Time
}

// Store holds received PCBs grouped by origin AS, bounded by the paper's
// "PCB storage limit, the maximum number of PCBs per origin AS to store at
// each beacon server" (§5.1). A newer instance of an already-stored path
// (same hop sequence and ingress) replaces the old one without consuming
// extra capacity. Limit <= 0 means unlimited (the paper's "∞" curves).
type Store struct {
	Limit    int
	byOrigin map[addr.IA]*originSet
	// origins caches the sorted non-empty origin list (nil = recompute);
	// propagation asks for it every tick but it only changes when an
	// origin appears or runs dry.
	origins []addr.IA
	// arena chunk-allocates entries and free recycles evicted slots, so
	// steady-state insert/evict churn costs one allocation per 64 entries
	// instead of one each — and the GC scans flat chunks, not a pointer
	// graph of individual entries.
	arena []Entry
	free  []*Entry
}

// originSet is one origin's entries plus the bookkeeping that keeps the
// full-store InsertPCB path off O(Limit) map scans: a lower bound on the
// earliest stored expiry (no expired-entry sweep can succeed before it)
// and a cached worst entry (eviction candidate; nil = recompute).
// Both exploit that a stored entry's expiry only ever increases (in-place
// refresh of the same path), which can never make its eviction rank
// (worse) overtake the cached worst; the one case where the rank of the
// cached worst itself changes is handled by invalidating it.
type originSet struct {
	m         map[storeKey]*Entry
	minExpiry sim.Time
	worst     *Entry
	worstKey  storeKey
	// sorted mirrors m in Entries order (hops ascending, then hop key,
	// then ingress), maintained incrementally so the per-tick Entries
	// call is O(1) instead of a sort. nil = rebuild on demand.
	sorted []*Entry
}

const maxTime = sim.Time(math.MaxInt64)

// NewStore creates a store with the given per-origin limit.
func NewStore(limit int) *Store {
	return &Store{Limit: limit, byOrigin: map[addr.IA]*originSet{}}
}

// storeKey identifies a stored path: the hop sequence plus the arrival
// interface. The hops string is the PCB's cached HopsKey, so building a
// key allocates nothing (unlike the HopsKeyVia concatenation).
type storeKey struct {
	hops    string
	ingress addr.IfID
}

func entryKey(p *seg.PCB, ingress addr.IfID) storeKey {
	return storeKey{hops: p.HopsKey(), ingress: ingress}
}

// InsertResult reports what Insert did with a beacon. Outcomes where the
// presented PCB itself was not retained (everything except Stored and
// Refreshed) let the caller recycle the beacon's buffers.
type InsertResult uint8

const (
	// Stored: the beacon now occupies a new store entry.
	Stored InsertResult = iota
	// Refreshed: a newer instance of an already-stored path replaced the
	// old instance in place.
	Refreshed
	// DupStale: an instance of this path with an equal-or-later expiry is
	// already stored; the presented beacon was dropped (not a rejection —
	// the path is represented).
	DupStale
	// DropExpired: dead on arrival.
	DropExpired
	// DropWorse: the per-origin budget is full of entries at least as
	// good.
	DropWorse
)

// Accepted reports whether the path is represented in the store after
// the call.
func (r InsertResult) Accepted() bool { return r <= DupStale }

// InsertPCB stores a received beacon and reports the precise outcome.
// "Better" prefers shorter paths, then later expiry, matching the
// baseline's path-length orientation while keeping fresh instances alive
// for the diversity algorithm.
func (s *Store) InsertPCB(now sim.Time, p *seg.PCB, ingress addr.IfID) InsertResult {
	if p.Expired(now) {
		return DropExpired
	}
	origin := p.Origin()
	os := s.byOrigin[origin]
	if os == nil {
		os = &originSet{m: map[storeKey]*Entry{}, minExpiry: maxTime}
		s.byOrigin[origin] = os
	}
	wasEmpty := len(os.m) == 0
	key := entryKey(p, ingress)
	if old, ok := os.m[key]; ok {
		// Same path: keep the instance with the later expiry. The sort
		// position is keyed on hops+ingress, both equal, so the refresh
		// mutates the entry in place — the steady-state hot path of
		// re-originated beacons costs no allocation and no map write.
		if p.Info.Expiry <= old.PCB.Info.Expiry {
			return DupStale
		}
		if old == os.worst {
			os.worst = nil // rank changed; recompute on demand
		}
		old.PCB, old.ReceivedAt = p, now
		os.noteInsert(old, key)
		return Refreshed
	}
	if s.Limit > 0 && len(os.m) >= s.Limit && now >= os.minExpiry {
		// Evict expired entries; only reachable once something can
		// actually have expired, so the steady state never scans here.
		os.sweep(s, now)
	}
	if s.Limit > 0 && len(os.m) >= s.Limit {
		// Replace the worst stored entry if the new beacon beats it.
		if os.worst == nil {
			os.findWorst()
		}
		if os.worst == nil || !betterPCB(p, os.worst.PCB) {
			return DropWorse
		}
		delete(os.m, os.worstKey)
		os.removeSorted(os.worst)
		s.release(os.worst)
		os.worst = nil
	}
	e := s.alloc(Entry{PCB: p, Ingress: ingress, ReceivedAt: now})
	os.m[key] = e
	os.insertSorted(e)
	os.noteInsert(e, key)
	if wasEmpty {
		s.origins = nil // a new origin became visible
	}
	return Stored
}

// alloc hands out an entry slot from the free list or the arena.
func (s *Store) alloc(v Entry) *Entry {
	if n := len(s.free); n > 0 {
		e := s.free[n-1]
		s.free = s.free[:n-1]
		*e = v
		return e
	}
	if len(s.arena) == 0 {
		s.arena = make([]Entry, 64)
	}
	e := &s.arena[0]
	s.arena = s.arena[1:]
	*e = v
	return e
}

// release returns an evicted entry's slot to the free list. Callers must
// have removed it from the origin's map and sorted order first.
func (s *Store) release(e *Entry) {
	*e = Entry{} // drop the PCB reference
	s.free = append(s.free, e)
}

// entryLess is the Entries presentation order: shortest paths first,
// then hop key, then ingress — a strict total order over stored entries
// (hops+ingress is the map key).
func entryLess(a, b *Entry) bool {
	if a.PCB.Len() != b.PCB.Len() {
		return a.PCB.Len() < b.PCB.Len()
	}
	ka, kb := a.PCB.HopsKey(), b.PCB.HopsKey()
	if ka != kb {
		return ka < kb
	}
	return a.Ingress < b.Ingress
}

// sortedIndex returns the position of (an entry ordering equal to) e in
// the sorted slice.
func (os *originSet) sortedIndex(e *Entry) int {
	return sort.Search(len(os.sorted), func(i int) bool { return !entryLess(os.sorted[i], e) })
}

// insertSorted places a newly stored entry into the maintained order; a
// nil slice stays nil (rebuilt lazily by Entries).
func (os *originSet) insertSorted(e *Entry) {
	if os.sorted == nil {
		return
	}
	i := os.sortedIndex(e)
	os.sorted = append(os.sorted, nil)
	copy(os.sorted[i+1:], os.sorted[i:])
	os.sorted[i] = e
}

// removeSorted drops an evicted entry from the maintained order.
func (os *originSet) removeSorted(e *Entry) {
	if os.sorted == nil {
		return
	}
	if i := os.sortedIndex(e); i < len(os.sorted) && os.sorted[i] == e {
		os.sorted = append(os.sorted[:i], os.sorted[i+1:]...)
		return
	}
	os.sorted = nil // inconsistent; rebuild lazily
}

// rebuildSorted recomputes the maintained order from scratch.
func (os *originSet) rebuildSorted() {
	os.sorted = make([]*Entry, 0, len(os.m))
	for _, e := range os.m {
		os.sorted = append(os.sorted, e)
	}
	sort.Slice(os.sorted, func(i, j int) bool { return entryLess(os.sorted[i], os.sorted[j]) })
}

// noteInsert maintains the cached bounds for a newly stored entry.
func (os *originSet) noteInsert(e *Entry, key storeKey) {
	if e.PCB.Info.Expiry < os.minExpiry {
		os.minExpiry = e.PCB.Info.Expiry
	}
	if os.worst != nil && worse(e, os.worst) {
		os.worst, os.worstKey = e, key
	}
}

// sweep deletes expired entries, releasing their slots, and recomputes
// the exact bounds.
func (os *originSet) sweep(s *Store, now sim.Time) {
	os.minExpiry = maxTime
	os.worst = nil
	os.sorted = nil // rebuilt lazily by Entries
	for k, e := range os.m {
		if e.PCB.Expired(now) {
			delete(os.m, k)
			s.release(e)
			continue
		}
		if e.PCB.Info.Expiry < os.minExpiry {
			os.minExpiry = e.PCB.Info.Expiry
		}
		if os.worst == nil || worse(e, os.worst) {
			os.worst, os.worstKey = e, k
		}
	}
}

// findWorst recomputes the cached eviction candidate.
func (os *originSet) findWorst() {
	os.worst = nil
	for k, e := range os.m {
		if os.worst == nil || worse(e, os.worst) {
			os.worst, os.worstKey = e, k
		}
	}
}

// worse orders entries for eviction: longer paths first, then earlier
// expiry, then hop key, then ingress. The order is strict and total over
// stored entries (hops+ingress is the map key), so the eviction choice
// never depends on map iteration order.
func worse(a, b *Entry) bool {
	if a.PCB.Len() != b.PCB.Len() {
		return a.PCB.Len() > b.PCB.Len()
	}
	if a.PCB.Info.Expiry != b.PCB.Info.Expiry {
		return a.PCB.Info.Expiry < b.PCB.Info.Expiry
	}
	if a.PCB.HopsKey() != b.PCB.HopsKey() {
		return a.PCB.HopsKey() > b.PCB.HopsKey()
	}
	return a.Ingress > b.Ingress
}

func betterPCB(p *seg.PCB, worst *seg.PCB) bool {
	if p.Len() != worst.Len() {
		return p.Len() < worst.Len()
	}
	return p.Info.Expiry > worst.Info.Expiry
}

// Origins lists origin ASes with stored beacons, sorted. The returned
// slice is shared (valid until the next store mutation); callers must not
// modify it.
func (s *Store) Origins() []addr.IA {
	if s.origins == nil {
		out := make([]addr.IA, 0, len(s.byOrigin))
		for ia, os := range s.byOrigin {
			if len(os.m) > 0 {
				out = append(out, ia)
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
		s.origins = out
	}
	return s.origins
}

// Entries returns the valid stored entries of one origin in deterministic
// order (shortest first, then hop key, then ingress). Expired entries are
// swept out on the way — callers only ever saw live entries, so dropping
// the dead ones eagerly changes nothing observable. The returned slice is
// shared (valid until the next store mutation); callers must not modify it.
func (s *Store) Entries(now sim.Time, origin addr.IA) []*Entry {
	os := s.byOrigin[origin]
	if os == nil || len(os.m) == 0 {
		return nil
	}
	if now >= os.minExpiry {
		os.sweep(s, now)
		if len(os.m) == 0 {
			s.origins = nil // the origin ran dry
			return nil
		}
	}
	if os.sorted == nil {
		os.rebuildSorted()
	}
	return os.sorted
}

// PCBs returns just the PCBs of Entries.
func (s *Store) PCBs(now sim.Time, origin addr.IA) []*seg.PCB {
	entries := s.Entries(now, origin)
	out := make([]*seg.PCB, len(entries))
	for i, e := range entries {
		out[i] = e.PCB
	}
	return out
}

// RevokeLink drops every stored beacon whose path contains the given
// link and returns the number of beacons removed — the beacon-server
// side of the paper's path revocation (§4.1): the AS owning the failed
// link revokes affected segments so they are neither used nor propagated
// further.
func (s *Store) RevokeLink(link seg.LinkKey) int {
	dropped := 0
	for origin, os := range s.byOrigin {
		for k, e := range os.m {
			for _, lk := range e.PCB.Links() {
				if lk == link {
					delete(os.m, k)
					os.removeSorted(e)
					if e == os.worst {
						os.worst = nil
					}
					s.release(e)
					dropped++
					break
				}
			}
		}
		if len(os.m) == 0 {
			delete(s.byOrigin, origin)
		}
	}
	if dropped > 0 {
		s.origins = nil
	}
	return dropped
}

// Len returns the total number of stored beacons.
func (s *Store) Len() int {
	n := 0
	for _, os := range s.byOrigin {
		n += len(os.m)
	}
	return n
}
