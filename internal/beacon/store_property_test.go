package beacon

import (
	"math/rand"
	"sort"
	"testing"

	"scionmpr/internal/addr"
	"scionmpr/internal/seg"
	"scionmpr/internal/sim"
)

// storeModel is a deliberately naive reference implementation of Store:
// a plain nested map with full recomputation on every query. The real
// store maintains incremental caches (minExpiry lower bound, worst
// eviction candidate, maintained sort order, origin list cache); the
// model re-derives everything from scratch, so any cache-update bug
// shows up as a divergence.
type storeModel struct {
	limit    int
	byOrigin map[addr.IA]map[storeKey]*Entry
}

func newStoreModel(limit int) *storeModel {
	return &storeModel{limit: limit, byOrigin: map[addr.IA]map[storeKey]*Entry{}}
}

// modelWorse reimplements the eviction order independently of worse():
// longer paths first, then earlier expiry, then hop key, then ingress.
func modelWorse(a, b *Entry) bool {
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

// modelLess reimplements the presentation order independently of
// entryLess(): shortest first, then hop key, then ingress.
func modelLess(a, b *Entry) bool {
	if a.PCB.Len() != b.PCB.Len() {
		return a.PCB.Len() < b.PCB.Len()
	}
	if a.PCB.HopsKey() != b.PCB.HopsKey() {
		return a.PCB.HopsKey() < b.PCB.HopsKey()
	}
	return a.Ingress < b.Ingress
}

// dropExpired mirrors the store's sweep trigger points exactly; expired
// entries stay resident (occupying capacity) until one fires.
func (m *storeModel) dropExpired(now sim.Time, origin addr.IA) {
	set := m.byOrigin[origin]
	for k, e := range set {
		if e.PCB.Expired(now) {
			delete(set, k)
		}
	}
}

func (m *storeModel) insert(now sim.Time, p *seg.PCB, ingress addr.IfID) bool {
	if p.Expired(now) {
		return false
	}
	origin := p.Origin()
	set := m.byOrigin[origin]
	if set == nil {
		set = map[storeKey]*Entry{}
		m.byOrigin[origin] = set
	}
	key := entryKey(p, ingress)
	if old, ok := set[key]; ok {
		if p.Info.Expiry > old.PCB.Info.Expiry {
			set[key] = &Entry{PCB: p, Ingress: ingress, ReceivedAt: now}
		}
		return true
	}
	if m.limit > 0 && len(set) >= m.limit {
		m.dropExpired(now, origin)
	}
	if m.limit > 0 && len(set) >= m.limit {
		// Full recomputation of the eviction candidate.
		var worst *Entry
		var worstKey storeKey
		for k, e := range set {
			if worst == nil || modelWorse(e, worst) {
				worst, worstKey = e, k
			}
		}
		better := p.Len() < worst.PCB.Len() ||
			(p.Len() == worst.PCB.Len() && p.Info.Expiry > worst.PCB.Info.Expiry)
		if !better {
			return false
		}
		delete(set, worstKey)
	}
	set[key] = &Entry{PCB: p, Ingress: ingress, ReceivedAt: now}
	return true
}

func (m *storeModel) entries(now sim.Time, origin addr.IA) []*Entry {
	m.dropExpired(now, origin)
	set := m.byOrigin[origin]
	out := make([]*Entry, 0, len(set))
	for _, e := range set {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return modelLess(out[i], out[j]) })
	return out
}

func (m *storeModel) revokeLink(link seg.LinkKey) int {
	dropped := 0
	for origin, set := range m.byOrigin {
		for k, e := range set {
			for _, lk := range e.PCB.Links() {
				if lk == link {
					delete(set, k)
					dropped++
					break
				}
			}
		}
		if len(set) == 0 {
			delete(m.byOrigin, origin)
		}
	}
	return dropped
}

func (m *storeModel) origins() []addr.IA {
	out := make([]addr.IA, 0, len(m.byOrigin))
	for ia, set := range m.byOrigin {
		if len(set) > 0 {
			out = append(out, ia)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

func (m *storeModel) len() int {
	n := 0
	for _, set := range m.byOrigin {
		n += len(set)
	}
	return n
}

// checkCaches compares the store's internal caches with full naive
// recomputation. It does not mutate either side, so lazily-swept
// expired entries survive to exercise InsertPCB's sweep path later.
func checkCaches(t *testing.T, step int, s *Store, m *storeModel) {
	t.Helper()
	if s.Len() != m.len() {
		t.Fatalf("step %d: Len = %d, model %d", step, s.Len(), m.len())
	}
	// Internal cache invariants, recomputed naively per origin.
	for origin, os := range s.byOrigin {
		var naiveWorst *Entry
		minExp := maxTime
		for _, e := range os.m {
			if naiveWorst == nil || modelWorse(e, naiveWorst) {
				naiveWorst = e
			}
			if e.PCB.Info.Expiry < minExp {
				minExp = e.PCB.Info.Expiry
			}
		}
		if os.minExpiry > minExp {
			t.Fatalf("step %d: %s: cached minExpiry %v above true minimum %v", step, origin, os.minExpiry, minExp)
		}
		if os.worst != nil && naiveWorst != nil && os.worst != naiveWorst {
			t.Fatalf("step %d: %s: cached worst %v+%d, recomputed %v+%d", step, origin,
				os.worst.PCB.HopsKey(), os.worst.Ingress, naiveWorst.PCB.HopsKey(), naiveWorst.Ingress)
		}
		if os.sorted != nil {
			if len(os.sorted) != len(os.m) {
				t.Fatalf("step %d: %s: maintained order has %d entries, map %d", step, origin, len(os.sorted), len(os.m))
			}
			for i := 1; i < len(os.sorted); i++ {
				if !modelLess(os.sorted[i-1], os.sorted[i]) {
					t.Fatalf("step %d: %s: maintained order violated at %d", step, origin, i)
				}
			}
		}
	}
}

// checkObservables compares every observable of the store with the
// naive model. Entries sweeps lazily on both sides, so this mutates —
// call it sparsely, or the lazy-expiry paths are never exercised.
func checkObservables(t *testing.T, step int, now sim.Time, s *Store, m *storeModel) {
	t.Helper()
	// Observable equivalence, per origin known to either side.
	seen := map[addr.IA]bool{}
	for _, ia := range s.Origins() {
		seen[ia] = true
	}
	for _, ia := range m.origins() {
		seen[ia] = true
	}
	for origin := range seen {
		got := s.Entries(now, origin)
		want := m.entries(now, origin)
		if len(got) != len(want) {
			t.Fatalf("step %d: %s: Entries returned %d, model %d", step, origin, len(got), len(want))
		}
		for i := range want {
			if got[i].PCB != want[i].PCB || got[i].Ingress != want[i].Ingress {
				t.Fatalf("step %d: %s: entry %d differs: %v+%d vs %v+%d", step, origin, i,
					got[i].PCB.HopsKey(), got[i].Ingress, want[i].PCB.HopsKey(), want[i].Ingress)
			}
		}
	}
	// Origins after the Entries sweeps above: both sides canonical.
	gotOrigins, wantOrigins := s.Origins(), m.origins()
	if len(gotOrigins) != len(wantOrigins) {
		t.Fatalf("step %d: Origins = %v, model %v", step, gotOrigins, wantOrigins)
	}
	for i := range wantOrigins {
		if gotOrigins[i] != wantOrigins[i] {
			t.Fatalf("step %d: Origins = %v, model %v", step, gotOrigins, wantOrigins)
		}
	}
}

// TestStorePropertyVsNaiveModel drives randomized operation sequences —
// inserts (fresh paths, duplicate paths, near-expiry beacons), clock
// advances that expire entries and link revocations — through
// the incremental store and the naive model in lockstep.
func TestStorePropertyVsNaiveModel(t *testing.T) {
	origins := []addr.IA{addr.MustIA(1, 100), addr.MustIA(1, 101), addr.MustIA(2, 200)}
	for _, limit := range []int{0, 1, 4} {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			s := NewStore(limit)
			m := newStoreModel(limit)
			now := sim.Time(0)
			steps := 600
			if testing.Short() {
				steps = 150
			}
			for step := 0; step < steps; step++ {
				switch op := rng.Intn(100); {
				case op < 70: // insert
					origin := origins[rng.Intn(len(origins))]
					// Small value spaces force key collisions (dedup),
					// equal-rank ties and eviction races.
					nHops := 1 + rng.Intn(3)
					hops := make([][3]uint64, nHops)
					for i := range hops {
						hops[i] = [3]uint64{uint64(10 + rng.Intn(4)), uint64(rng.Intn(3)), uint64(1 + rng.Intn(3))}
					}
					life := sim.Time(1+rng.Intn(20)) * hour / 10
					p := mkPCB(t, origin, now, life, hops...)
					ingress := addr.IfID(1 + rng.Intn(3))
					got := s.InsertPCB(now, p, ingress).Accepted()
					want := m.insert(now, p, ingress)
					if got != want {
						t.Fatalf("limit=%d seed=%d step %d: InsertPCB = %v, model %v (origin %s, %d hops, life %v)",
							limit, seed, step, got, want, origin, nHops, life)
					}
				case op < 85: // advance the clock, expiring beacons
					now += sim.Time(rng.Intn(40)) * hour / 40
				case op < 92: // read one origin (triggers lazy sweeps)
					origin := origins[rng.Intn(len(origins))]
					_ = s.Entries(now, origin)
					_ = m.entries(now, origin)
				default: // revoke a random link
					link := seg.LinkKey{IA: addr.MustIA(1, addr.AS(10+rng.Intn(4))), If: addr.IfID(1 + rng.Intn(3))}
					if got, want := s.RevokeLink(link), m.revokeLink(link); got != want {
						t.Fatalf("limit=%d seed=%d step %d: RevokeLink = %d, model %d", limit, seed, step, got, want)
					}
				}
				checkCaches(t, step, s, m)
				if step%17 == 16 {
					checkObservables(t, step, now, s, m)
				}
			}
			checkObservables(t, steps, now, s, m)
		}
	}
}
