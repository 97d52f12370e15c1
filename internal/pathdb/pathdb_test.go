package pathdb

import (
	"testing"
	"time"

	"scionmpr/internal/addr"
	"scionmpr/internal/seg"
	"scionmpr/internal/sim"
	"scionmpr/internal/trust"
)

const hour = sim.Time(time.Hour)

type fakeSigner struct{ ia addr.IA }

func (f fakeSigner) IA() addr.IA                 { return f.ia }
func (f fakeSigner) Sign([]byte) ([]byte, error) { return make([]byte, trust.SignatureLen), nil }

func mkSeg(t testing.TB, origin addr.IA, ts sim.Time, hops ...uint64) *seg.PCB {
	t.Helper()
	p := seg.NewPCB(origin, 1, ts, 6*hour)
	var err error
	for i, h := range hops {
		egress := addr.IfID(2)
		if i == len(hops)-1 {
			egress = 0 // terminated
		}
		ingress := addr.IfID(1)
		if i == 0 {
			ingress = 0
		}
		p, err = p.Extend(fakeSigner{ia: addr.MustIA(1, addr.AS(h))}, addr.IA{}, ingress, egress, nil, 1472)
		if err != nil {
			t.Fatal(err)
		}
	}
	return p
}

var (
	core1 = addr.MustIA(1, 10)
	leafA = addr.MustIA(1, 30)
)

func TestRegisterAndLookupDown(t *testing.T) {
	s := NewServer(core1, true, hour)
	sg := mkSeg(t, core1, 0, 10, 20, 30)
	if err := s.RegisterDown(0, sg); err != nil {
		t.Fatal(err)
	}
	got := s.LookupDown(0, leafA)
	if len(got) != 1 {
		t.Fatalf("lookup = %d segments", len(got))
	}
	if got[0].Leaf() != leafA {
		t.Errorf("leaf = %v", got[0].Leaf())
	}
	if dsts := s.DownDestinations(); len(dsts) != 1 || dsts[0] != leafA {
		t.Errorf("destinations = %v", dsts)
	}
}

func TestRegisterDownRequiresCore(t *testing.T) {
	s := NewServer(leafA, false, hour)
	if err := s.RegisterDown(0, mkSeg(t, core1, 0, 10, 30)); err == nil {
		t.Error("non-core server accepted registration")
	}
}

func TestRegisterExpiredRejected(t *testing.T) {
	s := NewServer(core1, true, hour)
	sg := mkSeg(t, core1, 0, 10, 30)
	if err := s.RegisterDown(7*hour, sg); err == nil {
		t.Error("expired segment registered")
	}
	if err := s.RegisterCore(7*hour, sg); err == nil {
		t.Error("expired core segment registered")
	}
	if err := s.RegisterUp(7*hour, sg); err == nil {
		t.Error("expired up segment registered")
	}
}

func TestReregistrationRefreshes(t *testing.T) {
	s := NewServer(core1, true, 0) // no cache, direct view
	old := mkSeg(t, core1, 0, 10, 20, 30)
	if err := s.RegisterDown(0, old); err != nil {
		t.Fatal(err)
	}
	fresh := mkSeg(t, core1, 2*hour, 10, 20, 30)
	if err := s.RegisterDown(2*hour, fresh); err != nil {
		t.Fatal(err)
	}
	got := s.LookupDown(2*hour, leafA)
	if len(got) != 1 {
		t.Fatalf("re-registration duplicated: %d", len(got))
	}
	if got[0].Info.Expiry != fresh.Info.Expiry {
		t.Error("re-registration did not refresh expiry")
	}
}

func TestDeregister(t *testing.T) {
	s := NewServer(core1, true, 0)
	sg := mkSeg(t, core1, 0, 10, 20, 30)
	s.RegisterDown(0, sg)
	if !s.Deregister(sg) {
		t.Fatal("deregister failed")
	}
	if s.Deregister(sg) {
		t.Error("double deregister succeeded")
	}
	if got := s.LookupDown(0, leafA); len(got) != 0 {
		t.Errorf("segments after deregister: %d", len(got))
	}
}

// TestRepliesAreNeverEdited pins that the server never edits a list it
// has handed out: deregistering each segment while ranging over a lookup
// reply removes all of them, and a reply held across later registrations
// keeps its contents.
func TestRepliesAreNeverEdited(t *testing.T) {
	s := NewServer(core1, true, hour)
	for _, mid := range []uint64{20, 21, 22} {
		if err := s.RegisterDown(0, mkSeg(t, core1, 0, 10, mid, 30)); err != nil {
			t.Fatal(err)
		}
	}
	for _, sg := range s.LookupDown(0, leafA) {
		if !s.Deregister(sg) {
			t.Errorf("deregister %v failed", sg)
		}
	}
	if got := s.LookupDown(0, leafA); len(got) != 0 {
		t.Errorf("lookup after deregistering every segment = %v", keysOf(got))
	}

	for _, mid := range []uint64{20, 21, 22} {
		s.RegisterDown(0, mkSeg(t, core1, 0, 10, mid, 30))
	}
	s.Deregister(mkSeg(t, core1, 0, 10, 20, 30))
	held := s.LookupDown(0, leafA)
	want := keysOf(held)
	s.RegisterDown(0, mkSeg(t, core1, 0, 10, 30)) // shorter: sorts first
	s.RegisterDown(0, mkSeg(t, core1, 0, 10, 20, 30))
	if got := keysOf(held); !sameKeys(got, want) {
		t.Errorf("held reply changed under registration: %v, want %v", got, want)
	}
}

func TestLookupFiltersExpired(t *testing.T) {
	s := NewServer(core1, true, 0)
	s.RegisterDown(0, mkSeg(t, core1, 0, 10, 20, 30))
	if got := s.LookupDown(7*hour, leafA); len(got) != 0 {
		t.Error("expired segment served")
	}
}

func TestLookupCoreAndUp(t *testing.T) {
	s := NewServer(core1, true, hour)
	cs := mkSeg(t, addr.MustIA(2, 99), 0, 99, 10)
	if err := s.RegisterCore(0, cs); err != nil {
		t.Fatal(err)
	}
	if got := s.LookupCore(0, addr.MustIA(2, 99)); len(got) != 1 {
		t.Fatalf("core lookup = %d", len(got))
	}
	local := NewServer(leafA, false, hour)
	up := mkSeg(t, core1, 0, 10, 20, 30)
	if err := local.RegisterUp(0, up); err != nil {
		t.Fatal(err)
	}
	if got := local.LookupUp(0); len(got) != 1 {
		t.Fatalf("up lookup = %d", len(got))
	}
}

func TestCacheHits(t *testing.T) {
	s := NewServer(core1, true, hour)
	s.RegisterDown(0, mkSeg(t, core1, 0, 10, 20, 30))
	s.LookupDown(0, leafA)                        // miss, fills cache
	s.LookupDown(30*sim.Time(time.Minute), leafA) // hit
	if s.CacheHits != 1 {
		t.Errorf("cache hits = %d, want 1", s.CacheHits)
	}
	// After TTL the entry expires.
	s.LookupDown(3*hour, leafA)
	if s.CacheHits != 1 {
		t.Errorf("cache hits after TTL = %d, want still 1", s.CacheHits)
	}
}

func TestRevoke(t *testing.T) {
	s := NewServer(core1, true, hour)
	affected := mkSeg(t, core1, 0, 10, 20, 30)
	clean := mkSeg(t, core1, 0, 10, 40, 30)
	s.RegisterDown(0, affected)
	s.RegisterDown(0, clean)
	s.LookupDown(0, leafA) // warm cache

	// Revoke the link 1-20#2 (AS 20's egress), only on 'affected'.
	dropped := s.Revoke(seg.LinkKey{IA: addr.MustIA(1, 20), If: 2})
	if dropped != 1 {
		t.Fatalf("dropped = %d, want 1", dropped)
	}
	got := s.LookupDown(0, leafA)
	if len(got) != 1 || got[0].HopsKey() != clean.HopsKey() {
		t.Errorf("post-revocation lookup = %v", got)
	}
	if s.Revocations != 1 {
		t.Errorf("revocations = %d", s.Revocations)
	}
	// Revoking an unknown link drops nothing.
	if n := s.Revoke(seg.LinkKey{IA: addr.MustIA(9, 9), If: 1}); n != 0 {
		t.Errorf("bogus revoke dropped %d", n)
	}
}

// keysOf renders a lookup reply as its ordered hops keys.
func keysOf(segs []*seg.PCB) []string {
	out := make([]string, len(segs))
	for i, p := range segs {
		out[i] = p.HopsKey()
	}
	return out
}

func sameKeys(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestLookupOrderingStable pins the canonical reply order the pathsrv
// snapshot layer must reproduce: fewest hops first, then by hops key,
// independent of registration order.
func TestLookupOrderingStable(t *testing.T) {
	s := NewServer(core1, true, 0)
	// Register out of order: a 4-hop segment, then two 3-hop ones with
	// middle hops that sort in reverse registration order.
	long := mkSeg(t, core1, 0, 10, 20, 25, 30)
	hiMid := mkSeg(t, core1, 0, 10, 90, 30)
	loMid := mkSeg(t, core1, 0, 10, 40, 30)
	for _, sg := range []*seg.PCB{long, hiMid, loMid} {
		if err := s.RegisterDown(0, sg); err != nil {
			t.Fatal(err)
		}
	}
	got := s.LookupDown(0, leafA)
	if len(got) != 3 {
		t.Fatalf("lookup = %d segments", len(got))
	}
	for i := 1; i < len(got); i++ {
		a, b := got[i-1], got[i]
		if a.NumHops() > b.NumHops() ||
			(a.NumHops() == b.NumHops() && a.HopsKey() >= b.HopsKey()) {
			t.Fatalf("reply out of order at %d: %v", i, keysOf(got))
		}
	}
	if got[2] != long {
		t.Error("4-hop segment must sort last")
	}
}

// TestRevokeForReinstatementOrdering is the documented baseline for
// pathsrv snapshot publication: a timed revocation hides exactly the
// affected segments, and once it lapses the original reply — same
// segments, same order — reappears without re-registration.
func TestRevokeForReinstatementOrdering(t *testing.T) {
	s := NewServer(core1, true, 0)
	affected := mkSeg(t, core1, 0, 10, 20, 30)
	clean := mkSeg(t, core1, 0, 10, 40, 30)
	other := mkSeg(t, core1, 0, 10, 20, 25, 30) // also over 1-20#2, 4 hops
	for _, sg := range []*seg.PCB{affected, clean, other} {
		if err := s.RegisterDown(0, sg); err != nil {
			t.Fatal(err)
		}
	}
	before := keysOf(s.LookupDown(0, leafA))
	if len(before) != 3 {
		t.Fatalf("pre-revocation reply = %d segments", len(before))
	}

	link := seg.LinkKey{IA: addr.MustIA(1, 20), If: 2}
	if n := s.RevokeFor(0, link, hour); n != 2 {
		t.Fatalf("RevokeFor hid %d segments, want 2", n)
	}
	if !revokedActive(s, 30*sim.Time(time.Minute), link) {
		t.Error("revocation must be active before its TTL")
	}
	hidden := s.LookupDown(30*sim.Time(time.Minute), leafA)
	if len(hidden) != 1 || hidden[0].HopsKey() != clean.HopsKey() {
		t.Fatalf("mid-revocation reply = %v, want only clean", keysOf(hidden))
	}

	// Past the TTL the revocation lapses on the next lookup; the reply
	// must be byte-identical to the pre-revocation reply, in the same
	// order, with no re-registration in between.
	after := keysOf(s.LookupDown(hour+1, leafA))
	if !sameKeys(before, after) {
		t.Errorf("reinstated reply %v != original %v", after, before)
	}
	if revokedActive(s, hour+1, link) {
		t.Error("revocation still active after TTL")
	}
	if s.Registrations != 3 {
		t.Errorf("reinstatement must not re-register: %d registrations", s.Registrations)
	}
}

// TestReinstatementFlushesCache asserts the cache cannot serve a stale
// mid-revocation reply after the revocation lapses.
func TestReinstatementFlushesCache(t *testing.T) {
	s := NewServer(core1, true, 10*hour)
	affected := mkSeg(t, core1, 0, 10, 20, 30)
	clean := mkSeg(t, core1, 0, 10, 40, 30)
	s.RegisterDown(0, affected)
	s.RegisterDown(0, clean)

	link := seg.LinkKey{IA: addr.MustIA(1, 20), If: 2}
	s.RevokeFor(0, link, hour)
	mid := s.LookupDown(1, leafA) // miss (revocation flushed), caches the hidden view
	if len(mid) != 1 {
		t.Fatalf("mid-revocation reply = %d segments", len(mid))
	}
	if got := s.LookupDown(2, leafA); len(got) != 1 {
		t.Fatalf("cached mid-revocation reply = %d segments", len(got))
	}
	hits := s.CacheHits
	if hits == 0 {
		t.Fatal("second mid-revocation lookup must hit the cache")
	}
	// Lapse: the flush must evict the 1-segment entry.
	after := s.LookupDown(hour+1, leafA)
	if len(after) != 2 {
		t.Fatalf("post-reinstatement reply = %d segments, want 2", len(after))
	}
	if s.CacheHits != hits {
		t.Error("post-reinstatement lookup served from the stale cache")
	}
}

// TestReregistrationKeepsOrder checks that refreshing a segment's expiry
// in place does not disturb the sorted stored list.
func TestReregistrationKeepsOrder(t *testing.T) {
	s := NewServer(core1, true, 0)
	a := mkSeg(t, core1, 0, 10, 20, 30)
	b := mkSeg(t, core1, 0, 10, 40, 30)
	s.RegisterDown(0, a)
	s.RegisterDown(0, b)
	before := keysOf(s.LookupDown(0, leafA))
	fresh := mkSeg(t, core1, 2*hour, 10, 20, 30)
	if err := s.RegisterDown(2*hour, fresh); err != nil {
		t.Fatal(err)
	}
	after := keysOf(s.LookupDown(2*hour, leafA))
	if !sameKeys(before, after) {
		t.Errorf("re-registration reordered the reply: %v -> %v", before, after)
	}
}

func TestCacheDisabled(t *testing.T) {
	c := NewCache(0)
	if _, ok := c.Get(0, cacheKey{typ: Down, dst: leafA}); ok {
		t.Error("disabled cache returned a hit")
	}
	c.Put(0, cacheKey{typ: Down, dst: leafA}, nil)
	if len(c.entries) != 0 {
		t.Error("disabled cache stored an entry")
	}
}

func TestZipfWorkload(t *testing.T) {
	dsts := make([]addr.IA, 100)
	for i := range dsts {
		dsts[i] = addr.MustIA(1, addr.AS(i+1))
	}
	w := NewZipfWorkload(dsts, 1.2, 42)
	counts := map[addr.IA]int{}
	for i := 0; i < 5000; i++ {
		counts[w.Next()]++
	}
	// The most popular destination must dominate the tail.
	if counts[dsts[0]] < 10*counts[dsts[99]]+1 {
		t.Errorf("Zipf skew too weak: head=%d tail=%d", counts[dsts[0]], counts[dsts[99]])
	}
	// Empty workload is safe.
	empty := NewZipfWorkload(nil, 1.2, 1)
	if !empty.Next().IsZero() {
		t.Error("empty workload must return zero IA")
	}
}

// revokedActive reports whether a revocation on link is in force at now.
func revokedActive(s *Server, now sim.Time, link seg.LinkKey) bool {
	exp, ok := s.revoked[link]
	return ok && now < exp
}

// TestRevocationRecency pins the path-selection recency signal: the
// record is permanent history, independent of whether the revocation is
// still active, and a later revocation of the same link replaces it.
func TestRevocationRecency(t *testing.T) {
	s := NewServer(core1, true, hour)
	linkA := seg.LinkKey{IA: addr.MustIA(1, 20), If: 2}
	linkB := seg.LinkKey{IA: addr.MustIA(1, 40), If: 2}

	if _, ok := s.LastRevocation(linkA); ok {
		t.Error("LastRevocation reported a record before any revocation")
	}
	s.RevokeFor(5, linkA, sim.Time(time.Second))
	s.RevokeFor(8, linkB, sim.Time(time.Second))
	if at, ok := s.LastRevocation(linkA); !ok || at != 5 {
		t.Errorf("LastRevocation(linkA) = %v, %v, want 5, true", at, ok)
	}
	// History outlives the revocation TTL.
	later := sim.Time(time.Minute)
	s.LookupDown(later, leafA)
	if revokedActive(s, later, linkB) {
		t.Error("revocation still active past its TTL")
	}
	if at, ok := s.LastRevocation(linkB); !ok || at != 8 {
		t.Errorf("LastRevocation(linkB) after lapse = %v, %v, want 8, true", at, ok)
	}
	s.RevokeFor(later, linkB, sim.Time(time.Second))
	if at, _ := s.LastRevocation(linkB); at != later {
		t.Errorf("LastRevocation(linkB) after a new revocation = %v, want %v", at, later)
	}
}
