// Path-database tests of the SCION path-server infrastructure (paper
// §2.2 registration and de-registration, §4.1 lookup, caching and
// revocation) through the one path server that holds it: pathsrv.Service
// stores, orders, expires and revokes the segments, and Network's
// PathServer role views answer each AS's up-, down- and core-segment
// lookups from it.

package scion_test

import (
	"testing"
	"time"

	"scionmpr/internal/addr"
	"scionmpr/internal/dataplane"
	"scionmpr/internal/pathsrv"
	"scionmpr/internal/seg"
	"scionmpr/internal/sim"
	"scionmpr/internal/topology"
	"scionmpr/internal/trust"
	"scionmpr/scion"
)

const hour = sim.Time(time.Hour)

type fakeSigner struct{ ia addr.IA }

func (f fakeSigner) IA() addr.IA                 { return f.ia }
func (f fakeSigner) Sign([]byte) ([]byte, error) { return make([]byte, trust.SignatureLen), nil }

// mkSeg builds a terminated segment over the given AS path (ISD 1),
// originated at the first hop and expiring 6 hours after ts.
func mkSeg(t testing.TB, ts sim.Time, hops ...uint64) *seg.PCB {
	t.Helper()
	p := seg.NewPCB(addr.MustIA(1, addr.AS(hops[0])), 1, ts, 6*hour)
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
	// link20 is AS 20's egress, crossed by every segment through AS 20.
	link20 = seg.LinkKey{IA: addr.MustIA(1, 20), If: 2}
)

// register registers segs at now and publishes them.
func register(t testing.TB, s *pathsrv.Service, now sim.Time, segs ...*seg.PCB) {
	t.Helper()
	for _, p := range segs {
		if err := s.Register(now, p); err != nil {
			t.Fatal(err)
		}
	}
	s.Publish(now)
}

// lookupDown answers the down-segments from core1 to leafA.
func lookupDown(s *pathsrv.Service, now sim.Time) []*seg.PCB {
	segs, _ := s.Lookup(now, core1, leafA)
	return segs
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

// demoNet bootstraps the demo network and returns it with a control-plane
// instant inside every segment's lifetime.
func demoNet(t *testing.T) (*scion.Network, sim.Time) {
	t.Helper()
	opts := scion.DefaultOptions()
	n, err := scion.NewNetwork(topology.Demo(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return n, sim.Time(opts.BeaconingTime + time.Second)
}

func TestRegisterAndLookupDown(t *testing.T) {
	s := pathsrv.New(pathsrv.Config{})
	sg := mkSeg(t, 0, 10, 20, 30)
	register(t, s, 0, sg)
	got := lookupDown(s, 0)
	if len(got) != 1 || got[0] != sg {
		t.Fatalf("lookup = %v", keysOf(got))
	}
	if got[0].Leaf() != leafA {
		t.Errorf("leaf = %v", got[0].Leaf())
	}
	if other, _ := s.Lookup(0, leafA, core1); len(other) != 0 {
		t.Errorf("reverse pair served %v", keysOf(other))
	}
}

// TestRegisterDownRequiresCore pins the roles of the per-AS path
// servers: only a core AS serves down-segments (those of its ISD's
// leaves) and core-segments; a leaf AS serves its own up-segments.
func TestRegisterDownRequiresCore(t *testing.T) {
	n, now := demoNet(t)
	cores := n.Topo.CoreIAs()
	for _, leaf := range n.Topo.IAs() {
		if n.Topo.AS(leaf).Core {
			continue
		}
		ps := n.PathServer(leaf)
		for _, dst := range n.Topo.IAs() {
			if got := ps.LookupDown(now, dst); got != nil {
				t.Errorf("leaf %s served %d down-segments to %s", leaf, len(got), dst)
			}
			if got := ps.LookupCore(now, dst); got != nil {
				t.Errorf("leaf %s served %d core-segments from %s", leaf, len(got), dst)
			}
		}
		served := 0
		for _, c := range cores {
			got := n.PathServer(c).LookupDown(now, leaf)
			if c.ISD != leaf.ISD && got != nil {
				t.Errorf("core %s served down-segments to %s of another ISD", c, leaf)
			}
			served += len(got)
		}
		if served == 0 {
			t.Errorf("no core of ISD %d serves down-segments to %s", leaf.ISD, leaf)
		}
	}
	for _, c := range cores {
		if got := n.PathServer(c).LookupUp(now); got != nil {
			t.Errorf("core %s served %d up-segments", c, len(got))
		}
	}
	if got := n.PathServer(addr.MustIA(9, 9)).LookupUp(now); got != nil {
		t.Errorf("unknown AS served %d up-segments", len(got))
	}
}

func TestRegisterExpiredRejected(t *testing.T) {
	s := pathsrv.New(pathsrv.Config{})
	sg := mkSeg(t, 0, 10, 30)
	if err := s.Register(7*hour, sg); err == nil {
		t.Error("expired segment registered")
	}
	if s.Rejected != 1 || s.Registrations != 0 {
		t.Errorf("rejected = %d, registrations = %d", s.Rejected, s.Registrations)
	}
	s.Publish(7 * hour)
	if got, _ := s.Lookup(0, core1, leafA); len(got) != 0 {
		t.Errorf("rejected segment served: %v", keysOf(got))
	}
}

func TestReregistrationRefreshes(t *testing.T) {
	s := pathsrv.New(pathsrv.Config{})
	old := mkSeg(t, 0, 10, 20, 30)
	register(t, s, 0, old)
	fresh := mkSeg(t, 2*hour, 10, 20, 30)
	register(t, s, 2*hour, fresh)
	got := lookupDown(s, 2*hour)
	if len(got) != 1 {
		t.Fatalf("re-registration duplicated: %d", len(got))
	}
	if got[0].Info.Expiry != fresh.Info.Expiry {
		t.Error("re-registration did not refresh expiry")
	}
	if s.Registrations != 1 || s.Refreshes != 1 {
		t.Errorf("registrations = %d, refreshes = %d", s.Registrations, s.Refreshes)
	}
	// The refreshed segment outlives the original.
	if got := lookupDown(s, 7*hour); len(got) != 1 {
		t.Errorf("refreshed segment expired with the original: %d", len(got))
	}
}

func TestDeregister(t *testing.T) {
	s := pathsrv.New(pathsrv.Config{})
	sg := mkSeg(t, 0, 10, 20, 30)
	register(t, s, 0, sg)
	if !s.Deregister(sg) {
		t.Fatal("deregister failed")
	}
	if s.Deregister(sg) {
		t.Error("double deregister succeeded")
	}
	if s.Deregister(mkSeg(t, 0, 10, 40, 30)) {
		t.Error("deregistered a path that was never registered")
	}
	s.Publish(0)
	if got := lookupDown(s, 0); len(got) != 0 {
		t.Errorf("segments after deregister: %d", len(got))
	}
}

// TestRepliesAreNeverEdited pins that the server never edits a list it
// has handed out: deregistering each segment while ranging over a lookup
// reply removes all of them, and a reply held across later registrations
// keeps its contents.
func TestRepliesAreNeverEdited(t *testing.T) {
	s := pathsrv.New(pathsrv.Config{})
	for _, mid := range []uint64{20, 21, 22} {
		register(t, s, 0, mkSeg(t, 0, 10, mid, 30))
	}
	reply := lookupDown(s, 0)
	want := keysOf(reply)
	for _, sg := range reply {
		if !s.Deregister(sg) {
			t.Errorf("deregister %v failed", sg)
		}
	}
	if got := keysOf(reply); !sameKeys(got, want) {
		t.Errorf("reply changed under deregistration: %v, want %v", got, want)
	}
	s.Publish(0)
	if got := lookupDown(s, 0); len(got) != 0 {
		t.Errorf("lookup after deregistering every segment = %v", keysOf(got))
	}

	for _, mid := range []uint64{20, 21, 22} {
		register(t, s, 0, mkSeg(t, 0, 10, mid, 30))
	}
	s.Deregister(mkSeg(t, 0, 10, 20, 30))
	s.Publish(0)
	held := lookupDown(s, 0)
	want = keysOf(held)
	register(t, s, 0, mkSeg(t, 0, 10, 30)) // shorter: sorts first
	register(t, s, 0, mkSeg(t, 0, 10, 20, 30))
	if got := keysOf(held); !sameKeys(got, want) {
		t.Errorf("held reply changed under registration: %v, want %v", got, want)
	}
	if got := lookupDown(s, 0); len(got) != 4 {
		t.Errorf("lookup after re-registration = %v", keysOf(got))
	}
}

func TestLookupFiltersExpired(t *testing.T) {
	s := pathsrv.New(pathsrv.Config{})
	register(t, s, 0, mkSeg(t, 0, 10, 20, 30), mkSeg(t, 2*hour, 10, 40, 30))
	// Between publications the lookup filters what expired since.
	got, minExpiry := s.Lookup(7*hour, core1, leafA)
	if len(got) != 1 || got[0].Info.Expiry != 8*hour || minExpiry != 8*hour {
		t.Errorf("at 7h: %v (expiry %v), want the segment expiring at 8h", keysOf(got), minExpiry)
	}
	if got, _ := s.Lookup(8*hour, core1, leafA); len(got) != 0 {
		t.Error("expired segment served")
	}
	s.Publish(8 * hour)
	if got := lookupDown(s, 0); len(got) != 0 {
		t.Error("expired segment republished")
	}
}

// TestLookupCoreAndUp checks the core- and up-segment roles on the demo
// network: a core AS serves the core-segments originated at the asked
// core and terminated at itself, a leaf AS its up-segments to the cores
// of its ISD.
func TestLookupCoreAndUp(t *testing.T) {
	n, now := demoNet(t)
	cores := n.Topo.CoreIAs()
	coreSegs := 0
	for _, fc := range cores {
		for _, tc := range cores {
			for _, p := range n.PathServer(fc).LookupCore(now, tc) {
				if p.Origin() != tc || p.Leaf() != fc {
					t.Errorf("core lookup at %s for %s served %s -> %s", fc, tc, p.Origin(), p.Leaf())
				}
				coreSegs++
			}
		}
	}
	if coreSegs == 0 {
		t.Error("no core-segments served")
	}
	for _, ia := range n.Topo.IAs() {
		if n.Topo.AS(ia).Core {
			continue
		}
		up := n.PathServer(ia).LookupUp(now)
		if len(up) == 0 {
			t.Errorf("leaf %s has no up-segments", ia)
		}
		for _, p := range up {
			if p.Leaf() != ia || !n.Topo.AS(p.Origin()).Core || p.Origin().ISD != ia.ISD {
				t.Errorf("up lookup at %s served %s -> %s", ia, p.Origin(), p.Leaf())
			}
		}
	}
}

func TestRevoke(t *testing.T) {
	s := pathsrv.New(pathsrv.Config{})
	affected := mkSeg(t, 0, 10, 20, 30)
	clean := mkSeg(t, 0, 10, 40, 30)
	register(t, s, 0, affected, clean)

	// Revoke the link 1-20#2 (AS 20's egress), only on 'affected'.
	if changed := s.RevokeLink(0, link20, hour); changed != 1 {
		t.Fatalf("changed pairs = %d, want 1", changed)
	}
	got := lookupDown(s, 0)
	if len(got) != 1 || got[0] != clean {
		t.Errorf("post-revocation lookup = %v", keysOf(got))
	}
	if s.Revocations != 1 {
		t.Errorf("revocations = %d", s.Revocations)
	}
	// Revoking an unknown link changes nothing.
	if n := s.RevokeLink(0, seg.LinkKey{IA: addr.MustIA(9, 9), If: 1}, hour); n != 0 {
		t.Errorf("bogus revoke changed %d pairs", n)
	}
	if got := lookupDown(s, 0); len(got) != 1 || got[0] != clean {
		t.Errorf("lookup after bogus revoke = %v", keysOf(got))
	}
}

// TestLookupOrderingStable pins the canonical reply order: fewest hops
// first, then by hops key, independent of registration order.
func TestLookupOrderingStable(t *testing.T) {
	s := pathsrv.New(pathsrv.Config{})
	// Register out of order: a 4-hop segment, then two 3-hop ones with
	// middle hops that sort in reverse registration order.
	long := mkSeg(t, 0, 10, 20, 25, 30)
	hiMid := mkSeg(t, 0, 10, 90, 30)
	loMid := mkSeg(t, 0, 10, 40, 30)
	register(t, s, 0, long, hiMid, loMid)
	got := lookupDown(s, 0)
	if len(got) != 3 {
		t.Fatalf("lookup = %d segments", len(got))
	}
	for i := 1; i < len(got); i++ {
		a, b := got[i-1], got[i]
		if a.Len() > b.Len() ||
			(a.Len() == b.Len() && a.HopsKey() >= b.HopsKey()) {
			t.Fatalf("reply out of order at %d: %v", i, keysOf(got))
		}
	}
	if got[2] != long {
		t.Error("4-hop segment must sort last")
	}
}

// TestRevokeForReinstatementOrdering pins timed revocation: it hides
// exactly the affected segments, and once it lapses the original reply
// — same segments, same order — reappears without re-registration.
func TestRevokeForReinstatementOrdering(t *testing.T) {
	s := pathsrv.New(pathsrv.Config{})
	affected := mkSeg(t, 0, 10, 20, 30)
	clean := mkSeg(t, 0, 10, 40, 30)
	other := mkSeg(t, 0, 10, 20, 25, 30) // also over 1-20#2, 4 hops
	register(t, s, 0, affected, clean, other)
	before := keysOf(lookupDown(s, 0))
	if len(before) != 3 {
		t.Fatalf("pre-revocation reply = %d segments", len(before))
	}

	s.RevokeLink(0, link20, hour)
	s.Publish(30 * sim.Time(time.Minute))
	hidden := lookupDown(s, 30*sim.Time(time.Minute))
	if len(hidden) != 1 || hidden[0] != clean {
		t.Fatalf("mid-revocation reply = %v, want only clean", keysOf(hidden))
	}
	s.Publish(hour - 1)
	if got := lookupDown(s, hour-1); len(got) != 1 {
		t.Fatalf("1 ns before the lapse: %v, want only clean", keysOf(got))
	}

	// At the TTL the revocation lapses on the next publication; the reply
	// must equal the pre-revocation reply, in the same order, with no
	// re-registration in between.
	s.Publish(hour)
	after := keysOf(lookupDown(s, hour))
	if !sameKeys(before, after) {
		t.Errorf("reinstated reply %v != original %v", after, before)
	}
	if s.Registrations != 3 || s.Reinstatements != 1 {
		t.Errorf("the lapse must reinstate once without re-registering: %d registrations, %d reinstatements",
			s.Registrations, s.Reinstatements)
	}
}

// TestReinstatementFlushesCache asserts a client cache cannot serve a
// stale mid-revocation reply after the revocation lapses.
func TestReinstatementFlushesCache(t *testing.T) {
	s := pathsrv.New(pathsrv.Config{})
	c := s.NewCache(10*hour, 0)
	register(t, s, 0, mkSeg(t, 0, 10, 20, 30), mkSeg(t, 0, 10, 40, 30))

	s.RevokeLink(0, link20, hour)
	mid, hit := c.Lookup(1, s, core1, leafA) // miss, caches the hidden view
	if len(mid) != 1 || hit {
		t.Fatalf("mid-revocation reply = %d segments (hit %v)", len(mid), hit)
	}
	if got, hit := c.Lookup(2, s, core1, leafA); len(got) != 1 || !hit {
		t.Fatalf("second mid-revocation lookup = %d segments (hit %v), want a cache hit", len(got), hit)
	}
	// Lapse: the publication must evict the 1-segment entry.
	s.Publish(hour + 1)
	after, hit := c.Lookup(hour+1, s, core1, leafA)
	if len(after) != 2 {
		t.Fatalf("post-reinstatement reply = %d segments, want 2", len(after))
	}
	if hit {
		t.Error("post-reinstatement lookup served from the stale cache")
	}
}

// TestReregistrationKeepsOrder checks that refreshing a segment's expiry
// in place does not disturb the reply order.
func TestReregistrationKeepsOrder(t *testing.T) {
	s := pathsrv.New(pathsrv.Config{})
	register(t, s, 0, mkSeg(t, 0, 10, 20, 30), mkSeg(t, 0, 10, 40, 30))
	before := keysOf(lookupDown(s, 0))
	register(t, s, 2*hour, mkSeg(t, 2*hour, 10, 20, 30))
	after := keysOf(lookupDown(s, 2*hour))
	if !sameKeys(before, after) {
		t.Errorf("re-registration reordered the reply: %v -> %v", before, after)
	}
}

// TestRevocationRecency pins the path-selection recency signal: the
// record is permanent history, independent of whether the revocation is
// still active, and a later revocation of the same link replaces it.
func TestRevocationRecency(t *testing.T) {
	n, _ := demoNet(t)
	la, lb := n.Topo.Links[0], n.Topo.Links[1]
	refA := []dataplane.LinkRef{{Link: la, From: la.A}}
	refB := []dataplane.LinkRef{{Link: lb, From: lb.A}}
	both := append(append([]dataplane.LinkRef{}, refA...), refB...)
	ia := la.A
	clock := n.Clock()
	advance := func(d time.Duration) { clock.RunUntil(clock.Now() + sim.Time(d)) }

	if age := n.PathRevocationAge(ia, both); age >= 0 {
		t.Errorf("revocation age before any revocation = %v", age)
	}
	n.NoteLinkDown(la)
	advance(3 * time.Second)
	n.NoteLinkDown(lb)
	if age := n.PathRevocationAge(ia, refA); age != 3*time.Second {
		t.Errorf("age(linkA) = %v, want 3s", age)
	}
	// History outlives the revocation TTL.
	advance(time.Minute)
	if age := n.PathRevocationAge(ia, refB); age != time.Minute {
		t.Errorf("age(linkB) after the lapse = %v, want 1m", age)
	}
	n.NoteLinkDown(lb)
	if age := n.PathRevocationAge(ia, refB); age != 0 {
		t.Errorf("age(linkB) after a new revocation = %v, want 0", age)
	}
	if age := n.PathRevocationAge(ia, both); age != 0 {
		t.Errorf("age over both links = %v, want the most recent, 0", age)
	}
	if age := n.PathRevocationAge(addr.MustIA(9, 9), both); age >= 0 {
		t.Errorf("unknown AS reported a revocation age %v", age)
	}
}

// TestLookupNoAllocsSteadyState pins the hot-path guarantee: with
// nothing expired or revoked, a lookup (through a client cache or not)
// and a core path server's role view allocate nothing.
func TestLookupNoAllocsSteadyState(t *testing.T) {
	s := pathsrv.New(pathsrv.Config{})
	for i := 0; i < 64; i++ {
		register(t, s, 0, mkSeg(t, 0, 10, uint64(100+i), 30))
	}
	c := s.NewCache(hour, 0)
	c.Lookup(0, s, core1, leafA) // fill
	for name, lookup := range map[string]func() []*seg.PCB{
		"uncached": func() []*seg.PCB { return lookupDown(s, 0) },
		"cached":   func() []*seg.PCB { segs, _ := c.Lookup(0, s, core1, leafA); return segs },
	} {
		allocs := testing.AllocsPerRun(100, func() {
			if got := lookup(); len(got) != 64 {
				t.Fatalf("%s lookup = %d segments", name, len(got))
			}
		})
		if allocs != 0 {
			t.Errorf("%s lookup allocates %.1f times per op, want 0", name, allocs)
		}
	}

	n, now := demoNet(t)
	cores := n.Topo.CoreIAs()
	fc, tc := cores[0], cores[len(cores)-1]
	ps := n.PathServer(fc)
	if len(ps.LookupCore(now, tc)) == 0 {
		t.Fatalf("no core-segments from %s to %s", tc, fc)
	}
	if allocs := testing.AllocsPerRun(100, func() { ps.LookupCore(now, tc) }); allocs != 0 {
		t.Errorf("core role lookup allocates %.1f times per op, want 0", allocs)
	}
}
