package pathsrv

import (
	"strings"
	"testing"
	"time"

	"scionmpr/internal/addr"
	"scionmpr/internal/seg"
	"scionmpr/internal/sim"
	"scionmpr/internal/telemetry"
	"scionmpr/internal/trust"
)

const hour = sim.Time(time.Hour)

type fakeSigner struct{ ia addr.IA }

func (f fakeSigner) IA() addr.IA                 { return f.ia }
func (f fakeSigner) Sign([]byte) ([]byte, error) { return make([]byte, trust.SignatureLen), nil }

// mkSeg builds a test segment over the given AS path (ISD 1), expiring
// 6 hours after ts. Interfaces are ingress 1 / egress 2 at every hop.
func mkSeg(t testing.TB, ts sim.Time, hops ...uint64) *seg.PCB {
	t.Helper()
	origin := addr.MustIA(1, addr.AS(hops[0]))
	p := seg.NewPCB(origin, 1, ts, 6*hour)
	var err error
	for i, h := range hops {
		egress := addr.IfID(2)
		if i == len(hops)-1 {
			egress = 0
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
	core2 = addr.MustIA(1, 11)
	leafA = addr.MustIA(1, 30)
	leafB = addr.MustIA(1, 31)
)

func keysOf(segs []*seg.PCB) []string {
	out := make([]string, len(segs))
	for i, p := range segs {
		out[i] = p.HopsKey()
	}
	return out
}

func TestRegisterPublishLookup(t *testing.T) {
	svc := New(Config{Shards: 4})
	a := mkSeg(t, 0, 10, 20, 30)
	b := mkSeg(t, 0, 10, 21, 30)
	if err := svc.Register(0, a); err != nil {
		t.Fatal(err)
	}
	if err := svc.Register(0, b); err != nil {
		t.Fatal(err)
	}
	// Nothing is served before publication.
	if got, _ := svc.Lookup(0, core1, leafA); got != nil {
		t.Fatalf("unpublished lookup = %d segments", len(got))
	}
	if n := svc.Publish(0); n != 1 {
		t.Fatalf("publish changed %d pairs, want 1", n)
	}
	got, min := svc.Lookup(0, core1, leafA)
	if len(got) != 2 {
		t.Fatalf("lookup = %d segments", len(got))
	}
	if min != 6*hour {
		t.Errorf("minExpiry = %v", min)
	}
	// Canonical order: same hop count, tie broken by hops key.
	if got[0].HopsKey() > got[1].HopsKey() {
		t.Error("reply not in canonical order")
	}
	// Unknown pair, or right dst from wrong src: empty.
	if got, _ := svc.Lookup(0, core1, leafB); got != nil {
		t.Error("unknown pair served")
	}
	if got, _ := svc.Lookup(0, core2, leafA); got != nil {
		t.Error("wrong source served")
	}
}

func TestLookupServesOldEpochUntilPublish(t *testing.T) {
	svc := New(Config{})
	svc.Register(0, mkSeg(t, 0, 10, 20, 30))
	svc.Publish(0)
	svc.Register(0, mkSeg(t, 0, 10, 21, 30))
	if got, _ := svc.Lookup(0, core1, leafA); len(got) != 1 {
		t.Fatalf("pre-publish lookup = %d segments, want old snapshot's 1", len(got))
	}
	svc.Publish(0)
	if got, _ := svc.Lookup(0, core1, leafA); len(got) != 2 {
		t.Fatalf("post-publish lookup = %d segments", len(got))
	}
	if svc.epoch != 2 {
		t.Errorf("epoch = %d", svc.epoch)
	}
}

func TestRegisterRejects(t *testing.T) {
	svc := New(Config{})
	if err := svc.Register(7*hour, mkSeg(t, 0, 10, 20, 30)); err == nil {
		t.Error("expired segment accepted")
	}
	if err := svc.Register(0, mkSeg(t, 0, 10)); err == nil {
		t.Error("degenerate segment accepted")
	}
	if svc.Rejected != 2 {
		t.Errorf("Rejected = %d", svc.Rejected)
	}
}

// TestRefreshKeepsReplyAndSkipsInvalidation: re-registering a known path
// with a later expiry leaves the visible path set as it was, so the
// publication counts no changed pair and the reply keeps its paths.
func TestRefreshKeepsReplyAndSkipsInvalidation(t *testing.T) {
	svc := New(Config{})
	svc.Register(0, mkSeg(t, 0, 10, 20, 30))
	svc.Publish(0)
	before, _ := svc.Lookup(0, core1, leafA)
	svc.Register(hour, mkSeg(t, hour, 10, 20, 30))
	if n := svc.Publish(hour); n != 0 {
		t.Fatalf("refresh publication changed %d pairs", n)
	}
	after, min := svc.Lookup(hour, core1, leafA)
	if !samePathSet(before, after) {
		t.Errorf("refresh changed the reply: %v -> %v", keysOf(before), keysOf(after))
	}
	if min != 7*hour {
		t.Errorf("refreshed minExpiry = %v, want the new segment's 7h", min)
	}
	if svc.Refreshes != 1 || svc.Registrations != 1 {
		t.Errorf("refreshes=%d registrations=%d", svc.Refreshes, svc.Registrations)
	}
}

func TestRevokeAndReinstate(t *testing.T) {
	reg := telemetry.NewRegistry()
	svc := New(Config{Telemetry: reg})
	svc.Register(0, mkSeg(t, 0, 10, 20, 30))
	svc.Register(0, mkSeg(t, 0, 10, 21, 30))
	svc.Publish(0)
	before, _ := svc.Lookup(0, core1, leafA)

	// Revoking a link on the 10-20-30 segment republishes immediately.
	link := seg.LinkKey{IA: addr.MustIA(1, 20), If: 2}
	if n := svc.RevokeLink(0, link, hour); n != 1 {
		t.Fatalf("revoke changed %d pairs", n)
	}
	got, _ := svc.Lookup(0, core1, leafA)
	if len(got) != 1 {
		t.Fatalf("revoked lookup = %d segments", len(got))
	}
	for _, lk := range got[0].Links() {
		if lk == link {
			t.Fatal("revoked link still served")
		}
	}

	// Reinstating restores the exact pre-revocation reply.
	if n := svc.ReinstateLink(0, link); n != 1 {
		t.Fatalf("reinstate changed %d pairs", n)
	}
	after, _ := svc.Lookup(0, core1, leafA)
	ka, kb := keysOf(before), keysOf(after)
	if len(ka) != len(kb) {
		t.Fatalf("reinstated reply has %d segments, want %d", len(kb), len(ka))
	}
	for i := range ka {
		if ka[i] != kb[i] {
			t.Fatalf("reinstated reply differs at %d: %q vs %q", i, ka[i], kb[i])
		}
	}
	if svc.Revocations != 1 || svc.Reinstatements != 1 {
		t.Errorf("revocations=%d reinstatements=%d", svc.Revocations, svc.Reinstatements)
	}
	if v := reg.Counter("pathsrv_revocations_total").Value(); v != 1 {
		t.Errorf("telemetry revocations = %d", v)
	}
}

// TestSnapshotPairsGaugeCountsServedPairs: a pair whose only link is
// revoked keeps its slot in the shard's index but is no longer served, so
// the gauge drops by one and comes back on reinstatement.
func TestSnapshotPairsGaugeCountsServedPairs(t *testing.T) {
	reg := telemetry.NewRegistry()
	svc := New(Config{Telemetry: reg})
	svc.Register(0, mkSeg(t, 0, 10, 20, 30))
	svc.Register(0, mkSeg(t, 0, 10, 21, 31))
	svc.Register(0, mkSeg(t, 0, 11, 21, 30))
	svc.Publish(0)
	gauge := func() string {
		var b strings.Builder
		if err := reg.WriteSnapshot(&b); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(b.String(), "\n") {
			if v, ok := strings.CutPrefix(line, "pathsrv_snapshot_pairs "); ok {
				return v
			}
		}
		t.Fatal("no pathsrv_snapshot_pairs gauge")
		return ""
	}
	if g := gauge(); g != "3" {
		t.Fatalf("gauge = %s before revocation, want 3", g)
	}
	link := seg.LinkKey{IA: addr.MustIA(1, 20), If: 2}
	if n := svc.RevokeLink(0, link, hour); n != 1 {
		t.Fatalf("revoke changed %d pairs, want 1", n)
	}
	if g := gauge(); g != "2" {
		t.Errorf("gauge = %s with the pair's only link revoked, want 2", g)
	}
	svc.ReinstateLink(0, link)
	if g := gauge(); g != "3" {
		t.Errorf("gauge = %s after reinstatement, want 3", g)
	}
}

func TestRevocationLapses(t *testing.T) {
	svc := New(Config{RevocationTTL: hour})
	svc.Register(0, mkSeg(t, 0, 10, 20, 30))
	svc.Publish(0)
	svc.RevokeLink(0, seg.LinkKey{IA: addr.MustIA(1, 20), If: 2}, 0)
	if got, _ := svc.Lookup(0, core1, leafA); len(got) != 0 {
		t.Fatal("revoked segment served")
	}
	// The next publication after the TTL lifts the revocation.
	if svc.Publish(2*hour) != 1 {
		t.Fatal("lapse publication changed nothing")
	}
	if got, _ := svc.Lookup(2*hour, core1, leafA); len(got) != 1 {
		t.Fatal("lapsed revocation still hides the segment")
	}
	if svc.Reinstatements != 1 {
		t.Errorf("Reinstatements = %d", svc.Reinstatements)
	}
}

func TestRevokeUnknownLinkChangesNothing(t *testing.T) {
	svc := New(Config{})
	svc.Register(0, mkSeg(t, 0, 10, 20, 30))
	svc.Publish(0)
	if n := svc.RevokeLink(0, seg.LinkKey{IA: addr.MustIA(9, 9), If: 9}, hour); n != 0 {
		t.Fatalf("unknown-link revoke changed %d pairs", n)
	}
	if got, _ := svc.Lookup(0, core1, leafA); len(got) != 1 {
		t.Fatal("unrelated revocation hid a segment")
	}
	if n := svc.ReinstateLink(0, seg.LinkKey{IA: addr.MustIA(9, 8), If: 9}); n != 0 {
		t.Fatal("reinstating a never-revoked link reported changes")
	}
}

// TestCacheInvalidationIsPrecise: a revocation counts exactly the pairs
// whose reply crosses the link, and every other pair keeps the reply it
// had, down to the shared slice. One shard holds every pair, so the
// republished shard is the untouched pair's too.
func TestCacheInvalidationIsPrecise(t *testing.T) {
	svc := New(Config{Shards: 1})
	// Pairs A and (core2, A) route over AS 20; pair B does not.
	svc.Register(0, mkSeg(t, 0, 10, 20, 30))
	svc.Register(0, mkSeg(t, 0, 11, 20, 30))
	svc.Register(0, mkSeg(t, 0, 10, 21, 31))
	svc.Publish(0)
	untouched, _ := svc.Lookup(0, core1, leafB)

	if n := svc.RevokeLink(0, seg.LinkKey{IA: addr.MustIA(1, 20), If: 2}, hour); n != 2 {
		t.Fatalf("revoke changed %d pairs, want the 2 over the link", n)
	}
	for _, src := range []addr.IA{core1, core2} {
		if got, _ := svc.Lookup(0, src, leafA); len(got) != 0 {
			t.Errorf("%v -> %v still served over the revoked link", src, leafA)
		}
	}
	if got, _ := svc.Lookup(0, core1, leafB); len(got) != 1 || &got[0] != &untouched[0] {
		t.Error("pair off the revoked link got a new reply")
	}
	// Revoking it again only extends the TTL: no reply changes.
	if n := svc.RevokeLink(0, seg.LinkKey{IA: addr.MustIA(1, 20), If: 2}, 2*hour); n != 0 {
		t.Errorf("re-revoke changed %d pairs, want 0", n)
	}
}

func TestLookupFiltersExpiredBetweenPublications(t *testing.T) {
	svc := New(Config{})
	svc.Register(0, mkSeg(t, 0, 10, 20, 30))           // expires 6h
	svc.Register(2*hour, mkSeg(t, 2*hour, 10, 21, 30)) // expires 8h
	svc.Publish(2 * hour)
	if got, _ := svc.Lookup(2*hour, core1, leafA); len(got) != 2 {
		t.Fatal("both segments should serve")
	}
	// At 7h the first segment is dead but no publication has pruned it:
	// the lookup itself must filter.
	got, min := svc.Lookup(7*hour, core1, leafA)
	if len(got) != 1 || got[0].Expired(7*hour) {
		t.Fatalf("expired segment served: %d segments", len(got))
	}
	if min != 8*hour {
		t.Errorf("filtered minExpiry = %v", min)
	}
	// The pruning publication drops the pair change only if the visible
	// set changed — here it did (2 -> 1).
	if n := svc.Publish(7 * hour); n != 1 {
		t.Errorf("pruning publication changed %d pairs", n)
	}
}

func TestDigestCanonical(t *testing.T) {
	build := func(order []int) *Service {
		svc := New(Config{Shards: 8})
		segs := []*seg.PCB{
			mkSeg(t, 0, 10, 20, 30),
			mkSeg(t, 0, 10, 21, 30),
			mkSeg(t, 0, 10, 20, 31),
			mkSeg(t, 0, 11, 22, 32),
		}
		for _, i := range order {
			svc.Register(0, segs[i])
		}
		svc.Publish(0)
		return svc
	}
	a := build([]int{0, 1, 2, 3})
	b := build([]int{3, 2, 1, 0})
	if a.Digest() != b.Digest() {
		t.Error("digest depends on registration order")
	}
	c := build([]int{0, 1, 2})
	if a.Digest() == c.Digest() {
		t.Error("digest blind to content")
	}
	// Revocations are part of the digest.
	a.RevokeLink(0, seg.LinkKey{IA: addr.MustIA(1, 20), If: 2}, hour)
	if a.Digest() == b.Digest() {
		t.Error("digest blind to revocations")
	}
}

func TestShardOf(t *testing.T) {
	svc := New(Config{Shards: 16})
	seen := map[uint32]int{}
	for as := uint64(1); as <= 256; as++ {
		sh := svc.ShardOf(addr.MustIA(1, addr.AS(as)))
		if sh >= 16 {
			t.Fatalf("shard %d out of range", sh)
		}
		if sh != svc.ShardOf(addr.MustIA(1, addr.AS(as))) {
			t.Fatal("ShardOf not stable")
		}
		seen[sh]++
	}
	// Near-sequential IAs must spread: no shard may swallow half of them.
	for sh, n := range seen {
		if n > 128 {
			t.Errorf("shard %d holds %d of 256 sequential IAs", sh, n)
		}
	}
	if len(seen) < 8 {
		t.Errorf("only %d of 16 shards used", len(seen))
	}
}

func TestShardsClamped(t *testing.T) {
	if n := New(Config{Shards: -1}).nshards; n != 16 {
		t.Errorf("default shards = %d", n)
	}
	if n := New(Config{Shards: 1000}).nshards; n != 64 {
		t.Errorf("clamped shards = %d", n)
	}
}

func TestLookupNoAllocsSteadyState(t *testing.T) {
	svc := New(Config{})
	svc.Register(0, mkSeg(t, 0, 10, 20, 30))
	svc.Register(0, mkSeg(t, 0, 10, 21, 30))
	svc.Publish(0)
	if n := testing.AllocsPerRun(100, func() {
		svc.Lookup(0, core1, leafA)
	}); n != 0 {
		t.Errorf("Lookup allocates %v per call", n)
	}
}
