package pathsrv

import (
	"strings"
	"testing"
	"time"

	"scionmpr/internal/addr"
	"scionmpr/internal/chaos"
	"scionmpr/internal/seg"
	"scionmpr/internal/sim"
	"scionmpr/internal/telemetry"
	"scionmpr/internal/topology"
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
	if svc.Epoch() != 2 {
		t.Errorf("epoch = %d", svc.Epoch())
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

func TestRefreshKeepsReplyAndSkipsInvalidation(t *testing.T) {
	svc := New(Config{})
	cache := svc.NewCache(0, 0)
	svc.Register(0, mkSeg(t, 0, 10, 20, 30))
	svc.Publish(0)
	if _, hit := cache.Lookup(0, svc, core1, leafA); hit {
		t.Fatal("first lookup cannot hit")
	}
	// Re-register the same path with a later expiry: the visible path set
	// is unchanged, so the publication must not evict the cached reply.
	svc.Register(hour, mkSeg(t, hour, 10, 20, 30))
	if n := svc.Publish(hour); n != 0 {
		t.Fatalf("refresh publication changed %d pairs", n)
	}
	if _, hit := cache.Lookup(hour, svc, core1, leafA); !hit {
		t.Error("refresh evicted the cached reply")
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

func TestCacheInvalidationIsPrecise(t *testing.T) {
	reg := telemetry.NewRegistry()
	svc := New(Config{Telemetry: reg})
	cache := svc.NewCache(0, 0)
	// Pair A routes over AS 20; pair B does not.
	svc.Register(0, mkSeg(t, 0, 10, 20, 30))
	svc.Register(0, mkSeg(t, 0, 10, 21, 31))
	svc.Publish(0)
	cache.Lookup(0, svc, core1, leafA)
	cache.Lookup(0, svc, core1, leafB)
	if len(cache.entries) != 2 {
		t.Fatalf("cache len = %d", len(cache.entries))
	}

	svc.RevokeLink(0, seg.LinkKey{IA: addr.MustIA(1, 20), If: 2}, hour)
	// Only pair A's entry may be evicted.
	if len(cache.entries) != 1 {
		t.Fatalf("cache len after revoke = %d, want 1", len(cache.entries))
	}
	if _, hit := cache.Lookup(0, svc, core1, leafB); !hit {
		t.Error("untouched pair was invalidated")
	}
	if _, hit := cache.Lookup(0, svc, core1, leafA); hit {
		t.Error("changed pair still served from cache")
	}
	if cache.Invalidations != 1 || svc.Invalidations != 1 {
		t.Errorf("cache inv=%d svc inv=%d", cache.Invalidations, svc.Invalidations)
	}
	if v := reg.Counter(`pathsrv_cache_invalidations_total{reason="revoke"}`).Value(); v != 1 {
		t.Errorf("telemetry invalidations = %d", v)
	}
}

func TestCacheTTLAndSegmentExpiry(t *testing.T) {
	svc := New(Config{})
	cache := svc.NewCache(hour, 0)
	svc.Register(0, mkSeg(t, 0, 10, 20, 30))
	svc.Publish(0)
	cache.Lookup(0, svc, core1, leafA)
	if _, hit := cache.Lookup(30*sim.Time(time.Minute), svc, core1, leafA); !hit {
		t.Fatal("fresh entry missed")
	}
	// Past the TTL the entry is evicted and refetched.
	if _, hit := cache.Lookup(2*hour, svc, core1, leafA); hit {
		t.Fatal("stale entry served")
	}
	if cache.Evictions != 1 {
		t.Errorf("evictions = %d", cache.Evictions)
	}
	// A cached reply is also dropped once its segments expire, even
	// within the TTL window.
	long := svc.NewCache(100*hour, 0)
	long.Lookup(2*hour, svc, core1, leafA)
	if got, hit := long.Lookup(7*hour, svc, core1, leafA); hit || len(got) != 0 {
		t.Fatalf("expired segments served from cache: hit=%v n=%d", hit, len(got))
	}
}

func TestCacheCapSheds(t *testing.T) {
	svc := New(Config{})
	cache := svc.NewCache(hour, 2)
	for i, dst := range []uint64{30, 31, 32} {
		svc.Register(0, mkSeg(t, 0, 10, 20+uint64(i), dst))
	}
	svc.Publish(0)
	cache.Lookup(0, svc, core1, addr.MustIA(1, 30))
	cache.Lookup(0, svc, core1, addr.MustIA(1, 31))
	cache.Lookup(0, svc, core1, addr.MustIA(1, 32)) // over cap: shed all, insert one
	if len(cache.entries) != 1 {
		t.Fatalf("cache len = %d, want 1 after shedding", len(cache.entries))
	}
}

func TestNegativeRepliesNotCached(t *testing.T) {
	svc := New(Config{})
	cache := svc.NewCache(hour, 0)
	if _, hit := cache.Lookup(0, svc, core1, leafA); hit {
		t.Fatal("miss reported as hit")
	}
	if len(cache.entries) != 0 {
		t.Fatal("empty reply cached")
	}
	// Once the pair is published the cache must see it immediately.
	svc.Register(0, mkSeg(t, 0, 10, 20, 30))
	svc.Publish(0)
	if got, _ := cache.Lookup(0, svc, core1, leafA); len(got) != 1 {
		t.Fatal("published pair hidden by a cached miss")
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
	if n := New(Config{Shards: -1}).NumShards(); n != 16 {
		t.Errorf("default shards = %d", n)
	}
	if n := New(Config{Shards: 1000}).NumShards(); n != 64 {
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
	cache := svc.NewCache(hour, 0)
	cache.Lookup(0, svc, core1, leafA)
	if n := testing.AllocsPerRun(100, func() {
		cache.Lookup(0, svc, core1, leafA)
	}); n != 0 {
		t.Errorf("cached Lookup allocates %v per call", n)
	}
}

// TestWireChaosRevokesBothDirections covers the chaos-to-service glue:
// a failed link revokes both directed interfaces, a heal reinstates
// them, prior hooks are chained, and unknown links are ignored.
func TestWireChaosRevokesBothDirections(t *testing.T) {
	g := topology.Demo()
	l := g.Links[0]
	clock := &sim.Simulator{}
	svc := New(Config{})
	eng := chaos.NewEngine(clock, nil)
	var chainedFail, chainedRestore int
	eng.OnFail = func(topology.LinkID) { chainedFail++ }
	eng.OnRestore = func(topology.LinkID) { chainedRestore++ }
	WireChaos(clock, eng, g, svc, hour)

	eng.OnFail(l.ID)
	if chainedFail != 1 {
		t.Error("prior OnFail hook not chained")
	}
	if svc.Revocations != 2 {
		t.Fatalf("revocations = %d, want both directed interfaces", svc.Revocations)
	}
	eng.OnRestore(l.ID)
	if chainedRestore != 1 {
		t.Error("prior OnRestore hook not chained")
	}
	if svc.Reinstatements != 2 {
		t.Fatalf("reinstatements = %d", svc.Reinstatements)
	}
	// A link the topology does not know is a no-op.
	eng.OnFail(topology.LinkID(1 << 30))
	if svc.Revocations != 2 {
		t.Error("unknown link revoked something")
	}
}

func TestCacheSweepsDeadEntriesOnMiss(t *testing.T) {
	svc := New(Config{})
	cache := svc.NewCache(0, 0)                        // no TTL: death comes from segment expiry
	svc.Register(0, mkSeg(t, 0, 10, 20, 30))           // expires 6h
	svc.Register(2*hour, mkSeg(t, 2*hour, 10, 21, 31)) // expires 8h
	svc.Publish(2 * hour)
	cache.Lookup(2*hour, svc, core1, leafA)
	cache.Lookup(2*hour, svc, core1, leafB)
	if len(cache.entries) != 2 {
		t.Fatalf("len = %d", len(cache.entries))
	}
	// A miss on an unrelated pair past the first entry's last-segment
	// death sweeps that entry — and only it.
	cache.Lookup(7*hour, svc, core2, leafA)
	if cache.Sweeps != 1 {
		t.Fatalf("sweeps = %d", cache.Sweeps)
	}
	if len(cache.entries) != 1 {
		t.Fatalf("len after sweep = %d, want 1", len(cache.entries))
	}
	if cache.Evictions != 1 {
		t.Errorf("evictions = %d", cache.Evictions)
	}
	// Before any deadline, misses must not trigger sweep passes.
	cache.Lookup(3*hour, svc, core2, leafB)
	if cache.Sweeps != 1 {
		t.Errorf("early miss swept: %d passes", cache.Sweeps)
	}
}

// TestCacheTTLLapseCapacityInteraction pins the eviction interplay: a
// TTL-lapsed entry is replaced in place (no capacity shed), while a new
// pair at capacity sheds everything.
func TestCacheTTLLapseCapacityInteraction(t *testing.T) {
	svc := New(Config{})
	cache := svc.NewCache(hour, 2)
	for i, dst := range []uint64{30, 31, 32} {
		svc.Register(0, mkSeg(t, 0, 10, 20+uint64(i), dst))
	}
	svc.Publish(0)
	dstA, dstB, dstC := addr.MustIA(1, 30), addr.MustIA(1, 31), addr.MustIA(1, 32)
	cache.Lookup(0, svc, core1, dstA)
	cache.Lookup(0, svc, core1, dstB)
	if len(cache.entries) != 2 {
		t.Fatalf("len = %d", len(cache.entries))
	}
	// TTL lapsed at 2h (segments alive until 6h): the re-lookup evicts
	// the lapsed entry and re-stores the same key — capacity must not
	// shed the other entry.
	if _, hit := cache.Lookup(2*hour, svc, core1, dstA); hit {
		t.Fatal("lapsed entry served as fresh")
	}
	if len(cache.entries) != 2 {
		t.Fatalf("len after in-place refresh = %d, want 2", len(cache.entries))
	}
	if cache.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1 (the lapsed entry only)", cache.Evictions)
	}
	// A third pair exceeds the cap: deterministic shed-all, then insert.
	cache.Lookup(2*hour, svc, core1, dstC)
	if len(cache.entries) != 1 {
		t.Fatalf("len after cap shed = %d, want 1", len(cache.entries))
	}
	if cache.Evictions != 3 {
		t.Errorf("evictions = %d, want 1 + cap(2)", cache.Evictions)
	}
	// The survivor is the new entry.
	if _, hit := cache.Lookup(2*hour, svc, core1, dstC); !hit {
		t.Error("freshly inserted entry missed")
	}
}
