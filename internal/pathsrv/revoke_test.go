package pathsrv

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"

	"scionmpr/internal/addr"
	"scionmpr/internal/seg"
	"scionmpr/internal/sim"
	"scionmpr/internal/telemetry"
)

// linkOf is the link mkSeg's segments leave AS as over: every hop but
// the last egresses on interface 2.
func linkOf(as uint64) seg.LinkKey {
	return seg.LinkKey{IA: addr.MustIA(1, addr.AS(as)), If: 2}
}

// checkpointLinks are the links checkpointScenario's segments use, plus
// one nothing uses.
var checkpointLinks = []seg.LinkKey{
	linkOf(10), linkOf(11), linkOf(20), linkOf(21), linkOf(22), linkOf(23), linkOf(99),
}

// checkpointScenario journals a fixed history that leaves every kind of
// state a checkpoint carries: two epochs of registrations, a refresh, a
// revocation still active and one lapsed, an expiry prune, a hidden
// segment past its expiry and a pending registration.
func checkpointScenario(tb testing.TB) *walScenario {
	tb.Helper()
	sc := newWALScenario(Config{Shards: 8, RevocationTTL: hour})
	for _, hops := range [][]uint64{
		{10, 20, 30}, {10, 21, 30}, {10, 20, 31}, {11, 22, 32},
		{11, 20, 22, 33}, {10, 23, 34}, {11, 21, 23, 34},
	} {
		sc.register(0, mkSeg(tb, 0, hops...))
	}
	sc.publish(0)
	sc.revoke(hour, linkOf(20), 0) // lapses at 2h
	sc.register(hour, mkSeg(tb, hour, 10, 20, 30))
	sc.register(hour, mkSeg(tb, hour, 11, 21, 31))
	sc.publish(hour)
	sc.revoke(2*hour, linkOf(23), 10*hour)
	sc.publish(3 * hour)
	sc.register(4*hour, mkSeg(tb, 4*hour, 10, 21, 35))
	sc.publish(4 * hour)
	sc.publish(6*hour + 1)
	sc.register(6*hour+1, mkSeg(tb, 6*hour+1, 11, 22, 30))
	return sc
}

// goldenCheckpoint is the SHA-256 of checkpointScenario's checkpoint
// image, recorded at the parent of the commit that replaced the per-link
// shard mask by a link index: the format is unchanged.
const goldenCheckpoint = "ab908beb8621e910cf228b8ffc71799e30e54767678e6275c96d9ac29f0e6677"

func TestCheckpointGolden(t *testing.T) {
	sum := sha256.Sum256(appendCheckpoint(nil, checkpointScenario(t).svc))
	if got := hex.EncodeToString(sum[:]); got != goldenCheckpoint {
		t.Errorf("checkpoint image SHA-256 = %s, want %s", got, goldenCheckpoint)
	}
}

// tracedTwins attaches a fresh traced clock to both services.
func tracedTwins(a, b *Service) (ta, tb *telemetry.Tracer) {
	ta, tb = telemetry.NewTracer(1<<12), telemetry.NewTracer(1<<12)
	ca, cb := &sim.Simulator{}, &sim.Simulator{}
	ca.SetTracer(ta)
	cb.SetTracer(tb)
	a.clock = ca
	b.clock = cb
	return ta, tb
}

// twinChecker returns the comparison run after each operation on a live
// service and on one derived from it: equal return values, digests and
// trace events, and the segment index's invariants on both.
func twinChecker(t *testing.T, live, got *Service) func(what string, a, b int) {
	ta, tb := tracedTwins(live, got)
	return func(what string, a, b int) {
		t.Helper()
		if a != b {
			t.Fatalf("%s: live returned %d, recovered %d", what, a, b)
		}
		if live.Digest() != got.Digest() {
			t.Fatalf("%s: digests differ", what)
		}
		if !reflect.DeepEqual(ta.Events(), tb.Events()) {
			t.Fatalf("%s: trace events differ", what)
		}
		for _, s := range []*Service{live, got} {
			if err := checkIndex(s); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		}
	}
}

// assertSameUnderChurn revokes and reinstates every link on a live
// service and on one recovered from it, asserting equal return values,
// digests and trace events after each operation and equal checkpoint
// images before and after.
func assertSameUnderChurn(t *testing.T, live, got *Service, now sim.Time) {
	t.Helper()
	if !bytes.Equal(appendCheckpoint(nil, live), appendCheckpoint(nil, got)) {
		t.Fatal("checkpoint image differs before churn")
	}
	check := twinChecker(t, live, got)
	for _, lk := range checkpointLinks {
		check("revoke "+lk.String(), live.RevokeLink(now, lk, hour), got.RevokeLink(now, lk, hour))
		check("revoke again "+lk.String(), live.RevokeLink(now, lk, hour), got.RevokeLink(now, lk, hour))
	}
	for _, lk := range checkpointLinks[:3] {
		check("reinstate "+lk.String(), live.ReinstateLink(now, lk), got.ReinstateLink(now, lk))
	}
	later := now + 2*hour
	check("lapse", live.Publish(later), got.Publish(later))
	for _, lk := range checkpointLinks {
		check("revoke late "+lk.String(), live.RevokeLink(later, lk, hour), got.RevokeLink(later, lk, hour))
		check("reinstate late "+lk.String(), live.ReinstateLink(later, lk), got.ReinstateLink(later, lk))
	}
	check("expiry", live.Publish(later+6*hour), got.Publish(later+6*hour))
	if !bytes.Equal(appendCheckpoint(nil, live), appendCheckpoint(nil, got)) {
		t.Fatal("checkpoint image differs after churn")
	}
}

// TestDerivedStateAfterRestart: what a service derives rather than
// journals must come back from the journal and from a checkpoint as the
// live service holds it.
func TestDerivedStateAfterRestart(t *testing.T) {
	cfg := Config{Shards: 8, RevocationTTL: hour}
	now := 6*hour + 1
	t.Run("journal", func(t *testing.T) {
		sc := checkpointScenario(t)
		got, st := Recover(sc.wal.Bytes(), cfg)
		if st.Truncated || st.Checkpoints != 0 {
			t.Fatalf("stats = %+v", st)
		}
		assertSameUnderChurn(t, sc.svc, got, now)
	})
	t.Run("checkpoint", func(t *testing.T) {
		sc := checkpointScenario(t)
		sc.wal.Checkpoint(now, sc.svc)
		got, st := Recover(sc.wal.Bytes(), cfg)
		if st.Truncated || st.Checkpoints != 1 {
			t.Fatalf("stats = %+v", st)
		}
		assertSameUnderChurn(t, sc.svc, got, now)
	})
	// A revocation counted before the checkpoint must be lifted by a
	// reinstatement after it.
	t.Run("revoked across checkpoint", func(t *testing.T) {
		sc := checkpointScenario(t)
		sc.revoke(now, linkOf(21), 0)
		sc.wal.Checkpoint(now, sc.svc)
		got, _ := Recover(sc.wal.Bytes(), cfg)
		check := twinChecker(t, sc.svc, got)
		n := sc.svc.ReinstateLink(now, linkOf(21))
		if check("reinstate after recovery", n, got.ReinstateLink(now, linkOf(21))); n == 0 {
			t.Fatal("reinstating changed no pair")
		}
		assertSameUnderChurn(t, sc.svc, got, now)
	})
	// A segment registered over a revoked link is counted as it is
	// indexed, live and in the replay.
	t.Run("registered while revoked", func(t *testing.T) {
		sc := checkpointScenario(t)
		sc.revoke(now, linkOf(22), 0)
		sc.register(now, mkSeg(t, now, 10, 22, 36))
		sc.publish(now)
		if segs, _ := sc.svc.Lookup(now, core1, addr.MustIA(1, 36)); len(segs) != 0 {
			t.Fatal("segment over a revoked link is served")
		}
		got, _ := Recover(sc.wal.Bytes(), cfg)
		check := twinChecker(t, sc.svc, got)
		n := sc.svc.ReinstateLink(now, linkOf(22))
		if check("reinstate after replay", n, got.ReinstateLink(now, linkOf(22))); n == 0 {
			t.Fatal("reinstating changed no pair")
		}
		assertSameUnderChurn(t, sc.svc, got, now)
	})
}

// TestSyncKeepsIndexBounded: ids left dead by expiry are dropped, so a
// hundred rounds of register/revoke/publish, in which every segment
// expires, leave a service no more ids than twice its master segments,
// and so does every recovery of its journal, checkpointed or not.
func TestSyncKeepsIndexBounded(t *testing.T) {
	cfg := Config{Shards: 4, RevocationTTL: hour}
	sc := newWALScenario(cfg)
	const perRound = 6
	held := func(s *Service) (n int) {
		for _, master := range s.master {
			for _, pm := range master {
				n += len(pm.segs)
			}
		}
		return n
	}
	for round := 0; round < 100; round++ {
		now := sim.Time(round) * hour / 4 // segments live 6 h: 24 rounds
		for i := 0; i < perRound; i++ {
			sc.register(now, mkSeg(t, now, 10+uint64(i%2), 20+uint64(round%9), uint64(100+round), uint64(30+i)))
		}
		sc.revoke(now, linkOf(20+uint64(round%9)), hour)
		sc.publish(now)
		if round%10 == 9 {
			sc.wal.Checkpoint(now, sc.svc)
		}
		got, st := Recover(sc.wal.Bytes(), cfg)
		if st.Truncated {
			t.Fatalf("round %d: recovery truncated", round)
		}
		if got.Digest() != sc.svc.Digest() {
			t.Fatalf("round %d: recovered digest differs", round)
		}
		for _, s := range []*Service{sc.svc, got} {
			if err := checkIndex(s); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			if n, live := len(s.segs), held(s); n > 2*live {
				t.Fatalf("round %d: %d ids for %d segments", round, n, live)
			}
		}
	}
	if sc.wal.Checkpoints != 10 {
		t.Fatalf("%d checkpoints, want 10", sc.wal.Checkpoints)
	}
}

// oneOfMany publishes pairs (source, destination) pairs over 16 shards.
// Every segment leaves the source over one shared link and then crosses
// its pair's own link, which perLink consecutive pairs share; it returns
// the service and those own links.
func oneOfMany(tb testing.TB, pairs, segsPerPair, perLink int) (*Service, []seg.LinkKey) {
	tb.Helper()
	svc := New(Config{Shards: 16})
	var links []seg.LinkKey
	for d := 0; d < pairs; d++ {
		mid := uint64(100_000 + d/perLink)
		if d%perLink == 0 {
			links = append(links, linkOf(mid))
		}
		hops := []uint64{10, mid}
		for i := 0; i < segsPerPair; i++ {
			if err := svc.Register(0, mkSeg(tb, 0, append(hops, uint64(1000+d))...)); err != nil {
				tb.Fatal(err)
			}
			hops = append(hops, uint64(200_000+i))
		}
	}
	svc.Publish(0)
	return svc, links
}

// TestRevokeCostFollowsTouchedPairs: revoking a link only one pair uses
// must cost what that pair costs, not what its shard holds. Each of the
// revocation and the reinstatement allocates four times: the snapshot, its
// entries slice, the pair's visible segments and the changed-pair list. A
// per-shard map copy would allocate more.
func TestRevokeCostFollowsTouchedPairs(t *testing.T) {
	for _, size := range []struct{ pairs, segs int }{{512, 1}, {4096, 1}, {512, 6}} {
		svc, links := oneOfMany(t, size.pairs, size.segs, 1)
		link := links[len(links)/2]
		if n := svc.RevokeLink(0, link, hour); n != 1 {
			t.Fatalf("%+v: revoke changed %d pairs, want 1", size, n)
		}
		svc.ReinstateLink(0, link)
		allocs := testing.AllocsPerRun(20, func() {
			svc.RevokeLink(0, link, hour)
			svc.ReinstateLink(0, link)
		})
		if allocs > 8 {
			t.Errorf("%d pairs x %d segments: revoke+reinstate allocates %v, want at most 8",
				size.pairs, size.segs, allocs)
		}
	}
}

// BenchmarkRevokeOneOfMany is shaped like lookup_churn's writer: many
// links, each on a few pairs, revoked and reinstated in turn. The
// pairs=8192 leg shows what copying a republished shard's entries slice
// costs, and the segs=32 leg what filtering a touched pair's segments does.
func BenchmarkRevokeOneOfMany(b *testing.B) {
	for _, leg := range []struct{ pairs, segs int }{{1024, 4}, {8192, 4}, {1024, 32}} {
		b.Run(fmt.Sprintf("pairs=%d/segs=%d", leg.pairs, leg.segs), func(b *testing.B) {
			svc, links := oneOfMany(b, leg.pairs, leg.segs, 4)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lk := links[i%len(links)]
				svc.RevokeLink(0, lk, hour)
				svc.ReinstateLink(0, lk)
			}
		})
	}
}
