package pathsrv

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"scionmpr/internal/addr"
	"scionmpr/internal/chaos"
	"scionmpr/internal/seg"
	"scionmpr/internal/sim"
	"scionmpr/internal/telemetry"
	"scionmpr/internal/topology"
)

// upCount counts the fleet's running replicas.
func upCount(f *Fleet) int {
	n := 0
	for _, r := range f.reps {
		if !r.down {
			n++
		}
	}
	return n
}

// TestFleetKillRecoverTwin is the kill-and-recover invariant: a crashed
// replica replays its WAL back to the exact pre-crash digest, and one
// anti-entropy round brings it to its never-crashed twin's digest.
func TestFleetKillRecoverTwin(t *testing.T) {
	f := NewFleet(FleetConfig{Replicas: 2, Service: Config{Shards: 8}, CheckpointEvery: 8})
	for i := uint64(0); i < 6; i++ {
		f.Register(0, mkSeg(t, 0, 10, 20+i, 30))
	}
	f.Publish(0)
	d0 := f.Replica(0).Service().Digest()
	if f.Replica(1).Service().Digest() != d0 {
		t.Fatal("twins diverge before any crash")
	}

	ia := f.Replica(1).IA
	f.Crash(ia)
	r1 := f.Replica(1)
	if !r1.Down() || upCount(f) != 1 {
		t.Fatal("crash did not take the replica down")
	}
	if _, _, ok := r1.Lookup(0, core1, leafA); ok {
		t.Fatal("crashed replica answered a lookup")
	}
	f.Crash(ia) // idempotent
	if r1.Crashes != 1 {
		t.Fatalf("Crashes = %d", r1.Crashes)
	}

	// The survivor keeps absorbing the feed: divergence.
	f.Register(hour, mkSeg(t, hour, 11, 40, 41))
	f.Publish(hour)

	f.Restart(ia)
	if r1.Down() || r1.Recoveries != 1 || r1.LastReplayed == 0 {
		t.Fatalf("restart: down=%v recoveries=%d replayed=%d",
			r1.Down(), r1.Recoveries, r1.LastReplayed)
	}
	// WAL replay reproduces exactly the journaled (pre-crash) state...
	if r1.Service().Digest() != d0 {
		t.Fatal("replay did not reproduce the pre-crash digest")
	}
	// ...which now trails the survivor.
	if r1.Service().Digest() == f.Replica(0).Service().Digest() {
		t.Fatal("no divergence despite missed mutations")
	}

	// One anti-entropy round heals it.
	st := f.Sync(2 * hour)
	if st.Leader != 0 || st.Pulls != 1 || st.PulledShards == 0 {
		t.Fatalf("sync stats = %+v", st)
	}
	if r1.Service().Digest() != f.Replica(0).Service().Digest() {
		t.Fatal("digests differ after one anti-entropy round")
	}
	// A converged fleet syncs as a no-op.
	if st := f.Sync(2 * hour); st.Pulls != 0 || st.PulledShards != 0 {
		t.Fatalf("converged sync pulled: %+v", st)
	}

	// And the healed replica tracks the feed from here on.
	f.Register(3*hour, mkSeg(t, 3*hour, 12, 50, 51))
	f.Publish(3 * hour)
	if r1.Service().Digest() != f.Replica(0).Service().Digest() {
		t.Fatal("healed replica diverged on the next publication")
	}
}

func TestFleetRevokeReinstateFanOut(t *testing.T) {
	f := NewFleet(FleetConfig{Replicas: 2, Service: Config{Shards: 4}})
	f.Register(0, mkSeg(t, 0, 10, 20, 30))
	f.Publish(0)
	link := seg.LinkKey{IA: addr.MustIA(1, 20), If: 2}
	f.RevokeLink(0, link, hour)
	for _, r := range f.Replicas() {
		if got, _, ok := r.Lookup(0, core1, leafA); !ok || len(got) != 0 {
			t.Fatalf("replica %d still serves the revoked path", r.ID)
		}
	}
	f.ReinstateLink(0, link)
	for _, r := range f.Replicas() {
		if got, _, _ := r.Lookup(0, core1, leafA); len(got) != 1 {
			t.Fatalf("replica %d did not reinstate", r.ID)
		}
	}
	if f.Replica(0).Service().Digest() != f.Replica(1).Service().Digest() {
		t.Fatal("fan-out left the twins diverged")
	}
	if f.Size() != 2 {
		t.Errorf("size = %d, want 2", f.Size())
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
	eng := chaos.NewEngine(clock)
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

func TestWireChaosFleetFansOut(t *testing.T) {
	g := topology.Demo()
	l := g.Links[0]
	clock := &sim.Simulator{}
	f := NewFleet(FleetConfig{Replicas: 2})
	eng := chaos.NewEngine(clock)
	WireChaosFleet(clock, eng, g, f, hour)
	eng.OnFail(l.ID)
	eng.OnRestore(l.ID)
	eng.OnFail(topology.LinkID(1 << 30)) // unknown: ignored
	for _, r := range f.Replicas() {
		if r.Service().Revocations != 2 || r.Service().Reinstatements != 2 {
			t.Fatalf("replica %d: rev=%d rein=%d", r.ID,
				r.Service().Revocations, r.Service().Reinstatements)
		}
	}
}

func TestFleetCrashTargetIgnoresUnknownIAs(t *testing.T) {
	f := NewFleet(FleetConfig{Replicas: 2})
	f.Crash(addr.MustIA(1, 99))   // a beacon server, not a replica
	f.Restart(addr.MustIA(1, 99)) // must not panic either
	if upCount(f) != 2 {
		t.Fatalf("up = %d after unrelated CrashAS", upCount(f))
	}
}

func TestFleetCheckpointsBoundReplay(t *testing.T) {
	f := NewFleet(FleetConfig{Replicas: 1, Service: Config{Shards: 4}, CheckpointEvery: 10})
	r := f.Replica(0)
	for i := 0; i < 64; i++ {
		f.Register(0, mkSeg(t, 0, 10, 20+uint64(i%8), 30))
		f.Publish(0)
	}
	if r.WAL().Checkpoints == 0 {
		t.Fatal("no checkpoint despite 128 journaled records at budget 10")
	}
	// The compacted WAL replays in O(tail), not O(history).
	if r.WAL().Records > 2*10 {
		t.Fatalf("WAL holds %d records, budget 10", r.WAL().Records)
	}
	ia := r.IA
	f.Crash(ia)
	f.Restart(ia)
	if r.LastReplayed > 2*10 {
		t.Fatalf("recovery replayed %d records, budget 10", r.LastReplayed)
	}
}

// TestAntiEntropySyncBoundsStaleness drives a live feed on a simulator:
// a replica that recovers mid-run is back at the fleet digest at most
// one sync period after its restart, and stays there.
func TestAntiEntropySyncBoundsStaleness(t *testing.T) {
	clock := &sim.Simulator{}
	reg := telemetry.NewRegistry()
	clock.SetTelemetry(reg)
	f := NewFleet(FleetConfig{
		Replicas:  3,
		Service:   Config{Shards: 8},
		Clock:     clock,
		Telemetry: reg,
	})
	end := sim.Time(3 * time.Second)
	i := uint64(0)
	clock.Every(0, 100*time.Millisecond, end, func(now sim.Time) {
		f.Register(now, mkSeg(t, now, 10, 20+i%8, 30+i%4))
		f.Publish(now)
		i++
	})
	clock.Every(250*time.Millisecond, 500*time.Millisecond, end, func(now sim.Time) {
		f.Sync(now)
	})
	ia := f.Replica(2).IA
	clock.At(sim.Time(time.Second)+1, func() { f.Crash(ia) })
	clock.At(sim.Time(2*time.Second)+1, func() { f.Restart(ia) })
	// Restart at ~2s, sync sweeps at 2.25s and 2.75s: by 2.3s the replica
	// must be converged (bounded staleness: one sync period), and every
	// instant after stays converged because it rejoined the feed.
	for _, at := range []time.Duration{2300 * time.Millisecond, 2800 * time.Millisecond} {
		clock.At(sim.Time(at), func() {
			want := f.Replica(0).Service().Digest()
			if got := f.Replica(2).Service().Digest(); got != want {
				t.Errorf("t=%v: recovered replica still stale", at)
			}
		})
	}
	clock.Run()
	if f.Rounds == 0 || f.Pulls == 0 {
		t.Fatalf("rounds=%d pulls=%d: anti-entropy never pulled", f.Rounds, f.Pulls)
	}
	if got := f.Replica(2).LastRecoveryLag; got != sim.Time(time.Second) {
		t.Errorf("recovery lag = %v, want 1s", time.Duration(got))
	}
	if v := reg.Counter("pathsrv_replica_crashes_total").Value(); v != 1 {
		t.Errorf("telemetry crashes = %d", v)
	}
	if v := reg.Counter("pathsrv_antientropy_pulls_total").Value(); v == 0 {
		t.Error("telemetry pulls = 0")
	}
}

// fleetPoolScenario runs a closed-loop pool against a 3-replica fleet
// with a total outage window [800ms, 1300ms): clients must ride it out
// on timeouts, backoff and stale cache serves.
func fleetPoolScenario(t testing.TB, workers int, seed int64) (PoolTotals, string) {
	t.Helper()
	clock := &sim.Simulator{}
	clock.SetWorkers(workers)
	reg := telemetry.NewRegistry()
	clock.SetTelemetry(reg)
	f := NewFleet(FleetConfig{
		Replicas:  3,
		Service:   Config{Shards: 8},
		Clock:     clock,
		Telemetry: reg,
	})

	sources := []addr.IA{addr.MustIA(1, 10), addr.MustIA(1, 11)}
	var dests []addr.IA
	for d := uint64(30); d < 36; d++ {
		dests = append(dests, addr.MustIA(1, addr.AS(d)))
	}
	for _, src := range sources {
		for _, dst := range dests {
			f.Register(0, mkSeg(t, 0, uint64(src.AS), 20, uint64(dst.AS)))
			f.Register(0, mkSeg(t, 0, uint64(src.AS), 21, uint64(dst.AS)))
		}
	}
	f.Publish(0)

	pool, err := NewFleetPool(clock, f, reg, ClientConfig{
		Endpoints: 500,
		Actors:    8,
		Sources:   sources,
		Dests:     dests,
		ZipfS:     1.2,
		MeanThink: 50 * time.Millisecond,
		MinThink:  5 * time.Millisecond,
		Tick:      10 * time.Millisecond,
		Start:     0,
		End:       sim.Time(2 * time.Second),
		Seed:      seed,
		// A short TTL so cached entries are stale — not fresh — during
		// the blackout: the serve-stale path must carry the load.
		CacheTTL:    sim.Time(200 * time.Millisecond),
		CacheCap:    64,
		RetryBudget: 2,
		BackoffBase: 20 * time.Millisecond,
		BackoffMax:  160 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range f.Replicas() {
		ia := r.IA
		clock.At(sim.Time(800*time.Millisecond), func() { f.Crash(ia) })
		clock.At(sim.Time(1300*time.Millisecond), func() { f.Restart(ia) })
	}
	clock.Run()

	var b bytes.Buffer
	if err := reg.WriteSnapshot(&b); err != nil {
		t.Fatal(err)
	}
	return pool.Totals(), b.String()
}

func TestFleetPoolRidesOutTotalOutage(t *testing.T) {
	totals, snap := fleetPoolScenario(t, 1, 7)
	if totals.Lookups == 0 {
		t.Fatal("no lookups happened")
	}
	if totals.Timeouts == 0 {
		t.Error("blackout produced no timeouts")
	}
	if totals.StaleServes == 0 {
		t.Error("no stale serves during the blackout")
	}
	if totals.Retries == 0 {
		t.Error("failover never retried another replica")
	}
	if sr := totals.SuccessRate(); sr < 0.5 || sr > 1 {
		t.Errorf("success rate = %v", sr)
	}
	if st := totals.StaleRate(); st <= 0 || st > 1 {
		t.Errorf("stale rate = %v", st)
	}
	if totals.CacheSweeps == 0 && totals.StaleCacheHits == 0 {
		t.Error("cache stale/sweep counters never moved")
	}
	if totals.Failures == totals.Lookups {
		t.Error("every lookup failed")
	}
	for _, want := range []string{
		"pathsrv_client_timeouts_total",
		"pathsrv_client_stale_serves_total",
		"pathsrv_replica_crashes_total",
	} {
		if !strings.Contains(snap, want) {
			t.Errorf("snapshot missing %s", want)
		}
	}
}

// TestFleetPoolDeterministicAcrossWorkers pins the failover machinery —
// timeouts, backoff jitter, retry budgets, stale serves, recovery — to
// identical totals and telemetry for every worker count.
func TestFleetPoolDeterministicAcrossWorkers(t *testing.T) {
	refTotals, refSnap := fleetPoolScenario(t, 1, 3)
	for _, w := range []int{2, 8} {
		totals, snap := fleetPoolScenario(t, w, 3)
		if fmt.Sprintf("%+v", totals) != fmt.Sprintf("%+v", refTotals) {
			t.Errorf("workers=%d: totals diverge\n%+v\n%+v", w, totals, refTotals)
		}
		if snap != refSnap {
			t.Errorf("workers=%d: telemetry snapshot diverges", w)
		}
	}
}

func TestFleetPoolValidation(t *testing.T) {
	clock := &sim.Simulator{}
	if _, err := NewFleetPool(clock, nil, nil, ClientConfig{}); err == nil {
		t.Error("nil fleet accepted")
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

func TestCacheLookupStale(t *testing.T) {
	svc := New(Config{})
	cache := svc.NewCache(sim.Time(time.Minute), 0)
	svc.Register(0, mkSeg(t, 0, 10, 20, 30))           // expires 6h
	svc.Register(2*hour, mkSeg(t, 2*hour, 10, 21, 30)) // expires 8h
	svc.Publish(2 * hour)
	cache.Lookup(2*hour, svc, core1, leafA)

	// Nothing cached for an unknown pair.
	if got := cache.LookupStale(2*hour, core1, leafB); got != nil {
		t.Fatal("stale lookup invented a reply")
	}
	// Within minExpiry the whole reply serves, TTL notwithstanding.
	if got := cache.LookupStale(5*hour, core1, leafA); len(got) != 2 {
		t.Fatalf("stale lookup = %d segments, want 2", len(got))
	}
	// Past the first segment's death only the survivor serves.
	if got := cache.LookupStale(7*hour, core1, leafA); len(got) != 1 {
		t.Fatalf("stale lookup = %d segments, want the 1 survivor", len(got))
	}
	// The entry is kept for the next outage instant.
	if len(cache.entries) != 1 {
		t.Fatal("stale serve dropped the entry")
	}
	// Past every segment's death nothing serves.
	if got := cache.LookupStale(9*hour, core1, leafA); got != nil {
		t.Fatal("fully expired entry served")
	}
	if cache.StaleHits != 2 {
		t.Errorf("stale hits = %d", cache.StaleHits)
	}
}
