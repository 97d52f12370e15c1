package pathsrv

import (
	"bytes"
	"testing"
	"time"

	"scionmpr/internal/addr"
	"scionmpr/internal/seg"
	"scionmpr/internal/sim"
	"scionmpr/internal/telemetry"
)

// poolScenario populates a service with a small mesh (2 sources x 6
// dests x 2 segments), schedules a closed-loop pool on top, and
// optionally injects a mid-run revocation storm from serial context.
func poolScenario(t testing.TB, workers int, seed int64, revoke bool) (PoolTotals, string) {
	t.Helper()
	clock := &sim.Simulator{}
	clock.SetWorkers(workers)
	reg := telemetry.NewRegistry()
	clock.SetTelemetry(reg)
	svc := New(Config{Shards: 8, Clock: clock, Telemetry: reg})

	sources := []addr.IA{addr.MustIA(1, 10), addr.MustIA(1, 11)}
	var dests []addr.IA
	for d := uint64(30); d < 36; d++ {
		dests = append(dests, addr.MustIA(1, addr.AS(d)))
	}
	for _, src := range sources {
		for _, dst := range dests {
			if err := svc.Register(0, mkSeg(t, 0, uint64(src.AS), 20, uint64(dst.AS))); err != nil {
				t.Fatal(err)
			}
			if err := svc.Register(0, mkSeg(t, 0, uint64(src.AS), 21, uint64(dst.AS))); err != nil {
				t.Fatal(err)
			}
		}
	}
	svc.Publish(0)

	pool, err := NewPool(clock, svc, reg, ClientConfig{
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
		CacheTTL:  sim.Time(500 * time.Millisecond),
		CacheCap:  64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if revoke {
		link := seg.LinkKey{IA: addr.MustIA(1, 20), If: 2}
		clock.At(sim.Time(800*time.Millisecond), func() {
			svc.RevokeLink(clock.Now(), link, sim.Time(300*time.Millisecond))
		})
		clock.At(sim.Time(1200*time.Millisecond), func() {
			svc.Publish(clock.Now()) // lapse pass
		})
	}
	clock.Run()

	var snap bytes.Buffer
	if err := reg.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	return pool.Totals(), snap.String()
}

func TestPoolClosedLoop(t *testing.T) {
	totals, snap := poolScenario(t, 1, 7, false)
	if totals.Lookups == 0 {
		t.Fatal("no lookups happened")
	}
	if totals.Hits == 0 {
		t.Error("cache never hit despite Zipf skew")
	}
	if totals.Empties != 0 {
		t.Errorf("%d empty replies in a fully-meshed scenario", totals.Empties)
	}
	if hr := totals.HitRate(); hr <= 0 || hr > 1 {
		t.Errorf("hit rate = %v", hr)
	}
	var perShardSum uint64
	for _, v := range totals.PerShard {
		perShardSum += v
	}
	if perShardSum != totals.Lookups {
		t.Errorf("per-shard counts sum to %d, want %d", perShardSum, totals.Lookups)
	}
	if im := totals.Imbalance(); im < 1 {
		t.Errorf("imbalance = %v, must be >= 1", im)
	}
	// Closed loop: ~500 endpoints looping every ~50ms for 2s.
	if totals.Lookups < 5000 || totals.Lookups > 40000 {
		t.Errorf("lookups = %d, outside the closed-loop envelope", totals.Lookups)
	}
	if !bytes.Contains([]byte(snap), []byte("pathsrv_lookups_total")) {
		t.Error("snapshot missing pool counters")
	}
}

func TestPoolDeterministicAcrossWorkers(t *testing.T) {
	t1, s1 := poolScenario(t, 1, 7, true)
	for _, w := range []int{2, 4} {
		tw, sw := poolScenario(t, w, 7, true)
		if totalsKey(t1) != totalsKey(tw) {
			t.Fatalf("workers=%d totals differ: %+v vs %+v", w, t1, tw)
		}
		if s1 != sw {
			t.Fatalf("workers=%d telemetry snapshot differs", w)
		}
	}
}

// totalsKey projects PoolTotals onto a comparable array; the per-shard
// slice is covered by the telemetry snapshot comparison.
func totalsKey(t PoolTotals) [5]uint64 {
	return [5]uint64{t.Lookups, t.Hits, t.Empties, t.CacheEvictions, t.CacheInvalidations}
}

func TestPoolRevocationInvalidates(t *testing.T) {
	totals, _ := poolScenario(t, 1, 7, true)
	if totals.CacheInvalidations == 0 {
		t.Error("mid-run revocation invalidated nothing")
	}
}

func TestPoolSeedSensitivity(t *testing.T) {
	a, _ := poolScenario(t, 1, 7, false)
	b, _ := poolScenario(t, 1, 8, false)
	if a.Lookups == b.Lookups && a.Hits == b.Hits {
		t.Error("different seeds produced identical totals")
	}
}

func TestPoolWithoutCache(t *testing.T) {
	clock := &sim.Simulator{}
	clock.SetWorkers(1)
	svc := New(Config{})
	svc.Register(0, mkSeg(t, 0, 10, 20, 30))
	svc.Publish(0)
	pool, err := NewPool(clock, svc, nil, ClientConfig{
		Endpoints: 10,
		Actors:    2,
		Sources:   []addr.IA{core1},
		Dests:     []addr.IA{leafA},
		MeanThink: 20 * time.Millisecond,
		Tick:      5 * time.Millisecond,
		End:       sim.Time(200 * time.Millisecond),
		CacheTTL:  0, // disabled
	})
	if err != nil {
		t.Fatal(err)
	}
	clock.Run()
	totals := pool.Totals()
	if totals.Lookups == 0 {
		t.Fatal("no lookups")
	}
	if totals.Hits != 0 {
		t.Error("hits without a cache")
	}
}

func TestPoolValidation(t *testing.T) {
	clock := &sim.Simulator{}
	svc := New(Config{})
	base := ClientConfig{
		Endpoints: 1,
		Sources:   []addr.IA{core1},
		Dests:     []addr.IA{leafA},
		End:       sim.Time(time.Second),
	}
	bad := base
	bad.Endpoints = 0
	if _, err := NewPool(clock, svc, nil, bad); err == nil {
		t.Error("zero endpoints accepted")
	}
	bad = base
	bad.Sources = nil
	if _, err := NewPool(clock, svc, nil, bad); err == nil {
		t.Error("no sources accepted")
	}
	bad = base
	bad.End = 0
	if _, err := NewPool(clock, svc, nil, bad); err == nil {
		t.Error("empty time window accepted")
	}
	// Actors are clamped to the endpoint count.
	p, err := NewPool(clock, svc, nil, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.actors) != 1 {
		t.Errorf("actors = %d, want clamped to 1", len(p.actors))
	}
}
