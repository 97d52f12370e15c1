package traffic

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"scionmpr/internal/addr"
	"scionmpr/internal/dataplane"
	"scionmpr/internal/sim"
	"scionmpr/internal/telemetry"
	"scionmpr/internal/topology"
	"scionmpr/scion"
)

// demoEngineTTL is demoEngine with fast revocation expiry on both the
// path servers and the fabric's source memories, so reinstatement fits
// in a millisecond-scale test.
func demoEngineTTL(t *testing.T, ttl time.Duration) (*scion.Network, *Engine) {
	t.Helper()
	opts := scion.DefaultOptions()
	opts.RevocationTTL = ttl
	n, err := scion.NewNetwork(topology.Demo(), opts)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(Config{
		Fabric:   n.Fabric(),
		Provider: n.Paths,
		Links:    NewLinkModel(UniformCapacity(1e8)),
	})
	if err != nil {
		t.Fatal(err)
	}
	return n, eng
}

// failByID fails (or restores) the identified link through the network's
// control-plane-aware entry points.
func toggleLink(t *testing.T, n *scion.Network, target *topology.Link, up bool) {
	t.Helper()
	links := n.Topo.LinksBetween(target.A, target.B)
	for i, l := range links {
		if l.ID != target.ID {
			continue
		}
		var err error
		if up {
			_, err = n.RestoreLink(target.A, target.B, i)
		} else {
			_, err = n.FailLink(target.A, target.B, i)
		}
		if err != nil {
			t.Errorf("toggle link %d: %v", target.ID, err)
		}
		return
	}
	t.Errorf("link %d not found between %s and %s", target.ID, target.A, target.B)
}

// TestRevocationExpiryReadoptsRestoredPath is the end-to-end recovery
// semantic of a transient failure: SCMP revokes a path mid-flow, the
// link heals, the soft revocation state expires on both the path servers
// and the source, and the flow's next re-probe readopts the restored
// path without ever having stopped.
func TestRevocationExpiryReadoptsRestoredPath(t *testing.T) {
	const ttl = 120 * time.Millisecond
	n, eng := demoEngineTTL(t, ttl)
	tracer := telemetry.NewTracer(1 << 12)
	n.Clock().SetTracer(tracer)
	f := eng.Add(FlowSpec{ID: 1, Src: b3, Dst: a6, Start: 0, Size: 0})

	fps, err := n.Paths(b3, a6)
	if err != nil || len(fps) < 2 {
		t.Fatalf("need a multipath pair: %v (%d paths)", err, len(fps))
	}
	refs, err := fps[0].LinkRefs(n.Topo)
	if err != nil || len(refs) < 2 {
		t.Fatalf("short path: %v", err)
	}
	target := refs[1].Link

	n.Clock().Schedule(20*time.Millisecond, func() { toggleLink(t, n, target, false) })
	n.Clock().Schedule(60*time.Millisecond, func() { toggleLink(t, n, target, true) })
	eng.RunUntil(500 * time.Millisecond)

	if f.reprobes == 0 {
		t.Fatalf("no re-probe after revocation expiry (engine reprobes=%d)", eng.Reprobes)
	}
	if f.inOutage || f.state != flowActive {
		t.Fatalf("flow should be running: disconnected=%v active=%v", f.inOutage, f.state == flowActive)
	}
	found := false
	for _, p := range f.paths {
		for _, ref := range p.links {
			if ref.Link.ID == target.ID {
				found = true
			}
		}
	}
	if !found {
		t.Error("restored link not readopted into the path set")
	}
	if len(f.Outages()) != 0 {
		t.Errorf("multipath flow should never have disconnected, outages=%v", f.Outages())
	}
	traced := 0
	for _, ev := range tracer.Events() {
		if ev.Kind == telemetry.FlowSwitch && ev.Reason == "reprobe" && ev.Actor == b3.Uint64() && ev.Subject == 1 {
			traced++
		}
	}
	if traced != f.reprobes {
		t.Errorf("%d reprobe switches traced, want one per re-probe (%d)", traced, f.reprobes)
	}
}

// TestOutageClosesAfterRestore cuts every link of the source AS: the flow
// records an outage window, and once the links heal and revocation state
// lapses it reconnects and resumes sending.
func TestOutageClosesAfterRestore(t *testing.T) {
	const ttl = 120 * time.Millisecond
	n, eng := demoEngineTTL(t, ttl)
	f := eng.Add(FlowSpec{ID: 2, Src: b3, Dst: a1, Start: 0, Size: 0})

	all := append([]*topology.Link(nil), n.Topo.AS(b3).Links...)
	n.Clock().Schedule(10*time.Millisecond, func() {
		for _, l := range all {
			toggleLink(t, n, l, false)
		}
	})
	n.Clock().Schedule(200*time.Millisecond, func() {
		for _, l := range all {
			toggleLink(t, n, l, true)
		}
	})
	var sentAtRestore int64
	n.Clock().Schedule(201*time.Millisecond, func() { sentAtRestore = f.Sent() })
	eng.RunUntil(800 * time.Millisecond)

	if len(f.Outages()) == 0 {
		t.Fatal("isolating the source AS recorded no outage")
	}
	if f.inOutage {
		t.Fatal("flow still disconnected after links restored and TTL lapsed")
	}
	if f.Failed() {
		t.Fatal("flow failed instead of riding out the outage")
	}
	if f.Sent() <= sentAtRestore {
		t.Errorf("no bytes delivered after restoration (%d at restore, %d at end)",
			sentAtRestore, f.Sent())
	}
}

// TestRetryBackoffSpacing pins the re-query schedule: consecutive empty
// lookups must be spaced by capped exponential backoff plus the seeded
// jitter, measured off the deterministic simulation clock. The expected
// spacings replay the engine's generator draw by draw.
func TestRetryBackoffSpacing(t *testing.T) {
	n, err := scion.NewNetwork(topology.Demo(), scion.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var calls []sim.Time
	provider := func(src, dst addr.IA) ([]*dataplane.FwdPath, error) {
		calls = append(calls, n.Clock().Now())
		return nil, fmt.Errorf("path service down")
	}
	const seed, maxDelay = 3, 400 * time.Millisecond
	eng, err := NewEngine(Config{
		Fabric:        n.Fabric(),
		Provider:      provider,
		RetryDelayMax: maxDelay,
		MaxRetries:    8,
		Seed:          seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	f := eng.Add(FlowSpec{ID: 3, Src: a6, Dst: a4, Start: 0, Size: 1 << 20})
	eng.Run()

	if !f.Failed() {
		t.Fatalf("flow should fail after %d empty lookups", 8)
	}
	// Base delays 50, 100, 200, 400 ms, then capped at 400 ms; each
	// plus up to 20 % jitter.
	rng := rand.New(rand.NewSource(seed))
	var want []time.Duration
	for attempt := 1; attempt < 8; attempt++ {
		d := float64(retryDelay) * math.Pow(retryBackoff, float64(attempt-1))
		d = math.Min(d, float64(maxDelay))
		want = append(want, time.Duration(d+d*retryJitter*rng.Float64()))
	}
	if len(calls) != len(want)+1 {
		t.Fatalf("provider called %d times, want %d", len(calls), len(want)+1)
	}
	for i, w := range want {
		if got := time.Duration(calls[i+1] - calls[i]); got != w {
			t.Errorf("spacing %d: got %v, want %v", i, got, w)
		}
	}
}

// TestRetryJitterDeterministic: with jitter enabled, two engines with the
// same seed must produce identical re-query timestamps, and a different
// seed must not.
func TestRetryJitterDeterministic(t *testing.T) {
	timestamps := func(seed int64) []sim.Time {
		n, err := scion.NewNetwork(topology.Demo(), scion.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		var calls []sim.Time
		provider := func(src, dst addr.IA) ([]*dataplane.FwdPath, error) {
			calls = append(calls, n.Clock().Now())
			return nil, fmt.Errorf("down")
		}
		eng, err := NewEngine(Config{
			Fabric:   n.Fabric(),
			Provider: provider, MaxRetries: 6, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		eng.Add(FlowSpec{ID: 1, Src: a6, Dst: a4, Start: 0, Size: 1 << 20})
		eng.Run()
		return calls
	}
	a, b := timestamps(5), timestamps(5)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("call counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at call %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := timestamps(6)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical jittered schedules")
	}
}
