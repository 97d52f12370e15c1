package traffic

import (
	"bytes"
	"testing"
	"time"

	"scionmpr/internal/addr"
	"scionmpr/internal/sim"
	"scionmpr/internal/strategy"
	"scionmpr/internal/topology"
	"scionmpr/scion"
)

var (
	a1 = addr.MustIA(1, 0xff00_0000_0101)
	a4 = addr.MustIA(1, 0xff00_0000_0104)
	a6 = addr.MustIA(1, 0xff00_0000_0106)
	b3 = addr.MustIA(2, 0xff00_0000_0203)
)

func demoEngine(t *testing.T, sched string) (*scion.Network, *Engine) {
	t.Helper()
	n, err := scion.NewNetwork(topology.Demo(), scion.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	factory, err := strategy.New(sched)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(Config{
		Fabric:    n.Fabric(),
		Provider:  n.Paths,
		Links:     NewLinkModel(UniformCapacity(1e8)),
		Scheduler: func() strategy.Policy { f := factory(); return f },
	})
	if err != nil {
		t.Fatal(err)
	}
	return n, eng
}

func TestNewEngineValidation(t *testing.T) {
	if _, err := NewEngine(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

func TestSingleFlowCompletes(t *testing.T) {
	_, eng := demoEngine(t, "weighted")
	f := eng.Add(FlowSpec{ID: 1, Src: a6, Dst: a4, Start: time.Millisecond, Size: 4 << 20})
	s := eng.Run()
	if !f.Done() {
		t.Fatalf("flow not done: sent=%d failed=%v", f.Sent(), f.Failed())
	}
	if f.Sent() != 4<<20 {
		t.Errorf("sent = %d, want %d", f.Sent(), 4<<20)
	}
	if f.FCT() <= 0 {
		t.Errorf("fct = %v", f.FCT())
	}
	if g := f.Goodput(sim.Time(s.Elapsed)); g <= 0 {
		t.Errorf("goodput = %v", g)
	}
	if s.Completed != 1 || s.Failed != 0 || s.DeliveredBytes != 4<<20 {
		t.Errorf("summary = %+v", s)
	}
	if len(s.LinkUtil) == 0 {
		t.Error("no link utilization recorded")
	}
}

func TestMultipathBeatsSinglePath(t *testing.T) {
	// The same transfer over the same fabric: striping across paths must
	// not complete later than pinning to the single best path.
	fct := func(sched string) time.Duration {
		_, eng := demoEngine(t, sched)
		f := eng.Add(FlowSpec{ID: 1, Src: b3, Dst: a6, Start: 0, Size: 16 << 20})
		eng.Run()
		if !f.Done() {
			t.Fatalf("%s: flow not done", sched)
		}
		return f.FCT()
	}
	single := fct("single-best")
	multi := fct("weighted")
	if multi > single {
		t.Errorf("weighted fct %v > single-best fct %v", multi, single)
	}
}

func TestOpenEndedFlowRunsUntilDeadline(t *testing.T) {
	_, eng := demoEngine(t, "weighted")
	f := eng.Add(FlowSpec{ID: 7, Src: a6, Dst: a4, Start: 0, Size: 0})
	s := eng.RunUntil(200 * time.Millisecond)
	if f.Done() || f.Failed() {
		t.Fatal("open-ended flow should still be active")
	}
	if f.Sent() == 0 || s.Active != 1 {
		t.Errorf("sent=%d active=%d", f.Sent(), s.Active)
	}
}

func TestDeterministicSummaries(t *testing.T) {
	run := func() []byte {
		n, err := scion.NewNetwork(topology.Demo(), scion.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewEngine(Config{
			Fabric:   n.Fabric(),
			Provider: n.Paths,
			Links:    NewLinkModel(DefaultCapacity()),
		})
		if err != nil {
			t.Fatal(err)
		}
		specs := Generate(WorkloadParams{
			Flows:       200,
			Pairs:       [][2]addr.IA{{a6, a4}, {b3, a6}, {a4, b3}},
			ArrivalRate: 2000,
			MeanSize:    128 << 10,
			ZipfS:       1.2,
			Seed:        42,
		})
		for _, spec := range specs {
			eng.Add(spec)
		}
		var buf bytes.Buffer
		eng.Run().Print(&buf)
		return buf.Bytes()
	}
	first := run()
	if !bytes.Contains(first, []byte("flows: 200 total, 200 completed")) {
		t.Fatalf("unexpected summary:\n%s", first)
	}
	if second := run(); !bytes.Equal(first, second) {
		t.Errorf("same seed produced different summaries:\n--- first ---\n%s--- second ---\n%s", first, second)
	}
}

// TestFailoverWithinOneRTT is the revocation contract: a flow in progress
// abandons a revoked path as soon as the SCMP message arrives (within one
// RTT of the failure) and completes on the surviving paths.
func TestFailoverWithinOneRTT(t *testing.T) {
	n, eng := demoEngine(t, "weighted")
	f := eng.Add(FlowSpec{ID: 3, Src: b3, Dst: a6, Start: 0, Size: 32 << 20})

	// Discover the flow's first path and pick its second link so the SCMP
	// has to travel one hop back (one link RTT = 2 * 5ms one-way delay).
	fps, err := n.Paths(b3, a6)
	if err != nil || len(fps) == 0 {
		t.Fatal(err)
	}
	refs, err := fps[0].LinkRefs(n.Topo)
	if err != nil || len(refs) < 2 {
		t.Fatalf("short path: %v (%d links)", err, len(refs))
	}
	target := refs[1].Link

	const failAt = 20 * time.Millisecond
	var revokedAt sim.Time
	var bytesOnFailedAtRev float64
	onFailed := func() float64 {
		sum := 0.0
		for _, u := range eng.cfg.Links.Utilizations(time.Second) {
			if u.ID == target.ID {
				sum += u.Bytes
			}
		}
		return sum
	}
	eng.OnRevocation = func(_ *Flow, link topology.LinkID) {
		if link == target.ID && revokedAt == 0 {
			revokedAt = n.Clock().Now()
			bytesOnFailedAtRev = onFailed()
		}
	}
	n.Clock().Schedule(failAt, func() {
		// Control-plane revocation rides along (paper §4.1: path servers
		// learn of the failure too), so a re-query returns healthy paths.
		links := n.Topo.LinksBetween(target.A, target.B)
		for i, l := range links {
			if l.ID == target.ID {
				if _, err := n.FailLink(target.A, target.B, i); err != nil {
					t.Errorf("FailLink: %v", err)
				}
				return
			}
		}
		t.Error("target link not found")
	})

	eng.Run()

	if !f.Done() {
		t.Fatalf("flow did not complete after failover: sent=%d failed=%v", f.Sent(), f.Failed())
	}
	if eng.Revocations == 0 || f.Lost() == 0 {
		t.Fatalf("no revocation observed: revocations=%d lost=%d", eng.Revocations, f.Lost())
	}
	if revokedAt == 0 {
		t.Fatal("OnRevocation never fired for the failed link")
	}
	// One link RTT: head packet reaches the failure point one hop after
	// a6 (5ms) and the SCMP returns over the same hop (5ms).
	rtt := 2 * n.Fabric().Net.LinkDelay(target.ID)
	if got := time.Duration(revokedAt) - failAt; got > rtt+time.Millisecond {
		t.Errorf("revocation arrived %v after failure, want <= one RTT (%v)", got, rtt)
	}
	// Abandonment: not a single byte was admitted onto the revoked link
	// after the SCMP arrived.
	if final := onFailed(); final != bytesOnFailedAtRev {
		t.Errorf("revoked link kept carrying traffic: %v -> %v bytes", bytesOnFailedAtRev, final)
	}
	if f.PathSwitches() == 0 {
		t.Error("no path switch recorded")
	}
}

func TestAllPathsRevokedTriggersRequery(t *testing.T) {
	n, eng := demoEngine(t, "single-best")
	// a6 is dual-homed; fail both uplinks' continuation is overkill —
	// instead fail every initial link of the current path set so the flow
	// must re-query (control plane included, so fresh paths exist if the
	// topology still connects the pair).
	f := eng.Add(FlowSpec{ID: 9, Src: b3, Dst: a1, Start: 0, Size: 8 << 20})
	n.Clock().Schedule(10*time.Millisecond, func() {
		fps, err := n.Paths(b3, a1)
		if err != nil {
			t.Errorf("paths: %v", err)
			return
		}
		seen := map[topology.LinkID]bool{}
		for _, fp := range fps {
			refs, err := fp.LinkRefs(n.Topo)
			if err != nil || len(refs) == 0 {
				continue
			}
			l := refs[0].Link
			if seen[l.ID] {
				continue
			}
			seen[l.ID] = true
			links := n.Topo.LinksBetween(l.A, l.B)
			for i, cand := range links {
				if cand.ID == l.ID {
					if _, err := n.FailLink(l.A, l.B, i); err != nil {
						t.Errorf("FailLink: %v", err)
					}
				}
			}
		}
	})
	eng.Run()
	if !f.Done() && !f.Failed() {
		t.Fatal("flow neither done nor failed")
	}
	if f.Done() && f.requeries < 1 {
		t.Errorf("requeries = %d, want >= 1 (failover re-lookup)", f.requeries)
	}
}
