package scion

import (
	"testing"
	"time"

	"scionmpr/internal/addr"
	"scionmpr/internal/dataplane"
	"scionmpr/internal/seg"
	"scionmpr/internal/sim"
	"scionmpr/internal/telemetry"
	"scionmpr/internal/topology"
	"scionmpr/internal/traffic"
)

// activeFirstLink resolves the first inter-domain link of h's active path.
func activeFirstLink(t *testing.T, n *Network, h *Host) *topology.Link {
	t.Helper()
	p := h.activePath()
	if p == nil {
		t.Fatal("no active path")
	}
	refs, err := p.LinkRefs(n.Topo)
	if err != nil || len(refs) == 0 {
		t.Fatalf("link refs: %v (%d)", err, len(refs))
	}
	return refs[0].Link
}

// usesLink reports whether h's active path crosses l.
func usesLink(t *testing.T, n *Network, h *Host, l *topology.Link) bool {
	t.Helper()
	refs, err := h.activePath().LinkRefs(n.Topo)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range refs {
		if r.Link.ID == l.ID {
			return true
		}
	}
	return false
}

// TestLinkFailureTriggersRevocationAndFailover fails a link on the data
// plane only: the control plane still serves it, so the host learns of
// the failure from the SCMP revocation alone and fails over on it.
func TestLinkFailureTriggersRevocationAndFailover(t *testing.T) {
	n := demoNet(t)
	src, _ := n.Host(a6, 10, 0, 0, 1)
	dst, _ := n.Host(a4, 10, 0, 0, 2)
	delivered := 0
	dst.OnReceive(func(addr.Host, []byte) { delivered++ })
	var revoked seg.LinkKey
	n.Fabric().AddSCMP(a6, func(m *dataplane.SCMP) { revoked = m.Link })

	if err := src.Send(dst.Addr, []byte("1")); err != nil {
		t.Fatal(err)
	}
	n.Run()
	link := activeFirstLink(t, n, src)
	n.Fabric().FailLink(link.ID)

	if err := src.Send(dst.Addr, []byte("2")); err != nil {
		t.Fatal(err)
	}
	n.Run()
	if delivered != 1 {
		t.Fatalf("delivered = %d, want 1: a packet crossed the failed link", delivered)
	}
	if revoked == (seg.LinkKey{}) {
		t.Fatal("no revocation received")
	}
	if src.activePath() == nil {
		t.Fatal("no failover path")
	}
	if usesLink(t, n, src, link) {
		t.Error("failover path still uses the failed link")
	}
	if err := src.Send(dst.Addr, []byte("3")); err != nil {
		t.Fatal(err)
	}
	n.Run()
	if delivered != 2 {
		t.Errorf("delivered = %d after failover, want 2", delivered)
	}
	if _, failovers := src.Stats(); failovers != 1 {
		t.Errorf("failovers = %d, want 1", failovers)
	}
}

// TestHostFailoverTraced: a host's failover on SCMP is a flow_switch
// trace event naming the source AS, the host's IPv4 address and the
// path index switched to.
func TestHostFailoverTraced(t *testing.T) {
	opts := DefaultOptions()
	opts.Tracer = telemetry.NewTracer(1 << 10)
	n, err := NewNetwork(topology.Demo(), opts)
	if err != nil {
		t.Fatal(err)
	}
	src, _ := n.Host(a6, 10, 0, 0, 1)
	dst, _ := n.Host(a4, 10, 0, 0, 2)
	if err := src.Send(dst.Addr, nil); err != nil {
		t.Fatal(err)
	}
	n.Run()
	n.Fabric().FailLink(activeFirstLink(t, n, src).ID)
	if err := src.Send(dst.Addr, nil); err != nil {
		t.Fatal(err)
	}
	n.Run()
	var got []telemetry.Event
	for _, ev := range opts.Tracer.Events() {
		if ev.Kind == telemetry.FlowSwitch {
			got = append(got, ev)
		}
	}
	if len(got) != 1 || got[0].Reason != "scmp" || got[0].Actor != a6.Uint64() ||
		got[0].Subject != 0x0a000001 || got[0].Aux != uint64(src.active) {
		t.Errorf("flow_switch events = %+v, want one scmp switch of 10.0.0.1 in A-6 to path %d", got, src.active)
	}
}

// TestEndpointExhaustion fails both of A-6's links on the data plane: each
// send revokes one, until no path is left. The next send looks the paths
// up afresh.
func TestEndpointExhaustion(t *testing.T) {
	n := demoNet(t)
	src, _ := n.Host(a6, 10, 0, 0, 1)
	dst, _ := n.Host(a4, 10, 0, 0, 2)
	for _, l := range n.Topo.AS(a6).Links {
		n.Fabric().FailLink(l.ID)
	}
	for i := 0; i < len(n.Topo.AS(a6).Links); i++ {
		if err := src.Send(dst.Addr, nil); err != nil {
			t.Fatal(err)
		}
		n.Run()
	}
	if src.ActivePathHops() != nil {
		t.Fatal("exhausted host still has an active path")
	}
	if _, failovers := src.Stats(); failovers != uint64(len(n.Topo.AS(a6).Links)-1) {
		t.Errorf("failovers = %d, want %d", failovers, len(n.Topo.AS(a6).Links)-1)
	}
	if err := src.Send(dst.Addr, nil); err != nil {
		t.Fatal(err)
	}
	if src.ActivePathHops() == nil {
		t.Error("exhausted host did not look its paths up again")
	}
}

// failAndResend fails the first link of every host's active path, then
// has each host send twice: the first send is lost and revokes the link,
// the second must arrive on another path.
func failAndResend(t *testing.T, n *Network, dst *Host, hosts ...*Host) {
	t.Helper()
	for _, h := range hosts {
		n.Fabric().FailLink(activeFirstLink(t, n, h).ID)
	}
	for range 2 {
		for _, h := range hosts {
			if err := h.Send(dst.Addr, []byte("x")); err != nil {
				t.Fatal(err)
			}
			n.Run()
		}
	}
}

// TestTwoHostsInOneASBothFailOver pins the per-host SCMP demux: a second
// host in an AS must not silence the first one's revocations.
func TestTwoHostsInOneASBothFailOver(t *testing.T) {
	n := demoNet(t)
	dst, _ := n.Host(a4, 10, 0, 0, 9)
	got := map[string]int{}
	dst.OnReceive(func(from addr.Host, _ []byte) { got[from.String()]++ })
	first, _ := n.Host(a6, 10, 0, 0, 1)
	if err := first.Send(dst.Addr, []byte("x")); err != nil {
		t.Fatal(err)
	}
	second, _ := n.Host(a6, 10, 0, 0, 2)
	if err := second.Send(dst.Addr, []byte("x")); err != nil {
		t.Fatal(err)
	}
	n.Run()
	failAndResend(t, n, dst, first, second)
	for _, h := range []*Host{first, second} {
		if _, failovers := h.Stats(); failovers != 1 {
			t.Errorf("%s: failovers = %d, want 1", h.Addr, failovers)
		}
		if d := got[h.Addr.String()]; d != 2 {
			t.Errorf("%s: delivered = %d, want 2", h.Addr, d)
		}
	}
}

// TestHostFailsOverBesideTrafficEngine registers a traffic engine's SCMP
// listener at A-6 before the host exists: both keep hearing revocations.
func TestHostFailsOverBesideTrafficEngine(t *testing.T) {
	n := demoNet(t)
	eng, err := traffic.NewEngine(traffic.Config{
		Fabric:   n.Fabric(),
		Provider: n.Paths,
		Links:    traffic.NewLinkModel(traffic.UniformCapacity(1.25e8)),
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.Add(traffic.FlowSpec{ID: 1, Src: a6, Dst: a4, Size: 4 << 20})
	src, _ := n.Host(a6, 10, 0, 0, 1)
	dst, _ := n.Host(a4, 10, 0, 0, 2)
	delivered := 0
	dst.OnReceive(func(addr.Host, []byte) { delivered++ })
	if err := src.Send(dst.Addr, []byte("x")); err != nil {
		t.Fatal(err)
	}
	// The flow starts at time zero on the same shortest path; the link
	// under the host's first packet fails a millisecond later, once the
	// flow has picked its paths (a flow that looks its paths up after the
	// host learned of the failure never tries the link).
	n.Clock().RunUntil(n.Clock().Now() + sim.Time(time.Millisecond))
	n.Fabric().FailLink(activeFirstLink(t, n, src).ID)
	for range 2 {
		if err := src.Send(dst.Addr, []byte("x")); err != nil {
			t.Fatal(err)
		}
		n.Clock().RunUntil(n.Clock().Now() + sim.Time(10*time.Millisecond))
	}
	eng.Run()
	if _, failovers := src.Stats(); failovers != 1 {
		t.Errorf("host failovers = %d, want 1", failovers)
	}
	if delivered != 2 {
		t.Errorf("host delivered = %d, want 2", delivered)
	}
	if eng.Revocations == 0 {
		t.Error("traffic engine heard no revocation")
	}
}

// TestHostRevocationSteersLaterFlow: a host in A-6 learns from SCMP that
// the link under its path failed; a traffic flow from A-6 added
// afterwards reads the same source memory and never tries that link.
func TestHostRevocationSteersLaterFlow(t *testing.T) {
	n := demoNet(t)
	src, _ := n.Host(a6, 10, 0, 0, 9)
	dst, _ := n.Host(a4, 10, 0, 0, 2)
	if err := src.Send(dst.Addr, []byte("x")); err != nil {
		t.Fatal(err)
	}
	n.Run()
	link := activeFirstLink(t, n, src)
	n.Fabric().FailLink(link.ID)
	if err := src.Send(dst.Addr, []byte("x")); err != nil {
		t.Fatal(err)
	}
	n.Run()
	if _, failovers := src.Stats(); failovers != 1 {
		t.Fatalf("host failovers = %d, want 1", failovers)
	}
	eng, err := traffic.NewEngine(traffic.Config{
		Fabric:   n.Fabric(),
		Provider: n.Paths,
		Links:    traffic.NewLinkModel(traffic.UniformCapacity(1.25e8)),
	})
	if err != nil {
		t.Fatal(err)
	}
	f := eng.Add(traffic.FlowSpec{ID: 1, Src: a6, Dst: a4, Size: 4 << 20})
	eng.Run()
	if !f.Done() {
		t.Fatal("flow did not complete")
	}
	if eng.Revocations != 0 || f.Lost() != 0 {
		t.Errorf("flow sent over the link the host had learned was down: revocations=%d lost=%d",
			eng.Revocations, f.Lost())
	}
}

// TestHostFailoverAvoidsEngineRevocation: a traffic flow from A-6 learns
// that a link of the host's second path is down; when SCMP then hits the
// host's active path, the host fails over past that second path.
func TestHostFailoverAvoidsEngineRevocation(t *testing.T) {
	n := demoNet(t)
	src, _ := n.Host(a6, 10, 0, 0, 9)
	dst, _ := n.Host(a4, 10, 0, 0, 2)
	delivered := 0
	dst.OnReceive(func(addr.Host, []byte) { delivered++ })
	if err := src.Send(dst.Addr, []byte("x")); err != nil {
		t.Fatal(err)
	}
	n.Run()
	// The host's first and second paths; the engine learns of a failure
	// on the second one that the first does not cross.
	first := activeFirstLink(t, n, src)
	second, err := src.paths[1].LinkRefs(n.Topo)
	if err != nil {
		t.Fatal(err)
	}
	engineOnly := second[len(second)-1].Link
	if engineOnly.ID == first.ID || usesLink(t, n, src, engineOnly) {
		t.Fatal("the second path's last link is on the first path")
	}
	n.Fabric().FailLink(engineOnly.ID)
	eng, err := traffic.NewEngine(traffic.Config{
		Fabric:   n.Fabric(),
		Provider: n.Paths,
		Links:    traffic.NewLinkModel(traffic.UniformCapacity(1.25e8)),
	})
	if err != nil {
		t.Fatal(err)
	}
	f := eng.Add(traffic.FlowSpec{ID: 1, Src: a6, Dst: a4, Size: 4 << 20})
	// Well within the revocation TTL.
	n.Clock().RunUntil(n.Clock().Now() + sim.Time(time.Second))
	if !f.Done() || eng.Revocations == 0 {
		t.Fatalf("flow done=%v after %d revocations, want done after some", f.Done(), eng.Revocations)
	}

	n.Fabric().FailLink(first.ID)
	for range 2 {
		if err := src.Send(dst.Addr, []byte("x")); err != nil {
			t.Fatal(err)
		}
		n.Run()
	}
	if _, failovers := src.Stats(); failovers != 1 {
		t.Errorf("host failovers = %d, want 1", failovers)
	}
	if src.activePath() == nil {
		t.Fatal("no failover path")
	}
	if usesLink(t, n, src, first) || usesLink(t, n, src, engineOnly) {
		t.Error("failover path crosses a link the source AS knows is down")
	}
	if src.active <= 1 {
		t.Errorf("active path index = %d, want past the second path", src.active)
	}
	if delivered != 2 {
		t.Errorf("delivered = %d, want 2", delivered)
	}
}

// TestRemoteLookupSeesRevocationLapse checks that remote lookups read the
// path servers at the live time: once a healed link's revocation lapses,
// they serve its segments again without any other lookup moving time.
func TestRemoteLookupSeesRevocationLapse(t *testing.T) {
	opts := DefaultOptions()
	opts.RevocationTTL = time.Second
	n, err := NewNetwork(topology.Demo(), opts)
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Type: DownSeg, Dst: a4}
	down := func() int {
		t.Helper()
		res, err := n.RemoteLookup(a6, a2, req)
		if err != nil {
			t.Fatal(err)
		}
		return len(res.Segments)
	}
	local := func() int {
		t.Helper()
		res, err := n.RemoteLookup(a2, a2, req)
		if err != nil {
			t.Fatal(err)
		}
		return len(res.Segments)
	}
	before, beforeLocal := down(), local()
	if before == 0 || beforeLocal == 0 {
		t.Fatal("no down-segments before the fault")
	}
	// The only link between A-2 and A-4 carries every down-segment.
	if _, err := n.FailLink(a2, a4, 0); err != nil {
		t.Fatal(err)
	}
	if got := local(); got != 0 {
		t.Fatalf("local lookup right after the fault = %d segments, want 0", got)
	}
	if _, err := n.RestoreLink(a2, a4, 0); err != nil {
		t.Fatal(err)
	}
	n.Clock().RunUntil(n.Clock().Now() + 5e9)
	if got := down(); got != before {
		t.Errorf("remote lookup after the revocation lapsed = %d segments, want %d", got, before)
	}
	if got := local(); got != beforeLocal {
		t.Errorf("local lookup after the revocation lapsed = %d segments, want %d", got, beforeLocal)
	}
}

// TestHostReceivesNoFlowPackets: traffic flows take their addresses from
// 100.64.0.0/10, which hosts may not, so a host never receives a flow's
// head packets — here flow 2's, whose endpoint numbering once matched the
// host's 10.0.0.2 — and the flow still completes.
func TestHostReceivesNoFlowPackets(t *testing.T) {
	n := demoNet(t)
	host, err := n.Host(a4, 10, 0, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	received := 0
	host.OnReceive(func(addr.Host, []byte) { received++ })
	eng, err := traffic.NewEngine(traffic.Config{
		Fabric:   n.Fabric(),
		Provider: n.Paths,
		Links:    traffic.NewLinkModel(traffic.UniformCapacity(1.25e8)),
	})
	if err != nil {
		t.Fatal(err)
	}
	f := eng.Add(traffic.FlowSpec{ID: 2, Src: a6, Dst: a4, Size: 1 << 20})
	eng.Run()
	if !f.Done() {
		t.Fatal("flow did not complete")
	}
	if received != 0 {
		t.Errorf("host received %d of the flow's packets, want 0", received)
	}
	if _, err := n.Host(a4, 100, 64, 0, 2); err == nil {
		t.Error("host attached inside the flow block 100.64.0.0/10")
	}
}
