package dataplane

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"time"

	"scionmpr/internal/addr"
	"scionmpr/internal/chaos"
	"scionmpr/internal/sim"
	"scionmpr/internal/slayers"
	"scionmpr/internal/telemetry"
	"scionmpr/internal/topology"
)

// The wire engine is a chaos fault target like the fabric and the
// simulated network.
var _ chaos.FaultTarget = (*Engine)(nil)

// newWireEnv extends the shared beaconing env with a wire engine over
// the same topology and keys.
func newWireEnv(t *testing.T) (*env, *Engine) {
	t.Helper()
	e := newEnv(t)
	return e, NewEngine(e.topo, e.infra.ForwardingKey)
}

func testPacket(e *env, pathIdx int, payload []byte, flow uint32) *Packet {
	return &Packet{
		Src:     addr.HostIP4(a6, 10, 0, 0, 1),
		Dst:     addr.HostIP4(a4, 10, 0, 0, 2),
		Path:    e.paths[pathIdx],
		Payload: payload,
		FlowID:  flow,
	}
}

// encodeTestPacket returns pkt's wire bytes.
func encodeTestPacket(t testing.TB, pkt *Packet) []byte {
	t.Helper()
	buf := make([]byte, pkt.WireLen())
	var s slayers.SCION
	n, err := EncodePacket(&s, pkt, buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Fatalf("EncodePacket wrote %d bytes, WireLen says %d", n, len(buf))
	}
	return buf
}

func TestEngineDelivery(t *testing.T) {
	e, eng := newWireEnv(t)
	var gotPayload []byte
	var gotSrc, gotDst addr.Host
	eng.OnDeliver(a4, func(s *slayers.SCION) {
		gotPayload = append([]byte(nil), s.Payload()...)
		gotSrc, gotDst = s.SrcHost, s.DstHost
	})
	pkt := testPacket(e, 0, []byte("hello wire"), 7)
	if err := eng.Inject(pkt); err != nil {
		t.Fatal(err)
	}
	eng.Flush()
	if string(gotPayload) != "hello wire" {
		t.Fatalf("payload = %q", gotPayload)
	}
	if !gotSrc.Equal(pkt.Src) || !gotDst.Equal(pkt.Dst) {
		t.Errorf("hosts: %s -> %s", gotSrc, gotDst)
	}
	st := eng.Stats()
	if st.Delivered != 1 || st.Forwarded != uint64(len(e.paths[0].Hops)-1) {
		t.Errorf("stats %+v (path has %d hops)", st, len(e.paths[0].Hops))
	}
	if st.DroppedMalformed != 0 || st.DroppedBadMAC != 0 {
		t.Errorf("unexpected drops: %+v", st)
	}
}

func TestEngineInjectBytes(t *testing.T) {
	e, eng := newWireEnv(t)
	delivered := 0
	eng.OnDeliver(a4, func(s *slayers.SCION) { delivered++ })
	buf := encodeTestPacket(t, testPacket(e, 0, []byte("raw bytes"), 9))
	if err := eng.InjectBytes(buf, 0); err != nil {
		t.Fatal(err)
	}
	eng.Flush()
	if delivered != 1 {
		t.Fatalf("delivered %d", delivered)
	}
	if err := eng.InjectBytes(buf[:len(buf)-1], 0); err == nil {
		t.Error("truncated packet accepted")
	}
	if err := eng.InjectBytes(buf, uint16(len(buf)-1)); err == nil {
		t.Error("over-MTU packet accepted")
	}
	if eng.Stats().DroppedTooBig != 1 {
		t.Errorf("droppedTooBig = %d", eng.Stats().DroppedTooBig)
	}
}

func TestEngineBadMAC(t *testing.T) {
	e, eng := newWireEnv(t)
	var scmps []*WireSCMPMsg
	eng.OnSCMP(a6, func(m *WireSCMPMsg) {
		cp := *m
		scmps = append(scmps, &cp)
	})

	// Tampered transit hop: dropped at the transit AS, SCMP walks back.
	fp := &FwdPath{Hops: append([]HopField(nil), e.paths[0].Hops...), MTU: e.paths[0].MTU}
	fp.Hops[1].MAC[0] ^= 0xff
	pkt := testPacket(e, 0, []byte("tampered"), 3)
	pkt.Path = fp
	if err := eng.Inject(pkt); err != nil {
		t.Fatal(err)
	}
	eng.Flush()
	st := eng.Stats()
	if st.DroppedBadMAC != 1 || st.Delivered != 0 {
		t.Fatalf("stats %+v", st)
	}
	if len(scmps) != 1 || scmps[0].Type != SCMPBadMAC || scmps[0].FlowID != 3 {
		t.Fatalf("scmp = %+v", scmps)
	}
	if scmps[0].SrcIA != a6 || scmps[0].DstIA != a4 {
		t.Errorf("quoted IAs: %s -> %s", scmps[0].SrcIA, scmps[0].DstIA)
	}

	// Tampered hop 0: silent drop at the source, no SCMP (as in the
	// fabric).
	scmps = nil
	fp0 := &FwdPath{Hops: append([]HopField(nil), e.paths[0].Hops...), MTU: e.paths[0].MTU}
	fp0.Hops[0].MAC[3] ^= 1
	pkt0 := testPacket(e, 0, nil, 4)
	pkt0.Path = fp0
	if err := eng.Inject(pkt0); err != nil {
		t.Fatal(err)
	}
	eng.Flush()
	if got := eng.Stats().DroppedBadMAC; got != 2 {
		t.Errorf("droppedBadMAC = %d", got)
	}
	if len(scmps) != 0 {
		t.Errorf("source-side bad MAC emitted SCMP %+v", scmps[0])
	}
}

func TestEngineRevocation(t *testing.T) {
	e, eng := newWireEnv(t)
	var revs []*WireSCMPMsg
	eng.OnSCMP(a6, func(m *WireSCMPMsg) {
		cp := *m
		revs = append(revs, &cp)
	})
	// Fail the egress link of the transit hop on the 3-hop path.
	hop := e.paths[1].Hops[1].Hop
	link := e.topo.LinkByIf(hop.IA, hop.Out)
	if link == nil {
		t.Fatal("no link for hop 1 egress")
	}
	eng.FailLink(link.ID)
	if !eng.Failed(link.ID) {
		t.Fatal("FailLink not visible")
	}
	if err := eng.Inject(testPacket(e, 1, []byte("x"), 11)); err != nil {
		t.Fatal(err)
	}
	eng.Flush()
	st := eng.Stats()
	if st.Revocations != 1 || st.Delivered != 0 {
		t.Fatalf("stats %+v", st)
	}
	if len(revs) != 1 {
		t.Fatalf("%d SCMP messages at source", len(revs))
	}
	if revs[0].Type != SCMPRevokedLink || revs[0].Link.IA != hop.IA || revs[0].Link.If != hop.Out {
		t.Errorf("revocation %+v, want link %s#%s", revs[0], hop.IA, hop.Out)
	}
	if revs[0].Offender != hop.IA {
		t.Errorf("offender %s, want %s", revs[0].Offender, hop.IA)
	}

	// Restore and the same packet goes through.
	eng.RestoreLink(link.ID)
	if err := eng.Inject(testPacket(e, 1, []byte("x"), 12)); err != nil {
		t.Fatal(err)
	}
	eng.Flush()
	if eng.Stats().Delivered != 1 {
		t.Errorf("post-restore stats %+v", eng.Stats())
	}
}

func TestEngineGrayLoss(t *testing.T) {
	e, eng := newWireEnv(t)
	var scmps int
	eng.OnSCMP(a6, func(m *WireSCMPMsg) { scmps++ })
	hop := e.paths[0].Hops[0].Hop
	link := e.topo.LinkByIf(hop.IA, hop.Out)
	eng.SetLinkLoss(link.ID, 1.0)
	if eng.LinkLoss(link.ID) != 1.0 {
		t.Fatal("loss not recorded")
	}
	if err := eng.Inject(testPacket(e, 0, []byte("x"), 21)); err != nil {
		t.Fatal(err)
	}
	eng.Flush()
	st := eng.Stats()
	if st.DroppedGray != 1 || st.Delivered != 0 || scmps != 0 {
		t.Fatalf("gray loss must shed silently: %+v, %d scmps", st, scmps)
	}
	eng.SetLinkLoss(link.ID, 0)
	if eng.LinkLoss(link.ID) != 0 {
		t.Error("loss not cleared")
	}
}

func TestEngineNoRoute(t *testing.T) {
	e, eng := newWireEnv(t)
	var scmps []*WireSCMPMsg
	eng.OnSCMP(a6, func(m *WireSCMPMsg) {
		cp := *m
		scmps = append(scmps, &cp)
	})
	// Re-MAC the transit hop with a bogus egress interface: the MAC
	// verifies but the interface attaches to nothing.
	fp := &FwdPath{Hops: append([]HopField(nil), e.paths[1].Hops...), MTU: e.paths[1].MTU}
	h := fp.Hops[1].Hop
	h.Out = 63
	fp.Hops[1] = HopField{Hop: h, MAC: hopMAC(e.infra.ForwardingKey(h.IA), h)}
	pkt := testPacket(e, 1, []byte("x"), 31)
	pkt.Path = fp
	if err := eng.Inject(pkt); err != nil {
		t.Fatal(err)
	}
	eng.Flush()
	st := eng.Stats()
	if st.DroppedNoRoute != 1 || st.Delivered != 0 {
		t.Fatalf("stats %+v", st)
	}
	if len(scmps) != 1 || scmps[0].Type != SCMPDestUnreachable {
		t.Fatalf("scmp = %+v", scmps)
	}
}

func TestEngineMTU(t *testing.T) {
	e, eng := newWireEnv(t)
	fp := e.paths[0]
	if fp.MTU == 0 {
		t.Skip("path has no MTU")
	}
	room := int(fp.MTU) - (testPacket(e, 0, nil, 0)).WireLen()
	over := testPacket(e, 0, make([]byte, room+1), 41)
	if err := eng.Inject(over); err == nil {
		t.Error("over-MTU packet accepted")
	}
	if eng.Stats().DroppedTooBig != 1 {
		t.Errorf("droppedTooBig = %d", eng.Stats().DroppedTooBig)
	}
	exact := testPacket(e, 0, make([]byte, room), 42)
	delivered := 0
	eng.OnDeliver(a4, func(s *slayers.SCION) { delivered++ })
	if err := eng.Inject(exact); err != nil {
		t.Fatal(err)
	}
	eng.Flush()
	if delivered != 1 {
		t.Errorf("exact-MTU packet not delivered")
	}
}

// TestEngineWorkersAndModes: the engine has one forwarding mode and
// one loop on the caller's goroutine. Workers is still settable but
// read by nothing, so every value gives the same run, whose batches
// account for every hop.
func TestEngineWorkersAndModes(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("w%d-batch", workers), func(t *testing.T) {
			e, eng := newWireEnv(t)
			eng.Workers = workers
			total := 200
			delivered := 0
			eng.OnDeliver(a4, func(s *slayers.SCION) { delivered++ })
			for i := 0; i < total; i++ {
				if err := eng.Inject(testPacket(e, 0, []byte("n"), uint32(i))); err != nil {
					t.Fatal(err)
				}
			}
			eng.Flush()
			if delivered != total {
				t.Fatalf("delivered %d of %d", delivered, total)
			}
			st := eng.Stats()
			if st.Delivered != uint64(total) {
				t.Errorf("stats %+v", st)
			}
			if st.Batches == 0 || st.BatchPackets != st.Forwarded+st.Delivered {
				t.Errorf("batch accounting: %+v", st)
			}
		})
	}
}

// TestEngineQueueOrder: a queue holds any number of frames, and one
// Flush delivers a burst of many batches in injection order along
// every path, so each hop's queue holds thousands of frames at once.
func TestEngineQueueOrder(t *testing.T) {
	e, eng := newWireEnv(t)
	const total = 3000
	var got []uint32
	eng.OnDeliver(a4, func(s *slayers.SCION) { got = append(got, s.FlowID) })
	for p := range e.paths {
		got = got[:0]
		for i := 0; i < total; i++ {
			if err := eng.Inject(testPacket(e, p, nil, uint32(i))); err != nil {
				t.Fatal(err)
			}
		}
		eng.Flush()
		if len(got) != total {
			t.Fatalf("path %d: delivered %d of %d", p, len(got), total)
		}
		for i, flow := range got {
			if flow != uint32(i) {
				t.Fatalf("path %d (%d hops): delivery %d carries flow %d", p, len(e.paths[p].Hops), i, flow)
			}
		}
	}
}

func TestEngineChaosSchedule(t *testing.T) {
	e, eng := newWireEnv(t)
	hop := e.paths[1].Hops[1].Hop
	link := e.topo.LinkByIf(hop.IA, hop.Out)
	if link == nil {
		t.Fatal("no transit link")
	}

	s := &sim.Simulator{}
	ce := chaos.NewEngine(s, eng)
	sched := &chaos.Schedule{
		Seed: 1,
		End:  sim.Time(time.Minute),
		Events: []chaos.Event{
			{Kind: chaos.Flap, Link: link.ID, At: sim.Time(time.Second), Down: 10 * time.Second},
			{Kind: chaos.Gray, Link: link.ID, At: sim.Time(20 * time.Second), Down: 5 * time.Second, Rate: 1.0},
			{Kind: chaos.Spike, Link: link.ID, At: sim.Time(30 * time.Second), Down: time.Second, Delay: time.Millisecond},
		},
	}
	if err := ce.Apply(sched); err != nil {
		t.Fatal(err)
	}

	revoked, grayed := 0, 0
	eng.OnSCMP(a6, func(m *WireSCMPMsg) {
		if m.Type == SCMPRevokedLink {
			revoked++
		}
	})

	inject := func(flow uint32) {
		t.Helper()
		if err := eng.Inject(testPacket(e, 1, []byte("c"), flow)); err != nil {
			t.Fatal(err)
		}
		eng.Flush()
	}

	s.RunUntil(sim.Time(2 * time.Second)) // flap active
	if !eng.Failed(link.ID) {
		t.Fatal("chaos flap did not fail the engine link")
	}
	inject(1)
	if revoked != 1 {
		t.Errorf("no revocation during flap")
	}

	s.RunUntil(sim.Time(15 * time.Second)) // flap over
	if eng.Failed(link.ID) {
		t.Fatal("flap did not restore")
	}

	s.RunUntil(sim.Time(21 * time.Second)) // gray window
	if eng.LinkLoss(link.ID) != 1.0 {
		t.Fatalf("gray loss = %v", eng.LinkLoss(link.ID))
	}
	before := eng.Stats().DroppedGray
	inject(2)
	if eng.Stats().DroppedGray != before+1 {
		t.Error("no gray drop during gray window")
	}
	grayed++

	s.RunUntil(sim.Time(30500 * time.Millisecond)) // spike window
	if d := eng.LinkDelay(link.ID); d != time.Millisecond {
		t.Errorf("spike delay = %v, want 1ms stored", d)
	}

	s.Run()
	if eng.LinkLoss(link.ID) != 0 || eng.Failed(link.ID) || eng.LinkDelay(link.ID) != 0 {
		t.Error("faults not fully restored at end of schedule")
	}
	inject(3)
	if eng.Stats().Delivered == 0 {
		t.Error("packet not delivered after schedule end")
	}
	_ = grayed
}

func TestEngineTelemetry(t *testing.T) {
	e, eng := newWireEnv(t)
	reg := telemetry.NewRegistry()
	eng.SetTelemetry(reg)
	if err := eng.Inject(testPacket(e, 0, []byte("t"), 1)); err != nil {
		t.Fatal(err)
	}
	eng.Flush()
	var buf bytes.Buffer
	reg.WriteProm(&buf)
	out := buf.String()
	for _, want := range []string{"engine_delivered_total 1", "engine_forwarded_total", "engine_batches_total"} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Errorf("telemetry missing %q:\n%s", want, out)
		}
	}
}

// TestLinkDelayBounds: every fault target keeps its faults in a
// sim.LinkFaults table, and a fault schedule may name links a plane does
// not carry — out-of-range link IDs must be ignored, not panic.
func TestLinkDelayBounds(t *testing.T) {
	e, eng := newWireEnv(t)
	bad := topology.LinkID(9999)
	for name, ft := range map[string]interface {
		chaos.FaultTarget
		Failed(topology.LinkID) bool
		LinkLoss(topology.LinkID) float64
		LinkDelay(topology.LinkID) time.Duration
	}{"engine": eng, "fabric": e.fabric, "network": sim.NewNetwork(e.sim, e.topo, time.Millisecond)} {
		ft.FailLink(bad)
		ft.RestoreLink(bad)
		ft.SetLinkLoss(bad, 0.5)
		ft.SetLinkDelay(bad, time.Second)
		if ft.Failed(bad) || ft.LinkLoss(bad) != 0 || ft.LinkDelay(bad) == time.Second {
			t.Errorf("%s: out-of-range link state recorded", name)
		}
	}
}

// TestFabricLinkDelay: a delay override in the fabric's fault table
// delays the frames crossing that link by exactly the override, in place
// of the default, and clearing it restores the default.
func TestFabricLinkDelay(t *testing.T) {
	e := newEnv(t)
	f, p := e.fabric, e.paths[0]
	const def = time.Millisecond // newEnv's default link delay
	first := e.topo.LinkByIf(p.Hops[0].Hop.IA, p.Hops[0].Hop.Out)
	var at sim.Time
	f.OnDeliver(a4, func(*Packet) { at = e.sim.Now() })
	latency := func() time.Duration {
		t.Helper()
		start := e.sim.Now()
		at = -1
		if err := f.Inject(testPacket(e, 0, []byte("d"), 1)); err != nil {
			t.Fatal(err)
		}
		e.sim.Run()
		if at < 0 {
			t.Fatal("packet not delivered")
		}
		return time.Duration(at - start)
	}
	links := time.Duration(len(p.Hops) - 1)
	if got := latency(); got != links*def {
		t.Fatalf("latency %v over %d links, want %v", got, links, links*def)
	}
	const spike = 7*time.Millisecond + 300*time.Microsecond
	f.SetLinkDelay(first.ID, spike)
	if got, want := latency(), (links-1)*def+spike; got != want || f.Latency(first.ID) != spike {
		t.Errorf("latency %v under a %v spike on the first link, want %v (Latency says %v)", got, spike, want, f.Latency(first.ID))
	}
	f.SetLinkDelay(first.ID, 0)
	if got := latency(); got != links*def || f.Latency(first.ID) != def {
		t.Errorf("latency %v after the spike cleared, want %v (Latency says %v)", got, links*def, f.Latency(first.ID))
	}
}

// TestLinkLossRange: a rate that is not positive heals the link (NaN
// included — it must never be stored as a live loss rate), and rates
// above 1 clamp.
func TestLinkLossRange(t *testing.T) {
	e, eng := newWireEnv(t)
	id := e.topo.Links[0].ID
	for _, tc := range []struct{ set, want float64 }{
		{0.25, 0.25}, {math.NaN(), 0}, {0.5, 0.5}, {-1, 0}, {7, 1}, {0, 0},
	} {
		eng.SetLinkLoss(id, tc.set)
		if got := eng.LinkLoss(id); got != tc.want {
			t.Errorf("SetLinkLoss(%v): LinkLoss = %v, want %v", tc.set, got, tc.want)
		}
	}
}

// TestEngineForwardAllocs holds the default-constructed engine to zero
// allocations per forwarded packet, Flush included.
func TestEngineForwardAllocs(t *testing.T) {
	e, eng := newWireEnv(t)
	delivered := 0
	eng.OnDeliver(a4, func(s *slayers.SCION) { delivered++ })
	buf := encodeTestPacket(t, testPacket(e, 0, make([]byte, 128), 1))
	forward := func() {
		if err := eng.InjectBytes(buf, e.paths[0].MTU); err != nil {
			t.Fatal(err)
		}
		eng.Flush()
	}
	forward() // warm the free list, worker scratch and MAC table
	if n := testing.AllocsPerRun(100, forward); n != 0 {
		t.Errorf("%v allocs per inject+flush, want 0", n)
	}
	if delivered != 102 { // warm-up, AllocsPerRun's own warm-up, 100 runs
		t.Errorf("delivered %d packets", delivered)
	}
}

// TestFabricForwardAllocs holds one packet injected into a fabric and
// forwarded over a multi-hop path to its delivery, the clock run
// included, to zero allocations: frames ride the clock on their own
// recycled arrival events, so crossing a link allocates nothing, and
// Inject encodes into a scratch header it keeps.
func TestFabricForwardAllocs(t *testing.T) {
	e := newEnv(t)
	pkt := testPacket(e, 0, make([]byte, 128), 1)
	for _, p := range e.paths {
		if len(p.Hops) > len(pkt.Path.Hops) {
			pkt.Path = p
		}
	}
	if len(pkt.Path.Hops) < 3 {
		t.Fatalf("path of %d hops crosses fewer than two links", len(pkt.Path.Hops))
	}
	delivered := 0
	e.fabric.OnDeliver(a4, func(*Packet) { delivered++ })
	forward := func() {
		if err := e.fabric.Inject(pkt); err != nil {
			t.Fatal(err)
		}
		e.sim.Run()
	}
	forward() // warm the free list, step scratch and clock buckets
	n := testing.AllocsPerRun(100, forward)
	t.Logf("%v allocs per packet over %d links", n, len(pkt.Path.Hops)-1)
	if n != 0 {
		t.Errorf("%v allocs per packet, want 0", n)
	}
	if delivered != 102 { // warm-up, AllocsPerRun's own warm-up, 100 runs
		t.Errorf("delivered %d packets", delivered)
	}
}
