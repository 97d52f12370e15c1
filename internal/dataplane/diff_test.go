package dataplane

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"scionmpr/internal/addr"
	"scionmpr/internal/chaos"
	"scionmpr/internal/seg"
	"scionmpr/internal/sim"
	"scionmpr/internal/slayers"
	"scionmpr/internal/topology"
)

// The differential harness replays one seeded traffic trace through
// the reference struct-packet router (reference_test.go), through the
// Fabric, and through the wire-format Engine, and demands byte-identical
// run fingerprints: per-packet outcomes (delivered / silently dropped /
// which SCMP came back) plus the full counter set. All planes decide
// gray loss with the pure per-packet sim.LossCoin, and faults fire only
// at quiescent group boundaries, so the fingerprint is independent of
// packet interleaving — which is what lets the engine, draining its
// queues in its own order, be compared bit-for-bit against the
// virtual-time planes.
// The two virtual-time planes are further held to the same timing and
// link accounting (TestDifferentialTiming).

// diffOutcome is the observable fate of one injected packet.
type diffOutcome struct {
	delivered bool
	scmp      int8 // -1 = none
	link      seg.LinkKey
}

// diffCounters is the plane-independent counter vector.
type diffCounters struct {
	Forwarded, Delivered, DroppedBadMAC, DroppedNoRoute uint64
	DroppedTooBig, Revocations, DroppedGray             uint64
}

// diffPacket is one packet of the precomputed trace.
type diffPacket struct {
	flow    uint32
	path    *FwdPath
	src     addr.IA
	payload int
}

// diffTrace is a deterministic function of the seed: groups of packets
// spread over all pair paths, a few with tampered hop-field MACs, and
// per-group fault actions quantized from a chaos schedule.
type diffTrace struct {
	groups  [][]diffPacket
	actions [][]func(chaos.FaultTarget)
}

const (
	diffGroups        = 12
	diffFlowsPerGroup = 24
)

// buildDiffTrace assembles the trace over every beaconing-derived path
// between the leaf ASes, with a chaos schedule (flap + gray windows on
// path links) quantized to group boundaries.
func buildDiffTrace(t testing.TB, e *env, seed int64) *diffTrace {
	t.Helper()
	var paths []*FwdPath
	leaves := []addr.IA{a4, a5, a6}
	for _, src := range leaves {
		for _, dst := range leaves {
			if src == dst {
				continue
			}
			paths = append(paths, e.pathsBetween(t, src, dst)...)
		}
	}
	if len(paths) < 4 {
		t.Fatalf("only %d pair paths", len(paths))
	}

	rng := rand.New(rand.NewSource(seed))

	// Tampered variants: break the MAC of the last hop so the drop
	// happens at a transit or destination router (never silently at the
	// source), exercising the SCMP walk-back on both planes.
	tampered := make([]*FwdPath, len(paths))
	for i, p := range paths {
		tp := &FwdPath{Hops: append([]HopField(nil), p.Hops...), MTU: p.MTU}
		tp.Hops[len(tp.Hops)-1].MAC[0] ^= 0x5a
		tampered[i] = tp
	}

	tr := &diffTrace{
		groups:  make([][]diffPacket, diffGroups),
		actions: make([][]func(chaos.FaultTarget), diffGroups+1),
	}
	flow := uint32(1)
	for g := 0; g < diffGroups; g++ {
		for k := 0; k < diffFlowsPerGroup; k++ {
			pi := rng.Intn(len(paths))
			p := paths[pi]
			if rng.Intn(10) == 0 {
				p = tampered[pi]
			}
			tr.groups[g] = append(tr.groups[g], diffPacket{
				flow:    flow,
				path:    p,
				src:     p.Hops[0].Hop.IA,
				payload: 16 + rng.Intn(256),
			})
			flow++
		}
	}

	// Chaos schedule over the links the paths traverse (egress interface
	// of every non-terminal hop), quantized so each event edge lands on
	// a quiescent group boundary.
	linkSet := map[topology.LinkID]bool{}
	var links []topology.LinkID
	for _, p := range paths {
		for _, h := range p.Hops {
			if h.Hop.Out == 0 {
				continue
			}
			link := e.topo.LinkByIf(h.Hop.IA, h.Hop.Out)
			if link == nil {
				t.Fatalf("no link %s#%d", h.Hop.IA, h.Hop.Out)
			}
			if !linkSet[link.ID] {
				linkSet[link.ID] = true
				links = append(links, link.ID)
			}
		}
	}
	groupDur := time.Second
	end := sim.Time(time.Duration(diffGroups) * groupDur)
	sched := &chaos.Schedule{Seed: seed, End: end}
	for i := 0; i < 3 && i < len(links); i++ {
		at := time.Duration(rng.Intn(diffGroups-3)+1) * groupDur
		down := time.Duration(rng.Intn(3)+1) * groupDur
		sched.Events = append(sched.Events, chaos.Event{
			Kind: chaos.Flap, Link: links[rng.Intn(len(links))],
			At: sim.Time(at), Down: down,
		})
		gAt := time.Duration(rng.Intn(diffGroups-3)+1) * groupDur
		gDown := time.Duration(rng.Intn(3)+1) * groupDur
		sched.Events = append(sched.Events, chaos.Event{
			Kind: chaos.Gray, Link: links[rng.Intn(len(links))],
			At: sim.Time(gAt), Down: gDown,
			Rate: 0.2 + 0.6*rng.Float64(),
		})
	}
	for _, ev := range sched.Events {
		id := ev.Link
		gOn := int(time.Duration(ev.At) / groupDur)
		gOff := gOn + int(ev.Down/groupDur)
		if gOff > diffGroups {
			gOff = diffGroups
		}
		switch ev.Kind {
		case chaos.Flap:
			tr.actions[gOn] = append(tr.actions[gOn], func(ft chaos.FaultTarget) { ft.FailLink(id) })
			tr.actions[gOff] = append(tr.actions[gOff], func(ft chaos.FaultTarget) { ft.RestoreLink(id) })
		case chaos.Gray:
			rate := ev.Rate
			tr.actions[gOn] = append(tr.actions[gOn], func(ft chaos.FaultTarget) { ft.SetLinkLoss(id, rate) })
			tr.actions[gOff] = append(tr.actions[gOff], func(ft chaos.FaultTarget) { ft.SetLinkLoss(id, 0) })
		}
	}
	return tr
}

// fingerprint canonicalizes outcomes + counters into a SHA-256 hex
// digest, independent of the order packets finished in.
func fingerprint(outcomes map[uint32]diffOutcome, c diffCounters) string {
	flows := make([]uint32, 0, len(outcomes))
	for f := range outcomes {
		flows = append(flows, f)
	}
	sort.Slice(flows, func(i, j int) bool { return flows[i] < flows[j] })
	h := sha256.New()
	var buf [16]byte
	for _, f := range flows {
		o := outcomes[f]
		binary.BigEndian.PutUint32(buf[0:4], f)
		buf[4] = 0
		if o.delivered {
			buf[4] = 1
		}
		buf[5] = byte(o.scmp + 1)
		binary.BigEndian.PutUint64(buf[6:14], o.link.IA.Uint64())
		binary.BigEndian.PutUint16(buf[14:16], uint16(o.link.If))
		h.Write(buf[:])
	}
	for _, v := range []uint64{
		c.Forwarded, c.Delivered, c.DroppedBadMAC, c.DroppedNoRoute,
		c.DroppedTooBig, c.Revocations, c.DroppedGray,
	} {
		binary.BigEndian.PutUint64(buf[0:8], v)
		h.Write(buf[:8])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func hostFor(ia addr.IA, flow uint32) addr.Host {
	return addr.HostIP4(ia, 10, byte(flow>>16), byte(flow>>8), byte(flow))
}

func diffPacketFor(p diffPacket) *Packet {
	dstIA := p.path.Hops[len(p.path.Hops)-1].Hop.IA
	return &Packet{
		Src:     hostFor(p.src, p.flow),
		Dst:     hostFor(dstIA, p.flow),
		Path:    p.path,
		Payload: make([]byte, p.payload),
		FlowID:  p.flow,
	}
}

// diffRun is what one replay of a trace through a virtual-time plane
// observed: each packet's outcome and the virtual time it was known
// (delivery or SCMP arrival at the sender), the plane's counters, every
// per-interface counter of the simulated network, and the number of
// simulator events executed.
type diffRun struct {
	outcomes map[uint32]diffOutcome
	sent, at map[uint32]sim.Time
	counters diffCounters
	ifaces   map[sim.IfKey]sim.Counter
	executed uint64
}

func (r *diffRun) fingerprint() string { return fingerprint(r.outcomes, r.counters) }

// virtualPlane is a plane under test on a simulated network: its fault
// target, its inject function and its counters.
type virtualPlane struct {
	faults   chaos.FaultTarget
	inject   func(*Packet) error
	counters func() diffCounters
}

// referencePlane builds the reference router on net; record receives
// each packet's outcome.
func referencePlane(e *env, net *sim.Network, record func(uint32, diffOutcome)) virtualPlane {
	fab := newRefFabric(net, e.infra.ForwardingKey)
	for _, ia := range e.topo.IAs() {
		fab.deliver[ia] = func(p *refPacket) {
			record(p.FlowID, diffOutcome{delivered: true, scmp: -1})
		}
		fab.scmp[ia] = func(m *refSCMP) {
			record(m.Orig.FlowID, diffOutcome{scmp: int8(m.Type), link: m.Link})
		}
	}
	return virtualPlane{
		faults: fab,
		inject: func(p *Packet) error { return fab.Inject(&refPacket{Packet: p}) },
		counters: func() diffCounters {
			return diffCounters{
				Forwarded: fab.Forwarded, Delivered: fab.Delivered,
				DroppedBadMAC: fab.DroppedBadMAC, DroppedNoRoute: fab.DroppedNoRoute,
				DroppedTooBig: fab.DroppedTooBig, Revocations: fab.Revocations,
				DroppedGray: fab.DroppedGray,
			}
		},
	}
}

// fabricPlane builds a Fabric on net. Its handlers key outcomes on the
// injected packet they are handed back, so a handler that got another
// pointer (or none) shows as a mismatch.
func fabricPlane(t *testing.T, e *env, net *sim.Network, record func(uint32, diffOutcome)) virtualPlane {
	fab := NewFabric(net, e.infra.ForwardingKey)
	for _, ia := range e.topo.IAs() {
		fab.OnDeliver(ia, func(p *Packet) {
			record(p.FlowID, diffOutcome{delivered: true, scmp: -1})
		})
		fab.AddSCMP(ia, func(m *SCMP) {
			record(m.Orig.FlowID, diffOutcome{scmp: int8(m.Type), link: m.Link})
		})
	}
	return virtualPlane{
		faults: fab,
		inject: fab.Inject,
		counters: func() diffCounters {
			st := fab.Stats()
			if st.DroppedMalformed != 0 {
				t.Fatalf("fabric rejected %d self-generated frames as malformed", st.DroppedMalformed)
			}
			return statsCounters(st)
		},
	}
}

func statsCounters(st EngineStats) diffCounters {
	return diffCounters{
		Forwarded: st.Forwarded, Delivered: st.Delivered,
		DroppedBadMAC: st.DroppedBadMAC, DroppedNoRoute: st.DroppedNoRoute,
		DroppedTooBig: st.DroppedTooBig, Revocations: st.Revocations,
		DroppedGray: st.DroppedGray,
	}
}

// runVirtual replays the trace through a plane built on a fresh
// simulated network, quiescing the clock at every group boundary.
func runVirtual(t *testing.T, e *env, tr *diffTrace,
	build func(net *sim.Network, record func(uint32, diffOutcome)) virtualPlane) *diffRun {
	t.Helper()
	s := &sim.Simulator{}
	net := sim.NewNetwork(s, e.topo, time.Millisecond)
	run := &diffRun{outcomes: map[uint32]diffOutcome{}, sent: map[uint32]sim.Time{}, at: map[uint32]sim.Time{}}
	plane := build(net, func(flow uint32, o diffOutcome) {
		run.outcomes[flow] = o
		run.at[flow] = s.Now()
	})
	for g := 0; g < diffGroups; g++ {
		for _, fn := range tr.actions[g] {
			fn(plane.faults)
		}
		for _, p := range tr.groups[g] {
			run.outcomes[p.flow] = diffOutcome{scmp: -1}
			run.sent[p.flow] = s.Now()
			if err := plane.inject(diffPacketFor(p)); err != nil {
				t.Fatalf("inject flow %d: %v", p.flow, err)
			}
		}
		s.Run() // quiesce before the next fault edge
	}
	run.counters = plane.counters()
	run.executed = s.Executed
	run.ifaces = map[sim.IfKey]sim.Counter{}
	for _, k := range net.Interfaces() {
		run.ifaces[k] = net.InterfaceCounter(k.IA, k.If)
	}
	return run
}

func runReference(t *testing.T, e *env, tr *diffTrace) *diffRun {
	return runVirtual(t, e, tr, func(net *sim.Network, rec func(uint32, diffOutcome)) virtualPlane {
		return referencePlane(e, net, rec)
	})
}

func runFabric(t *testing.T, e *env, tr *diffTrace) *diffRun {
	return runVirtual(t, e, tr, func(net *sim.Network, rec func(uint32, diffOutcome)) virtualPlane {
		return fabricPlane(t, e, net, rec)
	})
}

// runEngineTrace replays the trace through a fresh wire engine.
func runEngineTrace(t *testing.T, e *env, tr *diffTrace) string {
	t.Helper()
	eng := NewEngine(e.topo, e.infra.ForwardingKey)

	outcomes := map[uint32]diffOutcome{}
	for _, ia := range e.topo.IAs() {
		eng.OnDeliver(ia, func(s *slayers.SCION) {
			outcomes[s.FlowID] = diffOutcome{delivered: true, scmp: -1}
		})
		eng.OnSCMP(ia, func(m *SCMP) {
			outcomes[m.FlowID] = diffOutcome{scmp: int8(m.Type), link: m.Link}
		})
	}
	for g := 0; g < diffGroups; g++ {
		for _, fn := range tr.actions[g] {
			fn(eng)
		}
		for _, p := range tr.groups[g] {
			pkt := diffPacketFor(p)
			outcomes[p.flow] = diffOutcome{scmp: -1}
			if err := eng.Inject(pkt); err != nil {
				t.Fatalf("engine inject flow %d: %v", p.flow, err)
			}
		}
		eng.Flush() // quiesce before the next fault edge
	}
	st := eng.Stats()
	if st.DroppedMalformed != 0 {
		t.Fatalf("engine rejected %d self-generated packets as malformed", st.DroppedMalformed)
	}
	return fingerprint(outcomes, statsCounters(st))
}

// TestDifferentialGolden is the harness CI runs under -race: for each
// seed, the fingerprints of the reference router, the Fabric, and the
// engine must be identical, and fingerprints must differ across seeds
// (the trace actually depends on the seed).
func TestDifferentialGolden(t *testing.T) {
	e := newEnv(t)
	bydSeed := map[int64]string{}
	for _, seed := range []int64{7, 99} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			tr := buildDiffTrace(t, e, seed)
			refFP := runReference(t, e, tr).fingerprint()
			if fabFP := runFabric(t, e, tr).fingerprint(); fabFP != refFP {
				t.Errorf("fabric fingerprint %s != reference %s", fabFP, refFP)
			}
			if engFP := runEngineTrace(t, e, tr); engFP != refFP {
				t.Errorf("engine fingerprint %s != reference %s", engFP, refFP)
			}
			t.Logf("seed %d fingerprint %s", seed, refFP)
			bydSeed[seed] = refFP
		})
	}
	if len(bydSeed) == 2 && bydSeed[7] == bydSeed[99] {
		t.Error("fingerprints identical across seeds; trace is not seed-dependent")
	}
}

// TestDifferentialTiming holds the Fabric to the reference router in
// virtual time: on each seeded trace both must give every packet the
// same outcome at the same virtual instant, leave every per-interface
// counter of the simulated network equal (so each frame, SCMP
// walk-backs included, crossed the same links with the same byte
// count), and execute the same number of simulator events.
func TestDifferentialTiming(t *testing.T) {
	e := newEnv(t)
	for _, seed := range []int64{7, 99} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			tr := buildDiffTrace(t, e, seed)
			ref, fab := runReference(t, e, tr), runFabric(t, e, tr)
			for flow, want := range ref.outcomes {
				if got := fab.outcomes[flow]; got != want {
					t.Errorf("flow %d: fabric outcome %+v, reference %+v", flow, got, want)
				}
			}
			if len(fab.outcomes) != len(ref.outcomes) {
				t.Errorf("fabric saw %d packets, reference %d", len(fab.outcomes), len(ref.outcomes))
			}
			scmpLate := 0
			for flow, want := range ref.at {
				got, ok := fab.at[flow]
				if !ok || got != want {
					t.Errorf("flow %d: fabric outcome at %v (known %v), reference at %v", flow, got, ok, want)
				}
				if ref.outcomes[flow].scmp >= 0 && want > ref.sent[flow] {
					scmpLate++ // an SCMP that walked back over at least one link
				}
			}
			if len(fab.at) != len(ref.at) {
				t.Errorf("fabric timed %d outcomes, reference %d", len(fab.at), len(ref.at))
			}
			if !reflect.DeepEqual(fab.ifaces, ref.ifaces) {
				for k, want := range ref.ifaces {
					if got := fab.ifaces[k]; got != want {
						t.Errorf("interface %s#%d: fabric %+v, reference %+v", k.IA, k.If, got, want)
					}
				}
				t.Errorf("interface counters differ (%d vs %d interfaces)", len(fab.ifaces), len(ref.ifaces))
			}
			if fab.executed != ref.executed {
				t.Errorf("fabric executed %d events, reference %d", fab.executed, ref.executed)
			}
			if fab.counters != ref.counters {
				t.Errorf("fabric counters %+v, reference %+v", fab.counters, ref.counters)
			}
			if scmpLate == 0 || len(ref.ifaces) == 0 {
				t.Errorf("trace exercised no SCMP walk-back (%d) or no links (%d)", scmpLate, len(ref.ifaces))
			}
		})
	}
}

// TestDifferentialCounters spot-checks that the planes agree on each
// counter individually (the fingerprint only proves joint equality),
// and that faults actually fired during the trace.
func TestDifferentialCounters(t *testing.T) {
	e := newEnv(t)
	tr := buildDiffTrace(t, e, 7)
	ref := runReference(t, e, tr).counters
	fab := runFabric(t, e, tr).counters

	eng := NewEngine(e.topo, e.infra.ForwardingKey)
	for g := 0; g < diffGroups; g++ {
		for _, fn := range tr.actions[g] {
			fn(eng)
		}
		for _, p := range tr.groups[g] {
			if err := eng.Inject(diffPacketFor(p)); err != nil {
				t.Fatal(err)
			}
		}
		eng.Flush()
	}
	st := eng.Stats()
	pairs := []struct {
		name          string
		ref, fab, eng uint64
	}{
		{"forwarded", ref.Forwarded, fab.Forwarded, st.Forwarded},
		{"delivered", ref.Delivered, fab.Delivered, st.Delivered},
		{"bad_mac", ref.DroppedBadMAC, fab.DroppedBadMAC, st.DroppedBadMAC},
		{"no_route", ref.DroppedNoRoute, fab.DroppedNoRoute, st.DroppedNoRoute},
		{"too_big", ref.DroppedTooBig, fab.DroppedTooBig, st.DroppedTooBig},
		{"revocations", ref.Revocations, fab.Revocations, st.Revocations},
		{"gray", ref.DroppedGray, fab.DroppedGray, st.DroppedGray},
	}
	for _, p := range pairs {
		if p.fab != p.ref || p.eng != p.ref {
			t.Errorf("%s: reference %d, fabric %d, engine %d", p.name, p.ref, p.fab, p.eng)
		}
	}
	if ref.Delivered == 0 || ref.DroppedBadMAC == 0 {
		t.Errorf("trace did not exercise delivery and bad-MAC paths: %+v", pairs)
	}
	if ref.Revocations == 0 && ref.DroppedGray == 0 {
		t.Error("chaos plan injected no faults into the trace")
	}
}
