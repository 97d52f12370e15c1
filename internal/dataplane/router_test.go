package dataplane

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"scionmpr/internal/addr"
	"scionmpr/internal/slayers"
	"scionmpr/internal/topology"
)

// routerInput is one packet of a router trace: a *Packet for Inject or
// raw bytes for InjectBytes.
type routerInput struct {
	pkt *Packet
	raw []byte
}

// routerRound is one flush of a router trace: fault edits, then the
// packets injected before the flush.
type routerRound struct {
	faults []func(*Engine)
	in     []routerInput
}

// routerTraffic is what router traces draw from: every beaconing path
// between the leaf ASes and the links those paths cross.
type routerTraffic struct {
	paths []*FwdPath
	links []topology.LinkID
}

func newRouterTraffic(t testing.TB, e *env) *routerTraffic {
	t.Helper()
	rt := &routerTraffic{}
	seen := map[topology.LinkID]bool{}
	for _, src := range []addr.IA{a4, a5, a6} {
		for _, dst := range []addr.IA{a4, a5, a6} {
			if src == dst {
				continue
			}
			for _, p := range e.pathsBetween(t, src, dst) {
				rt.paths = append(rt.paths, p)
				refs, err := p.LinkRefs(e.topo)
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range refs {
					if !seen[r.Link.ID] {
						seen[r.Link.ID] = true
						rt.links = append(rt.links, r.Link.ID)
					}
				}
			}
		}
	}
	return rt
}

// trace draws a seeded router trace: valid packets through Inject and
// InjectBytes, MACs tampered at a random hop, hops re-MACed onto an
// egress interface that attaches to nothing, one-hop paths that run off
// their end at the next router, non-SCION data frames, raw SCMP frames,
// and links failed, restored and made gray between rounds of 1, 32 or
// up to 80 packets.
func (rt *routerTraffic) trace(t testing.TB, e *env, seed int64, rounds int) []routerRound {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	out := make([]routerRound, rounds)
	flow := uint32(1)
	for r := range out {
		for k := rng.Intn(3); k > 0; k-- {
			id := rt.links[rng.Intn(len(rt.links))]
			switch rate := 0.2 + 0.7*rng.Float64(); rng.Intn(4) {
			case 0:
				out[r].faults = append(out[r].faults, func(eng *Engine) { eng.FailLink(id) })
			case 1:
				out[r].faults = append(out[r].faults, func(eng *Engine) { eng.RestoreLink(id) })
			case 2:
				out[r].faults = append(out[r].faults, func(eng *Engine) { eng.SetLinkLoss(id, rate) })
			default:
				out[r].faults = append(out[r].faults, func(eng *Engine) { eng.SetLinkLoss(id, 0) })
			}
		}
		n := []int{1, batchSize, 1 + rng.Intn(80)}[rng.Intn(3)]
		for ; n > 0; n-- {
			out[r].in = append(out[r].in, rt.input(t, e, rng, flow))
			flow++
		}
	}
	return out
}

func (rt *routerTraffic) input(t testing.TB, e *env, rng *rand.Rand, flow uint32) routerInput {
	p := rt.paths[rng.Intn(len(rt.paths))]
	fp := &FwdPath{Hops: append([]HopField(nil), p.Hops...), MTU: p.MTU}
	pkt := diffPacketFor(diffPacket{flow: flow, path: fp, src: p.Hops[0].Hop.IA, payload: rng.Intn(200)})
	switch rng.Intn(12) {
	case 0, 1: // tampered MAC at a random hop (at hop 0 a silent drop)
		fp.Hops[rng.Intn(len(fp.Hops))].MAC[rng.Intn(MACLen)] ^= 1 << rng.Intn(8)
	case 2: // a genuine MAC over an egress interface the AS lacks
		i := rng.Intn(len(fp.Hops) - 1)
		h := fp.Hops[i].Hop
		h.Out = 63
		fp.Hops[i] = HopField{Hop: h, MAC: hopMAC(e.infra.ForwardingKey(h.IA), h)}
	case 3: // a one-hop path: the next router cannot advance CurrHF
		fp.Hops = fp.Hops[:1]
	case 4, 5:
		return routerInput{raw: encodeTestPacket(t, pkt)}
	case 6: // a data frame without a SCION path
		hdr := slayers.SCION{NextHdr: slayers.NextHdrUDP, PathType: slayers.PathTypeEmpty,
			DstIA: pkt.Dst.IA, SrcIA: pkt.Src.IA, DstHost: pkt.Dst, SrcHost: pkt.Src}
		b := make([]byte, 64)
		n, err := hdr.SerializeTo(b)
		if err != nil {
			t.Fatal(err)
		}
		return routerInput{raw: b[:n]}
	case 7: // an SCMP frame walking back from a random hop
		return routerInput{raw: scmpFrame(t, encodeTestPacket(t, pkt), uint8(rng.Intn(len(fp.Hops))), pkt.Dst.IA)}
	}
	return routerInput{pkt: pkt}
}

// routerRun is what one replay observed: each batch as it entered its
// router (the AS and every frame's bytes, so every hop's CurrHF and
// every SCMP walk step shows), each delivery with the delivered bytes,
// each SCMP handed to a sender, and the final counters.
type routerRun struct {
	batches, delivered, scmps []string
	stats                     EngineStats
}

// replay runs the rounds through eng, draining each with drain.
func replay(t testing.TB, eng *Engine, rounds []routerRound, drain func(*routerRun)) *routerRun {
	t.Helper()
	r := &routerRun{}
	for _, ia := range eng.ias {
		eng.OnDeliver(ia, func(s *slayers.SCION) {
			r.delivered = append(r.delivered, fmt.Sprintf("%s %x %x", ia, s.HeaderBytes(), s.Payload()))
		})
		eng.OnSCMP(ia, func(m *SCMP) { r.scmps = append(r.scmps, fmt.Sprintf("%s %+v", ia, *m)) })
	}
	for _, rd := range rounds {
		for _, fn := range rd.faults {
			fn(eng)
		}
		for _, in := range rd.in {
			if in.pkt != nil {
				_ = eng.Inject(in.pkt) // refusals count in the stats both runs compare
			} else {
				_ = eng.InjectBytes(in.raw, 0)
			}
		}
		drain(r)
	}
	r.stats = eng.Stats()
	return r
}

// drainWith is Flush's loop with process as the router, logging each
// batch as it enters it.
func drainWith(eng *Engine, process func(a int32, batch []*frame)) func(*routerRun) {
	return func(r *routerRun) {
		for eng.queued > 0 {
			for a := range eng.queues {
				for head := 0; head < len(eng.queues[a]); {
					n := min(batchSize, len(eng.queues[a])-head)
					batch := eng.queues[a][head : head+n]
					var sb strings.Builder
					sb.WriteString(eng.ias[a].String())
					for _, f := range batch {
						fmt.Fprintf(&sb, " %x", f.b)
					}
					r.batches = append(r.batches, sb.String())
					head += n
					eng.queued -= n
					process(int32(a), batch)
				}
				clear(eng.queues[a])
				eng.queues[a] = eng.queues[a][:0]
			}
		}
	}
}

// replayBoth replays rounds through the engine's router and the
// reference router, each draining its own queues batch by batch, and
// through the engine's own Flush.
func replayBoth(t testing.TB, e *env, rounds []routerRound) (got, flushed, want *routerRun) {
	t.Helper()
	eng := NewEngine(e.topo, e.infra.ForwardingKey)
	got = replay(t, eng, rounds, drainWith(eng, func(a int32, b []*frame) {
		eng.flush.batch = append(eng.flush.batch[:0], b...)
		eng.processBatch(a, eng.flush)
	}))
	fl := NewEngine(e.topo, e.infra.ForwardingKey)
	flushed = replay(t, fl, rounds, func(*routerRun) { fl.Flush() })
	ref := newRefEngine(e.topo, e.infra.ForwardingKey)
	want = replay(t, ref.Engine, rounds, drainWith(ref.Engine, func(a int32, b []*frame) {
		ref.flush.batch = append(ref.flush.batch[:0], b...)
		ref.processBatch(a, ref.flush)
	}))
	return got, flushed, want
}

// sameLog reports the first entry where two logs part.
func sameLog(t testing.TB, what string, got, want []string) {
	t.Helper()
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Fatalf("%s %d of %d:\n got %s\nwant %s", what, i, len(want), got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d %s, reference %d", len(got), what, len(want))
	}
}

func sameRun(t testing.TB, got, flushed, want *routerRun) {
	t.Helper()
	sameLog(t, "batch", got.batches, want.batches)
	for name, r := range map[string]*routerRun{"router": got, "Flush": flushed} {
		sameLog(t, name+" delivery", r.delivered, want.delivered)
		sameLog(t, name+" SCMP", r.scmps, want.scmps)
		if r.stats != want.stats {
			t.Fatalf("%s stats %+v, reference %+v", name, r.stats, want.stats)
		}
	}
}

// TestRouterMatchesReference replays seeded traffic through the engine's
// raw-path router and the reference router it replaced
// (router_reference_test.go): every batch must enter every router with
// the same frame bytes, deliveries and SCMPs must match in bytes,
// fields and order, and the counters must be equal. The engine's own
// Flush must give the same deliveries, SCMPs and counters.
func TestRouterMatchesReference(t *testing.T) {
	e := newEnv(t)
	rt := newRouterTraffic(t, e)
	for seed := int64(1); seed <= 4; seed++ {
		got, flushed, want := replayBoth(t, e, rt.trace(t, e, seed, 40))
		sameRun(t, got, flushed, want)
		st := want.stats
		if st.Delivered == 0 || st.DroppedBadMAC == 0 || st.DroppedNoRoute == 0 || st.Revocations == 0 ||
			st.DroppedGray == 0 || st.DroppedMalformed == 0 || len(want.scmps) == 0 {
			t.Errorf("seed %d left a path of the router unexercised: %+v, %d SCMPs", seed, st, len(want.scmps))
		}
	}
}

// FuzzRouterMatchesReference replays a short seeded trace plus one
// arbitrary frame through both routers.
func FuzzRouterMatchesReference(f *testing.F) {
	e := newEnv(f)
	rt := newRouterTraffic(f, e)
	f.Add(int64(1), []byte{})
	for i, p := range e.paths {
		buf := encodeTestPacket(f, testPacket(e, i, []byte("fuzz"), uint32(i+1)))
		f.Add(int64(i), buf)
		f.Add(int64(i), scmpFrame(f, buf, uint8(len(p.Hops)-1), a4))
	}
	f.Fuzz(func(t *testing.T, seed int64, data []byte) {
		rounds := rt.trace(t, e, seed, 3)
		rounds[1].in = append(rounds[1].in, routerInput{raw: data})
		got, flushed, want := replayBoth(t, e, rounds)
		sameRun(t, got, flushed, want)
	})
}
