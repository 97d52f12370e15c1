package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"scionmpr/internal/addr"
	"scionmpr/internal/dataplane"
	"scionmpr/internal/slayers"
	"scionmpr/internal/telemetry"
	"scionmpr/internal/topology"
)

// forward_steady: the data plane saturated and the control plane idle.
// A default-constructed engine (one worker) forwards pre-encoded
// packets in-process. One operation is one round of four bursts, one
// per leg, each flushed before the next:
//
//	hot    few paths, empty payload: per-packet cost on a small working set
//	wide   the whole path pool, empty payload: the working set against the
//	       per-AS MAC verdict cache
//	mtu    the hot paths with the payload filling the path MTU: copies
//	faulty the wide set with 5 % tampered last-hop MACs and one transit
//	       link failed: the share of traffic leaving the fast path
//
// Closed loop, one client; bursts stay below the 1024-frame ring.

const (
	legHot = iota
	legWide
	legMTU
	legFaulty
	numLegs
)

var legNames = [numLegs]string{"hot", "wide", "mtu", "faulty"}

type wirePacket struct {
	b   []byte
	mtu uint16
	// What the faulty leg expects of this packet.
	tampered, crossing bool
}

type fwdEnv struct {
	*isdNet
	pool   []*dataplane.FwdPath
	flows  [numLegs][]wirePacket
	failed topology.LinkID
	// resolveMs is the part of set-up spent in Paths.
	resolveMs float64
}

func fwdSetup(c *runCtx) (*fwdEnv, error) {
	sc, rec := c.sc, c.rec
	n, err := isdSetup(sc, rec)
	if err != nil {
		return nil, err
	}
	e := &fwdEnv{isdNet: n}

	// The pool: the same number of paths from each of fwdPairs pairs,
	// strided over the pair's hop-count-ordered path list.
	cand, err := leafPairs(n.topo, 4*sc.fwdPairs)
	if err != nil {
		return nil, err
	}
	perPair := sc.fwdPool / sc.fwdPairs
	type endpoints struct{ src, dst addr.IA }
	var ends []endpoints
	t0 := time.Now()
	for _, pr := range cand {
		if len(e.pool) >= sc.fwdPool {
			break
		}
		id := rec.begin("scion.paths", -1, 0)
		paths, err := n.net.Paths(pr[0], pr[1])
		rec.end(id)
		if err != nil {
			return nil, err
		}
		if len(paths) < perPair {
			continue
		}
		for k := 0; k < perPair; k++ {
			e.pool = append(e.pool, paths[k*len(paths)/perPair])
			ends = append(ends, endpoints{pr[0], pr[1]})
		}
	}
	e.resolveMs = float64(time.Since(t0).Microseconds()) / 1e3
	if len(e.pool) < sc.fwdPool {
		return nil, fmt.Errorf("forward: only %d of %d pool paths", len(e.pool), sc.fwdPool)
	}

	// The failed link of the faulty leg: one of the four links
	// whose share of pool paths is nearest 2 %, picked by the seed.
	rng := rand.New(rand.NewSource(c.seed))
	crossing := map[topology.LinkID][]int{}
	for i, p := range e.pool {
		refs, err := p.LinkRefs(n.topo)
		if err != nil {
			return nil, err
		}
		for _, r := range refs {
			crossing[r.Link.ID] = append(crossing[r.Link.ID], i)
		}
	}
	ids := make([]topology.LinkID, 0, len(crossing))
	for id := range crossing {
		ids = append(ids, id)
	}
	target := 0.02 * float64(len(e.pool))
	sort.Slice(ids, func(i, j int) bool {
		di := math.Abs(float64(len(crossing[ids[i]])) - target)
		dj := math.Abs(float64(len(crossing[ids[j]])) - target)
		if di != dj {
			return di < dj
		}
		return ids[i] < ids[j]
	})
	if len(ids) == 0 {
		return nil, fmt.Errorf("forward: pool crosses no transit link")
	}
	e.failed = ids[rng.Intn(min(4, len(ids)))]
	crosses := make([]bool, len(e.pool))
	for _, i := range crossing[e.failed] {
		crosses[i] = true
	}

	// Pre-encode every leg's packets.
	id := rec.begin("dataplane.encode_flows", -1, 0)
	defer rec.end(id)
	var hdr slayers.SCION
	encode := func(i int, path *dataplane.FwdPath, payload int) (wirePacket, error) {
		pkt := dataplane.Packet{
			Src: addr.HostIP4(ends[i].src, 10, 0, 0, 1), Dst: addr.HostIP4(ends[i].dst, 10, 0, 0, 2),
			Path: path, FlowID: uint32(i) & 0xfffff,
		}
		if payload < 0 { // fill the path MTU exactly
			mtu := int(path.MTU)
			if mtu == 0 {
				mtu = 1472
			}
			payload = mtu - pkt.WireLen()
		}
		pkt.Payload = make([]byte, payload)
		b := make([]byte, pkt.WireLen())
		if _, err := dataplane.EncodePacket(&hdr, &pkt, b); err != nil {
			return wirePacket{}, err
		}
		return wirePacket{b: b, mtu: path.MTU}, nil
	}
	for i, p := range e.pool {
		w, err := encode(i, p, 0)
		if err != nil {
			return nil, err
		}
		e.flows[legWide] = append(e.flows[legWide], w)

		f := w
		f.crossing = crosses[i]
		if rng.Intn(20) == 0 {
			bad := &dataplane.FwdPath{Hops: append([]dataplane.HopField(nil), p.Hops...), MTU: p.MTU}
			bad.Hops[len(bad.Hops)-1].MAC[0] ^= 0x80
			if f, err = encode(i, bad, 0); err != nil {
				return nil, err
			}
			f.tampered, f.crossing = true, crosses[i]
		}
		e.flows[legFaulty] = append(e.flows[legFaulty], f)
	}
	for k := 0; k < sc.fwdHot; k++ {
		i := k * len(e.pool) / sc.fwdHot
		e.flows[legHot] = append(e.flows[legHot], e.flows[legWide][i])
		w, err := encode(i, e.pool[i], -1)
		if err != nil {
			return nil, err
		}
		e.flows[legMTU] = append(e.flows[legMTU], w)
	}
	return e, nil
}

// legCounts is what one leg injected and what became of it.
type legCounts struct {
	injected, delivered, badMAC, revoked, otherDrops uint64
	wantBadMAC, wantRevoked                          uint64
	bytes                                            uint64
	burstNs, injectNs                                []int64
}

// fwdLoop drives one engine; speed-up and telemetry legs reuse it.
type fwdLoop struct {
	env       *fwdEnv
	eng       *dataplane.Engine
	delivered atomic.Uint64
	scmp      atomic.Uint64
	cursor    [numLegs]int
	legs      [numLegs]legCounts
}

func newFwdLoop(e *fwdEnv, workers int, reg *telemetry.Registry) *fwdLoop {
	l := &fwdLoop{env: e, eng: dataplane.NewEngine(e.topo, e.net.Infra.ForwardingKey)}
	l.eng.Workers = workers
	l.eng.SetTelemetry(reg)
	for _, ia := range e.topo.IAs() {
		l.eng.OnDeliver(ia, func(*slayers.SCION) { l.delivered.Add(1) })
		l.eng.OnSCMP(ia, func(*dataplane.WireSCMPMsg) { l.scmp.Add(1) })
	}
	return l
}

// burst injects n packets of one leg round-robin over its flow set and
// flushes; keep selects whether the timing is recorded (not in warm-up).
func (l *fwdLoop) burst(leg, n int, keep bool, rec *recorder, parent, op int) (int64, error) {
	flows, lc := l.env.flows[leg], &l.legs[leg]
	if leg == legFaulty {
		l.eng.FailLink(l.env.failed)
		defer l.eng.RestoreLink(l.env.failed)
	}
	before := l.eng.Stats()
	cur := l.cursor[leg]
	id := rec.begin("dataplane.inject_bytes", parent, op)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		p := &flows[cur]
		if cur++; cur == len(flows) {
			cur = 0
		}
		if err := l.eng.InjectBytes(p.b, p.mtu); err != nil {
			return 0, err
		}
		lc.bytes += uint64(len(p.b))
		switch {
		case leg != legFaulty:
		case p.crossing:
			lc.wantRevoked++
		case p.tampered:
			lc.wantBadMAC++
		}
	}
	t1 := time.Now()
	rec.end(id)
	id = rec.begin("dataplane.flush", parent, op)
	l.eng.Flush()
	rec.end(id)
	total := time.Since(t0).Nanoseconds()
	l.cursor[leg] = cur

	after := l.eng.Stats()
	lc.injected += uint64(n)
	lc.delivered += after.Delivered - before.Delivered
	lc.badMAC += after.DroppedBadMAC - before.DroppedBadMAC
	lc.revoked += after.Revocations - before.Revocations
	lc.otherDrops += after.DroppedNoRoute - before.DroppedNoRoute + after.DroppedTooBig - before.DroppedTooBig +
		after.DroppedGray - before.DroppedGray + after.DroppedMalformed - before.DroppedMalformed
	if keep {
		lc.burstNs = append(lc.burstNs, total)
		lc.injectNs = append(lc.injectNs, t1.Sub(t0).Nanoseconds())
	}
	return total, nil
}

// unaccounted is how many packets of the leg are neither delivered nor
// dropped for the reason the leg's construction predicts.
func (lc *legCounts) unaccounted() uint64 {
	diff := func(a, b uint64) uint64 {
		if a > b {
			return a - b
		}
		return b - a
	}
	return diff(lc.injected, lc.delivered+lc.badMAC+lc.revoked+lc.otherDrops) +
		diff(lc.badMAC, lc.wantBadMAC) + diff(lc.revoked, lc.wantRevoked) + lc.otherDrops
}

// pktsPerS is the leg's rate from its median burst.
func (lc *legCounts) pktsPerS(burst int) float64 {
	if len(lc.burstNs) == 0 {
		return 0
	}
	xs := make([]float64, len(lc.burstNs))
	for i, v := range lc.burstNs {
		xs[i] = float64(v)
	}
	return float64(burst) / median(xs) * 1e9
}

// legRate runs one leg alone for d on a fresh engine and returns pkts/s.
func (e *fwdEnv) legRate(leg, burst, workers int, reg *telemetry.Registry, d time.Duration) (float64, error) {
	settle()
	l := newFwdLoop(e, workers, reg)
	start := time.Now()
	for time.Since(start) < d {
		// The first fifth warms the engine's pools and caches.
		if _, err := l.burst(leg, burst, time.Since(start) >= d/5, nil, -1, 0); err != nil {
			return 0, err
		}
	}
	return l.legs[leg].pktsPerS(burst), nil
}

func runForward(c *runCtx) (*outcome, error) {
	out := newOutcome()
	e, setupS, err := medianSetup(c.sc.setupReps, func() (*fwdEnv, error) { return fwdSetup(c) })
	if err != nil {
		return nil, err
	}
	out.setupS = setupS
	burst := c.sc.fwdBurst

	settle()
	l := newFwdLoop(e, 1, nil)
	var memBefore runtime.MemStats
	var measuredPkts int
	warm := math.Min(1, c.seconds/10)
	w := c.newWindow(1)
	measuring := false
	var statsBefore dataplane.EngineStats
	var measureStart time.Time
	op := 0
	for rec, ok := w.next(); ok; rec, ok = w.next() {
		op++
		if !measuring && w.elapsed() >= warm {
			measuring = true
			runtime.ReadMemStats(&memBefore)
			statsBefore = l.eng.Stats()
			measureStart = time.Now()
		}
		root := rec.begin("bench.forward_round", -1, op)
		var roundNs int64
		for leg := 0; leg < numLegs; leg++ {
			ns, err := l.burst(leg, burst, measuring, rec, root, op)
			if err != nil {
				return nil, err
			}
			roundNs += ns
		}
		rec.end(root)
		if !measuring {
			continue
		}
		measuredPkts += numLegs * burst
		ms := float64(roundNs) / 1e6
		out.opMs = append(out.opMs, ms)
		w.observe(rec, ms)
	}
	if !measuring {
		return nil, fmt.Errorf("forward: window of %.2f s ended inside the warm-up", c.seconds)
	}
	measuredS := time.Since(measureStart).Seconds()
	statsAfter := l.eng.Stats()
	memAfter := runtimeShares(out.layer, &memBefore, measuredS)
	out.opsPerS = float64(measuredPkts) / measuredS

	var unaccounted, badMAC, revoked uint64
	for leg := range l.legs {
		lc := &l.legs[leg]
		out.attempted += int(lc.injected)
		u := lc.unaccounted()
		unaccounted += u
		badMAC += lc.badMAC
		revoked += lc.revoked
		if u > 0 {
			out.failed += int(u)
			out.failures = append(out.failures, fmt.Sprintf("leg %s: %d packets unaccounted: %+v", legNames[leg], u,
				[]uint64{lc.injected, lc.delivered, lc.badMAC, lc.wantBadMAC, lc.revoked, lc.wantRevoked, lc.otherDrops}))
		}
	}
	out.check(l.delivered.Load() == statsAfter.Delivered, "delivery callbacks %d, engine delivered %d", l.delivered.Load(), statsAfter.Delivered)
	out.check(l.legs[legFaulty].badMAC > 0 && l.legs[legFaulty].revoked > 0, "faulty leg left the fast path %d + %d times", l.legs[legFaulty].badMAC, l.legs[legFaulty].revoked)
	out.check(l.scmp.Load() == badMAC+revoked, "SCMP messages %d, drops that send one %d", l.scmp.Load(), badMAC+revoked)
	// How much of the faulty flow set leaves the fast path is the seed's choice.
	off := 0
	for _, p := range e.flows[legFaulty] {
		if p.tampered || p.crossing {
			off++
		}
	}
	out.exact["dataplane.faulty_offpath_share"] = float64(off) / float64(len(e.flows[legFaulty]))
	if !c.traced {
		return out, nil
	}

	L := out.layer
	L["trace.overhead_share"] = w.overheadShare()
	L["dataplane.hot_pkts_per_s"] = l.legs[legHot].pktsPerS(burst)
	L["dataplane.wide_pkts_per_s"] = l.legs[legWide].pktsPerS(burst)
	L["dataplane.faulty_pkts_per_s"] = l.legs[legFaulty].pktsPerS(burst)
	mtuLeg := &l.legs[legMTU]
	L["dataplane.mtu_gbit_per_s"] = mtuLeg.pktsPerS(burst) * float64(mtuLeg.bytes) / float64(mtuLeg.injected) * 8 / 1e9
	var injectNs, flushNs []float64
	for leg := range l.legs {
		for i, b := range l.legs[leg].burstNs {
			in := l.legs[leg].injectNs[i]
			injectNs = append(injectNs, float64(in)/float64(burst))
			flushNs = append(flushNs, float64(b-in)/float64(burst))
		}
	}
	L["dataplane.inject_ns"] = median(injectNs)
	L["dataplane.flush_ns_per_pkt"] = median(flushNs)
	L["dataplane.avg_batch"] = float64(statsAfter.BatchPackets-statsBefore.BatchPackets) / float64(statsAfter.Batches-statsBefore.Batches)
	L["dataplane.hops_per_s"] = float64(statsAfter.Forwarded-statsBefore.Forwarded) / measuredS
	L["dataplane.allocs_per_pkt"] = float64(memAfter.Mallocs-memBefore.Mallocs) / float64(measuredPkts)
	L["dataplane.drop_badmac"] = float64(badMAC)
	L["dataplane.revocations"] = float64(revoked)
	L["dataplane.unaccounted"] = float64(unaccounted)
	L["dataplane.pool_resolve_ms"] = e.resolveMs

	// Side legs, each alone on a fresh engine.
	side := time.Duration(math.Min(1.5, c.seconds/8) * float64(time.Second))
	w1, err := e.legRate(legWide, burst, 1, nil, side)
	if err != nil {
		return nil, err
	}
	wn, err := e.legRate(legWide, burst, runtime.GOMAXPROCS(0), nil, side)
	if err != nil {
		return nil, err
	}
	L["dataplane.speedup_wmax"] = wn / w1
	plain, err := e.legRate(legHot, burst, 1, nil, side)
	if err != nil {
		return nil, err
	}
	withReg, err := e.legRate(legHot, burst, 1, telemetry.NewRegistry(), side)
	if err != nil {
		return nil, err
	}
	L["telemetry.engine_overhead_share"] = plain/withReg - 1

	// Header codec on the pool's longest header.
	long := e.flows[legWide][0].b
	for _, p := range e.flows[legWide] {
		if len(p.b) > len(long) {
			long = p.b
		}
	}
	var s slayers.SCION
	var codecErr error
	L["slayers.decode_ns"] = kernelNs(200000, func(int) {
		if err := s.DecodeFromBytes(long); err != nil {
			codecErr = err
		}
	})
	if s.Hops, err = s.DecodeHops(s.Hops[:0]); err != nil { // SerializeTo writes the decoded hop list
		return nil, err
	}
	scratch := make([]byte, len(long))
	L["slayers.serialize_ns"] = kernelNs(200000, func(int) {
		if _, err := s.SerializeTo(scratch); err != nil {
			codecErr = err
		}
	})
	out.check(codecErr == nil, "slayers codec: %v", codecErr)
	st := c.rec.byName()
	L["scion.bootstrap_ms"] = st.p50("scion.new_network", 1e6)
	L["topology.generate_ms"] = st.p50("topology.generate_isd", 1e6)
	return out, nil
}
