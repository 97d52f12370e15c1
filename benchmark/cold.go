package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"scionmpr/internal/addr"
	"scionmpr/internal/beacon"
	"scionmpr/internal/combinator"
	"scionmpr/internal/dataplane"
	"scionmpr/internal/seg"
	"scionmpr/internal/sim"
	"scionmpr/internal/slayers"
	"scionmpr/internal/strategy"
	"scionmpr/internal/topology"
	"scionmpr/internal/trust"
	"scionmpr/scion"
)

// endpoint_cold: what an endpoint pays for its first byte to a new
// destination on a freshly bootstrapped network. One operation is one
// (src, dst) pair: path lookup and combination, policy pick, packet
// encoding, and in-process forwarding until the delivery callback runs
// at dst. One closed-loop client; nothing crosses a real link.

// isdNet is a bootstrapped single-ISD network; forward_steady uses it too.
type isdNet struct {
	topo *topology.Graph
	net  *scion.Network
}

func isdSetup(sc scale, rec *recorder) (*isdNet, error) {
	id := rec.begin("topology.generate_isd", -1, 0)
	topo, err := scion.GenerateISDTopology(sc.isdASes, sc.isdTier1, sc.isdCores, topoSeed)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	id = rec.begin("scion.new_network", -1, 0)
	net, err := scion.NewNetwork(topo, scion.DefaultOptions())
	rec.end(id)
	if err != nil {
		return nil, err
	}
	return &isdNet{topo: topo, net: net}, nil
}

// leafPairs draws n distinct leaf-to-leaf pairs from the fixed
// population seed; the run's seed only permutes them (see scale).
func leafPairs(topo *topology.Graph, n int) ([][2]addr.IA, error) {
	var leaves []addr.IA
	for _, ia := range topo.IAs() {
		if !topo.AS(ia).Core {
			leaves = append(leaves, ia)
		}
	}
	if len(leaves)*(len(leaves)-1) < n {
		return nil, fmt.Errorf("topology has %d leaves, too few for %d pairs", len(leaves), n)
	}
	rng := rand.New(rand.NewSource(topoSeed))
	seen := map[[2]addr.IA]bool{}
	var out [][2]addr.IA
	for len(out) < n {
		p := [2]addr.IA{leaves[rng.Intn(len(leaves))], leaves[rng.Intn(len(leaves))]}
		if p[0] != p[1] && !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out, nil
}

type delivery struct {
	at   addr.IA
	flow uint32
}

// countingEngine builds an engine with the knobs users get from
// NewEngine (one worker) and a delivery log.
func countingEngine(n *isdNet, log *[]delivery) *dataplane.Engine {
	eng := dataplane.NewEngine(n.topo, n.net.Infra.ForwardingKey)
	eng.Workers = 1
	for _, ia := range n.topo.IAs() {
		ia := ia
		eng.OnDeliver(ia, func(s *slayers.SCION) { *log = append(*log, delivery{ia, s.FlowID}) })
	}
	return eng
}

func pathViews(dst []strategy.PathView, paths []*dataplane.FwdPath, linkDelay time.Duration) []strategy.PathView {
	dst = dst[:0]
	for _, p := range paths {
		links := len(p.Hops) - 1
		dst = append(dst, strategy.PathView{
			Hops: len(p.Hops), Links: links,
			Delay: time.Duration(links) * linkDelay, Bottleneck: 1e9, RevokedAge: -1,
		})
	}
	return dst
}

func runCold(c *runCtx) (*outcome, error) {
	out := newOutcome()
	n, setupS, err := medianSetup(c.sc.setupReps, func() (*isdNet, error) { return isdSetup(c.sc, nil) })
	if err != nil {
		return nil, err
	}
	out.setupS = setupS
	pairs, err := leafPairs(n.topo, c.sc.coldPairs)
	if err != nil {
		return nil, err
	}
	newPolicy, err := strategy.New("weighted")
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(c.seed))
	payload := make([]byte, 64)
	rng.Read(payload)
	buf := make([]byte, 2048)
	var hdr slayers.SCION
	var views []strategy.PathView

	var memBefore runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	pathCount := make([]int, len(pairs)) // per pair, from the last cycle
	pathsMs := make([]float64, len(pairs))
	var cycleS float64
	op := 0
	// A cycle walks the whole population on a cold network, so every
	// run measures the same pairs equally often; it takes about a third
	// of the window (see fig5_ctrl for the 0.85).
	w := c.newWindow(0.85)
	for rec, ok := w.next(); ok; rec, ok = w.next() {
		settle()
		t0 := time.Now()
		if n, err = isdSetup(c.sc, rec); err != nil {
			return nil, err
		}
		var log []delivery
		eng := countingEngine(n, &log)
		for _, pi := range rng.Perm(len(pairs)) {
			src, dst := pairs[pi][0], pairs[pi][1]
			out.attempted++
			op++
			flow := uint32(op) & 0xfffff
			log = log[:0]
			root := rec.begin("bench.first_byte", -1, op)
			opStart := time.Now()

			id := rec.begin("scion.paths", root, op)
			paths, err := n.net.Paths(src, dst)
			pathsMs[pi] = float64(time.Since(opStart).Nanoseconds()) / 1e6
			rec.end(id)
			if err != nil {
				return nil, err
			}
			pathCount[pi] = len(paths)

			views = pathViews(views, paths, n.net.Opts.LinkDelay)
			id = rec.begin("strategy.pick", root, op)
			pick := newPolicy().Pick(views)
			rec.end(id)
			if pick < 0 {
				return nil, fmt.Errorf("cold: policy picked no path for %s -> %s", src, dst)
			}

			pkt := dataplane.Packet{
				Src: addr.HostIP4(src, 10, 0, 0, 1), Dst: addr.HostIP4(dst, 10, 0, 0, 2),
				Path: paths[pick], Payload: payload, FlowID: flow,
			}
			id = rec.begin("dataplane.encode", root, op)
			size, err := dataplane.EncodePacket(&hdr, &pkt, buf)
			rec.end(id)
			if err != nil {
				return nil, err
			}
			id = rec.begin("dataplane.inject", root, op)
			err = eng.InjectBytes(buf[:size], paths[pick].MTU)
			rec.end(id)
			if err != nil {
				return nil, err
			}
			id = rec.begin("dataplane.flush", root, op)
			eng.Flush()
			rec.end(id)

			ms := float64(time.Since(opStart).Nanoseconds()) / 1e6
			rec.end(root)
			out.opMs = append(out.opMs, ms)
			w.observe(rec, ms)
			if len(log) != 1 || log[0] != (delivery{dst, flow}) {
				out.fail("pair %s -> %s: deliveries %v, want one at dst with flow %d", src, dst, log, flow)
			}
		}
		cycleS += time.Since(t0).Seconds()
	}
	out.opsPerS = float64(len(out.opMs)) / cycleS
	total := 0
	for _, k := range pathCount {
		total += k
	}
	out.exact["combinator.paths_per_pair"] = float64(total) / float64(len(pairs))
	if !c.traced {
		return out, nil
	}

	L := out.layer
	L["trace.overhead_share"] = w.overheadShare()
	runtimeShares(L, &memBefore, cycleS)
	return out, coldLayers(c, n, pairs, pathCount, pathsMs, out)
}

// coldLayers re-runs what NewNetwork and Paths hide through the layers'
// public functions, and checks that the decomposed lookup finds exactly
// the paths Paths returned.
func coldLayers(c *runCtx, n *isdNet, pairs [][2]addr.IA, pathCount []int, pathsMs []float64, out *outcome) error {
	L, rec := out.layer, c.rec

	// The three calls NewNetwork makes, stand-alone.
	opts := n.net.Opts
	id := rec.begin("trust.new_infra", -1, 0)
	t0 := time.Now()
	infra, err := trust.NewInfra(n.topo, trust.Sized)
	L["trust.infra_ms"] = float64(time.Since(t0).Microseconds()) / 1e3
	rec.end(id)
	if err != nil {
		return err
	}
	for _, b := range []struct {
		metric, span string
		mode         beacon.Mode
	}{{"beacon.core_boot_ms", "beacon.run_core_boot", beacon.CoreMode}, {"beacon.intra_boot_ms", "beacon.run_intra_boot", beacon.IntraMode}} {
		cfg := beacon.DefaultRunConfig(n.topo, b.mode, divFactory(), opts.StoreLimit)
		cfg.Duration, cfg.Interval, cfg.Lifetime, cfg.Infra = opts.BeaconingTime, opts.Interval, opts.Lifetime, infra
		id = rec.begin(b.span, -1, 0)
		t0 = time.Now()
		_, err := beacon.Run(cfg)
		L[b.metric] = float64(time.Since(t0).Microseconds()) / 1e3
		rec.end(id)
		if err != nil {
			return err
		}
	}

	// Decomposed lookup: segments from the path servers, combination,
	// validation against the topology, hop-field authorisation.
	var cores []addr.IA
	for _, ia := range n.topo.CoreIAs() {
		cores = append(cores, ia)
	}
	now := sim.Time(opts.BeaconingTime + time.Second)
	var attempts, kept, authorized int
	var decomposedMs, wholeMs float64
	for pi, pr := range pairs {
		src, dst := pr[0], pr[1]
		op := pi + 1
		root := rec.begin("bench.decomposed", -1, op)
		t0 := time.Now()

		id := rec.begin("pathdb.lookup", root, op)
		ups := n.net.PathServer(src).LookupUp(now)
		var downs, csegs []*seg.PCB
		for _, cia := range cores {
			downs = append(downs, n.net.PathServer(cia).LookupDown(now, dst)...)
		}
		for _, fc := range cores {
			for _, tc := range cores {
				if fc != tc {
					csegs = append(csegs, n.net.PathServer(fc).LookupCore(now, tc)...)
				}
			}
		}
		rec.end(id)

		id = rec.begin("combinator.allpaths", root, op)
		cands := combinator.AllPaths(ups, csegs, downs)
		rec.end(id)
		attempts += len(ups) * len(downs) * (len(csegs) + 3)
		kept += len(cands)

		id = rec.begin("combinator.check", root, op)
		sort.SliceStable(cands, func(i, j int) bool { return len(cands[i].Hops) < len(cands[j].Hops) })
		seen := map[string]bool{}
		valid := cands[:0]
		for _, p := range cands {
			key := p.String()
			if seen[key] || p.Check(n.topo) != nil {
				continue
			}
			seen[key] = true
			valid = append(valid, p)
		}
		rec.end(id)

		id = rec.begin("dataplane.authorize", root, op)
		for _, p := range valid {
			if _, err := dataplane.Authorize(p, n.net.Infra.ForwardingKey); err != nil {
				return err
			}
		}
		rec.end(id)
		authorized += len(valid)
		decomposedMs += float64(time.Since(t0).Nanoseconds()) / 1e6
		wholeMs += pathsMs[pi]
		rec.end(root)
		out.check(len(valid) == pathCount[pi], "pair %s -> %s: decomposed lookup finds %d paths, Paths %d", src, dst, len(valid), pathCount[pi])
	}
	rec.count("combinator.attempts", int64(attempts))
	rec.count("combinator.kept", int64(kept))

	st := rec.byName()
	p50 := st.p50
	L["scion.bootstrap_ms"] = p50("scion.new_network", 1e6)
	L["topology.generate_ms"] = p50("topology.generate_isd", 1e6)
	L["scion.paths_ms_p50"] = p50("scion.paths", 1e6)
	L["pathdb.lookup_us_p50"] = p50("pathdb.lookup", 1e3)
	L["combinator.allpaths_ms_p50"] = p50("combinator.allpaths", 1e6)
	L["combinator.check_ms_p50"] = p50("combinator.check", 1e6)
	L["strategy.pick_ns"] = p50("strategy.pick", 1)
	L["dataplane.encode_ns"] = p50("dataplane.encode", 1)
	L["dataplane.inject_ns"] = p50("dataplane.inject", 1)
	L["dataplane.flush_ns_per_pkt"] = p50("dataplane.flush", 1)
	if s := st["combinator.allpaths"]; s != nil {
		L["combinator.allpaths_ms_tail"] = percentile(toMs(s.durNs), highestTail(len(s.durNs)))
	}
	if s := st["dataplane.authorize"]; s != nil && authorized > 0 {
		L["dataplane.authorize_us_per_path"] = float64(s.selfNs) / 1e3 / float64(authorized)
	}
	L["combinator.attempts_per_pair"] = float64(attempts) / float64(len(pairs))
	L["combinator.useful_share"] = float64(authorized) / float64(attempts)
	L["scion.paths_decomposed_share"] = decomposedMs / wholeMs
	return nil
}
