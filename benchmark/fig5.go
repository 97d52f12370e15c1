package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"scionmpr/internal/addr"
	"scionmpr/internal/beacon"
	"scionmpr/internal/bgp"
	"scionmpr/internal/core"
	"scionmpr/internal/seg"
	"scionmpr/internal/topology"
	"scionmpr/internal/trust"
)

// fig5_ctrl: the paper's Figure-5 control-plane pipeline. One operation
// is one pass: diversity core beaconing, baseline core beaconing and a
// BGP convergence run on the same topology, with a collection and
// dropped results between stages as cmd/experiments does.

type fig5Env struct {
	full, core *topology.Graph
}

func fig5Setup(sc scale, rec *recorder) (*fig5Env, error) {
	p := topology.DefaultGenParams()
	p.NumASes, p.Tier1, p.Seed = sc.fig5ASes, sc.fig5Tier1, topoSeed
	id := rec.begin("topology.generate", -1, 0)
	full, err := topology.Generate(p)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	id = rec.begin("topology.extract_core", -1, 0)
	coreT, err := topology.ExtractCore(full, sc.fig5Core)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	return &fig5Env{full: full, core: coreT}, nil
}

func (e *fig5Env) beaconCfg(sc scale, f core.Factory) beacon.RunConfig {
	cfg := beacon.DefaultRunConfig(e.core, beacon.CoreMode, f, 60)
	cfg.Duration = sc.fig5Beaconing
	return cfg
}

func divFactory() core.Factory  { return core.NewDiversity(core.DefaultParams(5)) }
func baseFactory() core.Factory { return core.NewBaseline(5) }

// fig5Pass is what one pass measured and counted.
type fig5Pass struct {
	wallS  [3]float64 // diversity, baseline, bgp
	events [3]uint64
	heapMB [3]float64
	bytes  [3]uint64 // overhead bytes of the two beaconing runs, BGP tx
}

func (p *fig5Pass) totalS() float64 { return p.wallS[0] + p.wallS[1] + p.wallS[2] }

// fig5Samples are the seeded output checks of a pass.
type fig5Samples struct {
	corePairs [][2]addr.IA
	speakers  []addr.IA
	origins   []addr.IA
}

func (e *fig5Env) samples(seed int64) fig5Samples {
	rng := rand.New(rand.NewSource(seed))
	cores, all := e.core.IAs(), e.full.IAs()
	var s fig5Samples
	for len(s.corePairs) < 50 {
		a, b := cores[rng.Intn(len(cores))], cores[rng.Intn(len(cores))]
		if a != b {
			s.corePairs = append(s.corePairs, [2]addr.IA{a, b})
		}
	}
	for i := 0; i < 20; i++ {
		s.speakers = append(s.speakers, all[rng.Intn(len(all))])
	}
	for i := 0; i < 5; i++ {
		s.origins = append(s.origins, all[rng.Intn(len(all))])
	}
	return s
}

// pass runs the three stages once. Each stage counts as one attempted
// operation and fails when one of its output checks does.
func (e *fig5Env) pass(sc scale, smp fig5Samples, rec *recorder, op int, out *outcome) (fig5Pass, error) {
	var p fig5Pass
	root := rec.begin("bench.fig5_pass", -1, op)
	defer rec.end(root)
	for i, st := range []struct {
		name string
		f    core.Factory
	}{{"beacon.run_diversity", divFactory()}, {"beacon.run_baseline", baseFactory()}} {
		settle()
		id := rec.begin(st.name, root, op)
		t0 := time.Now()
		run, err := beacon.Run(e.beaconCfg(sc, st.f))
		p.wallS[i] = time.Since(t0).Seconds()
		rec.end(id)
		if err != nil {
			return p, err
		}
		p.events[i], p.bytes[i], p.heapMB[i] = run.Sim.Executed, run.TotalOverheadBytes(), heapMB()
		out.attempted++
		for _, pr := range smp.corePairs {
			if run.Quality(pr[0], pr[1]) <= 0 {
				out.fail("%s: no disseminated path %s -> %s", st.name, pr[0], pr[1])
				break
			}
		}
	}
	if p.bytes[0] >= p.bytes[1] {
		out.fail("diversity overhead %d B is not below baseline %d B", p.bytes[0], p.bytes[1])
	}

	settle()
	id := rec.begin("bgp.run", root, op)
	t0 := time.Now()
	res, err := bgp.Run(bgp.DefaultConfig(e.full))
	p.wallS[2] = time.Since(t0).Seconds()
	rec.end(id)
	if err != nil {
		return p, err
	}
	p.events[2], p.bytes[2], p.heapMB[2] = res.Sim.Executed, res.Net.GrandTotalTx(), heapMB()
	out.attempted++
	if !res.Converged {
		out.fail("bgp did not converge")
	}
check:
	for _, sp := range smp.speakers {
		for _, o := range smp.origins {
			if sp != o && res.Speakers[sp].Best(o) == nil {
				out.fail("bgp speaker %s holds no route to %s", sp, o)
				break check
			}
		}
	}
	return p, nil
}

func runFig5(c *runCtx) (*outcome, error) {
	out := newOutcome()
	env, setupS, err := medianSetup(c.sc.setupReps, func() (*fig5Env, error) { return fig5Setup(c.sc, nil) })
	if err != nil {
		return nil, err
	}
	out.setupS = setupS
	smp := env.samples(c.seed)

	var passes []fig5Pass
	var memBefore runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	// A pass takes about a third of the window: stop once 0.85 of it is
	// used, so that three passes fit without starting a fourth.
	w := c.newWindow(0.85)
	for rec, ok := w.next(); ok; rec, ok = w.next() {
		p, err := env.pass(c.sc, smp, rec, len(passes), out)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
		w.observe(rec, p.totalS()*1e3)
	}
	var events uint64
	var wall float64
	for _, p := range passes {
		out.opMs = append(out.opMs, p.totalS()*1e3)
		events += p.events[0] + p.events[1] + p.events[2]
		wall += p.totalS()
	}
	out.opsPerS = float64(events) / wall
	last := passes[len(passes)-1]
	out.exact["sim.events"] = float64(last.events[0] + last.events[1] + last.events[2])
	out.exact["beacon.div_overhead_bytes"] = float64(last.bytes[0])
	out.exact["beacon.base_overhead_bytes"] = float64(last.bytes[1])
	out.exact["bgp.tx_bytes"] = float64(last.bytes[2])
	for _, p := range passes {
		if p.events != last.events || p.bytes != last.bytes {
			out.check(false, "passes of one run disagree: events %v vs %v, bytes %v vs %v", p.events, last.events, p.bytes, last.bytes)
			break
		}
	}
	if !c.traced {
		return out, nil
	}

	// Per-layer numbers: stage medians over every pass, then the kernels
	// on state harvested from one more diversity run at Workers 1.
	L := out.layer
	col := func(f func(fig5Pass) float64) float64 {
		var xs []float64
		for _, p := range passes {
			xs = append(xs, f(p))
		}
		return median(xs)
	}
	L["beacon.div_wall_s"] = col(func(p fig5Pass) float64 { return p.wallS[0] })
	L["beacon.base_wall_s"] = col(func(p fig5Pass) float64 { return p.wallS[1] })
	L["bgp.wall_s"] = col(func(p fig5Pass) float64 { return p.wallS[2] })
	L["beacon.div_heap_mb"] = col(func(p fig5Pass) float64 { return p.heapMB[0] })
	L["beacon.base_heap_mb"] = col(func(p fig5Pass) float64 { return p.heapMB[1] })
	L["bgp.heap_mb"] = col(func(p fig5Pass) float64 { return p.heapMB[2] })
	L["beacon.div_base_bytes_ratio"] = float64(last.bytes[0]) / float64(last.bytes[1])
	L["sim.events_per_s"] = out.opsPerS
	L["bgp.events_per_s"] = float64(last.events[2]) / L["bgp.wall_s"]
	L["trace.overhead_share"] = w.overheadShare()
	runtimeShares(L, &memBefore, wall)

	if _, err := fig5Setup(c.sc, c.rec); err != nil { // the set-up once more, with spans
		return nil, err
	}
	st := c.rec.byName()
	L["topology.generate_ms"] = st.p50("topology.generate", 1e6)
	L["topology.extract_core_ms"] = st.p50("topology.extract_core", 1e6)
	return out, env.kernels(c, smp, out, L["beacon.div_wall_s"])
}

// kernels replays inputs harvested from a diversity run through the
// public kernels of the layers that beacon.Run hides.
func (e *fig5Env) kernels(c *runCtx, smp fig5Samples, out *outcome, divWallS float64) error {
	L, rec := out.layer, c.rec
	// sim.speedup_wmax: the same stage at one worker; results must match.
	settle()
	def, err := beacon.Run(e.beaconCfg(c.sc, divFactory()))
	if err != nil {
		return err
	}
	want := def.Fingerprint()
	def = nil
	settle()
	cfg := e.beaconCfg(c.sc, divFactory())
	cfg.Workers = 1
	id := rec.begin("beacon.run_diversity_w1", -1, 0)
	t0 := time.Now()
	run, err := beacon.Run(cfg)
	w1 := time.Since(t0).Seconds()
	rec.end(id)
	if err != nil {
		return err
	}
	L["sim.speedup_wmax"] = w1 / divWallS
	out.check(run.Fingerprint() == want, "diversity run differs between Workers 1 and the default")

	// Harvest the fullest store and its PCBs.
	var at addr.IA
	var store *beacon.Store
	for _, ia := range e.core.IAs() {
		if s := run.Servers[ia].Store(); store == nil || s.Len() > store.Len() {
			at, store = ia, s
		}
	}
	type stored struct {
		p       *seg.PCB
		ingress addr.IfID
	}
	var pcbs []stored
	for _, o := range store.Origins() {
		for _, en := range store.Entries(run.End, o) {
			pcbs = append(pcbs, stored{en.PCB, en.Ingress})
		}
	}
	if len(pcbs) == 0 {
		return fmt.Errorf("fig5: nothing harvested at %s", at)
	}
	rec.count("beacon.harvested_pcbs", int64(len(pcbs)))

	id = rec.begin("trust.new_infra", -1, 0)
	infra, err := trust.NewInfra(e.core, trust.Sized)
	rec.end(id)
	if err != nil {
		return err
	}
	signer := infra.SignerFor(at)
	body := make([]byte, 200)
	L["trust.sign_ns"] = kernelNs(20000, func(int) { _, _ = signer.Sign(body) })

	// seg codec and extension on the harvested PCBs.
	const reps = 20000
	next := e.core.CoreNeighbors(at)[0]
	L["seg.extend_ns"] = kernelNs(reps, func(i int) {
		_, _ = pcbs[i%len(pcbs)].p.Extend(signer, next, 1, 2, nil, 1472)
	})
	buf := make([]byte, 0, 4096)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	L["seg.encode_ns"] = kernelNs(reps, func(i int) { buf = pcbs[i%len(pcbs)].p.AppendEncode(buf[:0]) })
	runtime.ReadMemStats(&m1)
	L["seg.encode_allocs"] = float64(m1.Mallocs-m0.Mallocs) / reps
	encoded := make([][]byte, len(pcbs))
	for i, s := range pcbs {
		encoded[i] = s.p.Encode()
	}
	var decodeErr error
	L["seg.decode_ns"] = kernelNs(reps, func(i int) {
		if _, err := seg.Decode(encoded[i%len(encoded)]); err != nil {
			decodeErr = err
		}
	})
	out.check(decodeErr == nil, "seg.Decode rejected an encoded PCB: %v", decodeErr)

	// Store insert: the harvested entries into a fresh store, twice, so
	// that the second round meets a full store.
	fresh := beacon.NewStore(60)
	accepted := 0
	id = rec.begin("beacon.store_insert", -1, 0)
	L["beacon.store_insert_ns"] = kernelNs(2*len(pcbs), func(i int) {
		s := pcbs[i%len(pcbs)]
		if fresh.InsertPCB(run.End, s.p, s.ingress).Accepted() {
			accepted++
		}
	})
	rec.end(id)
	L["beacon.store_accept_share"] = float64(accepted) / float64(2*len(pcbs))

	// Selection over the harvested store, toward every core neighbour.
	for _, sel := range []struct {
		metric, span string
		f            core.Factory
	}{{"core.div_select_us", "core.select_diversity", divFactory()}, {"core.base_select_us", "core.select_baseline", baseFactory()}} {
		s := sel.f(at)
		calls := 0
		id = rec.begin(sel.span, -1, 0)
		t0 = time.Now()
		for _, nb := range e.core.CoreNeighbors(at) {
			var ifaces []addr.IfID
			for _, l := range e.core.LinksBetween(at, nb) {
				ifaces = append(ifaces, l.LocalIf(at))
			}
			for _, o := range store.Origins() {
				var cand []*seg.PCB
				for _, p := range store.PCBs(run.End, o) {
					if !p.ContainsAS(nb) {
						cand = append(cand, p)
					}
				}
				s.Select(run.End, o, nb, ifaces, cand)
				calls++
			}
		}
		L[sel.metric] = float64(time.Since(t0).Microseconds()) / float64(calls)
		rec.end(id)
	}
	return nil
}

// runtimeShares fills the Go runtime's cost over the measured window
// and returns the statistics it read at the window's end.
func runtimeShares(L map[string]float64, before *runtime.MemStats, wallS float64) runtime.MemStats {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	L["runtime.alloc_gb"] = float64(after.TotalAlloc-before.TotalAlloc) / 1e9
	L["runtime.gc_cycles"] = float64(after.NumGC - before.NumGC)
	if wallS > 0 {
		L["runtime.gc_pause_share"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e9 / wallS
	}
	return after
}
