// Benchmarks regenerating the paper's tables and figures (one benchmark
// per experiment; see the DESIGN.md per-experiment index) plus ablations
// of the design choices called out there. Custom metrics report the
// experiment observables: bytes/run for overhead experiments,
// quality/pair for path-quality experiments.
package scionmpr_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"scionmpr/internal/addr"
	"scionmpr/internal/beacon"
	"scionmpr/internal/bgp"
	"scionmpr/internal/bgpsec"
	"scionmpr/internal/core"
	"scionmpr/internal/dataplane"
	"scionmpr/internal/experiments"
	"scionmpr/internal/graphalg"
	"scionmpr/internal/seg"
	"scionmpr/internal/sim"
	"scionmpr/internal/strategy"
	"scionmpr/internal/telemetry"
	"scionmpr/internal/topology"
	"scionmpr/internal/traffic"
	"scionmpr/internal/trust"
	"scionmpr/scion"
)

// benchTopo caches the shared benchmark topologies.
var benchTopo struct {
	once sync.Once
	full *topology.Graph // 120-AS synthetic Internet
	core *topology.Graph // 16-AS extracted core
}

func topos(b *testing.B) (*topology.Graph, *topology.Graph) {
	b.Helper()
	benchTopo.once.Do(func() {
		p := topology.DefaultGenParams()
		p.NumASes = 120
		p.Tier1 = 6
		full, err := topology.Generate(p)
		if err != nil {
			panic(err)
		}
		coreT, err := topology.ExtractCore(full, 16)
		if err != nil {
			panic(err)
		}
		benchTopo.full = full
		benchTopo.core = coreT
	})
	return benchTopo.full, benchTopo.core
}

func runBeacon(b *testing.B, topo *topology.Graph, mode beacon.Mode, f core.Factory, store int, dur time.Duration) *beacon.RunResult {
	b.Helper()
	cfg := beacon.DefaultRunConfig(topo, mode, f, store)
	cfg.Duration = dur
	res, err := beacon.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkTable1Components regenerates Table 1 (scope & frequency of
// every control-plane component, measured on the demo network).
func BenchmarkTable1Components(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable1()
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 7 {
			b.Fatal("table rows missing")
		}
	}
}

// BenchmarkFig5CoreBaseline measures the baseline core-beaconing
// overhead of Figure 5 (bytes/run reported).
func BenchmarkFig5CoreBaseline(b *testing.B) {
	_, coreT := topos(b)
	var bytes uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := runBeacon(b, coreT, beacon.CoreMode, core.NewBaseline(5), 60, time.Hour)
		bytes = res.TotalOverheadBytes()
	}
	b.ReportMetric(float64(bytes), "overhead-bytes/run")
}

// BenchmarkFig5CoreDiversity measures the diversity-algorithm core
// beaconing overhead of Figure 5.
func BenchmarkFig5CoreDiversity(b *testing.B) {
	_, coreT := topos(b)
	var bytes uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := runBeacon(b, coreT, beacon.CoreMode, core.NewDiversity(core.DefaultParams(5)), 60, time.Hour)
		bytes = res.TotalOverheadBytes()
	}
	b.ReportMetric(float64(bytes), "overhead-bytes/run")
}

// BenchmarkFig5IntraISD measures intra-ISD beaconing overhead (Figure 5,
// lowest curve).
func BenchmarkFig5IntraISD(b *testing.B) {
	full, _ := topos(b)
	isd, err := topology.BuildISD(full, 3)
	if err != nil {
		b.Fatal(err)
	}
	var bytes uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := runBeacon(b, isd, beacon.IntraMode, core.NewBaseline(5), 60, time.Hour)
		bytes = res.TotalOverheadBytes()
	}
	b.ReportMetric(float64(bytes), "overhead-bytes/run")
}

// BenchmarkBeaconWorkers measures the parallel scheduler's speedup on
// the 120-AS intra-ISD beaconing run (every AS is an actor). The results
// are byte-identical across worker counts — the determinism tests in
// internal/beacon assert that — so only the wall clock should move.
// The telemetry=on variants attach a metric registry (per-shard counter
// cells on the hot path); the contract is ~0% overhead when disabled
// (nil-receiver no-ops) and <=3% when enabled.
func BenchmarkBeaconWorkers(b *testing.B) {
	full, _ := topos(b)
	isd, err := topology.BuildISD(full, 3)
	if err != nil {
		b.Fatal(err)
	}
	for _, telem := range []bool{false, true} {
		for _, w := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("telemetry=%v/workers=%d", telem, w), func(b *testing.B) {
				var bytes uint64
				for i := 0; i < b.N; i++ {
					cfg := beacon.DefaultRunConfig(isd, beacon.IntraMode, core.NewDiversity(core.DefaultParams(5)), 15)
					cfg.Duration = time.Hour
					cfg.Workers = w
					if telem {
						cfg.Telemetry = telemetry.NewRegistry()
					}
					res, err := beacon.Run(cfg)
					if err != nil {
						b.Fatal(err)
					}
					bytes = res.TotalOverheadBytes()
				}
				b.ReportMetric(float64(bytes), "overhead-bytes/run")
			})
		}
	}
}

// BenchmarkFig5BGPConvergence measures the BGP baseline simulation that
// anchors Figure 5's denominator.
func BenchmarkFig5BGPConvergence(b *testing.B) {
	full, _ := topos(b)
	var bytes uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := bgp.Run(bgp.DefaultConfig(full))
		if err != nil {
			b.Fatal(err)
		}
		bytes = res.Net.GrandTotalTx()
	}
	b.ReportMetric(float64(bytes), "overhead-bytes/run")
}

// BenchmarkFig5BGPsecAccounting measures the RFC 8205 sizing pass that
// derives BGPsec's Figure 5 curve from the BGP simulation.
func BenchmarkFig5BGPsecAccounting(b *testing.B) {
	full, _ := topos(b)
	res, err := bgp.Run(bgp.DefaultConfig(full))
	if err != nil {
		b.Fatal(err)
	}
	prefixes := bgp.SyntheticPrefixCounts(full)
	acct := bgpsec.DefaultAccounting(prefixes)
	monitors := full.IAs()[:16]
	b.ResetTimer()
	var total float64
	for i := 0; i < b.N; i++ {
		total = 0
		for _, m := range monitors {
			total += acct.MonthlyBytes(res.Speakers[m])
		}
	}
	b.ReportMetric(total/float64(len(monitors)), "monthly-bytes/monitor")
}

// fig6 fixture: one diversity run plus sampled pairs, shared across the
// Figure 6 benchmarks.
var fig6 struct {
	once  sync.Once
	run   *beacon.RunResult
	pairs [][2]addr.IA
}

func fig6Fixture(b *testing.B) {
	_, coreT := topos(b)
	fig6.once.Do(func() {
		cfg := beacon.DefaultRunConfig(coreT, beacon.CoreMode, core.NewDiversity(core.DefaultParams(5)), 60)
		cfg.Duration = time.Hour
		res, err := beacon.Run(cfg)
		if err != nil {
			panic(err)
		}
		fig6.run = res
		fig6.pairs = graphalg.SamplePairs(coreT, 20)
	})
}

// BenchmarkFig6aResilience computes the Figure 6a metric (min failing
// links per pair) over the diversity path sets.
func BenchmarkFig6aResilience(b *testing.B) {
	fig6Fixture(b)
	var total int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total = 0
		for _, p := range fig6.pairs {
			total += graphalg.UnionFlow(fig6.run.PathSet(p[0], p[1]), p[0], p[1])
		}
	}
	b.ReportMetric(float64(total)/float64(len(fig6.pairs)), "resilience/pair")
}

// BenchmarkFig6bCapacity computes the Figure 6b metric including the
// optimum reference (max-flow on the full core topology).
func BenchmarkFig6bCapacity(b *testing.B) {
	fig6Fixture(b)
	_, coreT := topos(b)
	var achieved, optimum int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		achieved, optimum = 0, 0
		for _, p := range fig6.pairs {
			achieved += graphalg.UnionFlow(fig6.run.PathSet(p[0], p[1]), p[0], p[1])
			optimum += graphalg.OptimalFlow(coreT, p[0], p[1])
		}
	}
	b.ReportMetric(float64(achieved)/float64(optimum), "capacity-fraction-of-optimum")
}

// BenchmarkFig7SCIONLabQuality regenerates the Appendix B path quality
// comparison (Figures 7/8).
func BenchmarkFig7SCIONLabQuality(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunSCIONLab()
		if err != nil {
			b.Fatal(err)
		}
		var a, o float64
		for j, v := range res.Series[len(res.Series)-1].Values {
			a += v
			o += res.Optimum[j]
		}
		ratio = a / o
	}
	b.ReportMetric(ratio, "diversity60-fraction-of-optimum")
}

// BenchmarkFig9Bandwidth regenerates the per-interface beaconing
// bandwidth distribution of Figure 9.
func BenchmarkFig9Bandwidth(b *testing.B) {
	lab := topology.SCIONLab()
	keep := map[addr.IA]bool{}
	for _, ia := range lab.CoreIAs() {
		keep[ia] = true
	}
	coreT := lab.Subgraph(keep)
	var under4k float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := runBeacon(b, coreT, beacon.CoreMode, core.NewBaseline(5), 5, 6*time.Hour)
		bw := res.PerInterfaceBandwidth()
		n := 0
		for _, v := range bw {
			if v < 4096 {
				n++
			}
		}
		under4k = float64(n) / float64(len(bw))
	}
	b.ReportMetric(under4k, "fraction-under-4KBps")
}

// BenchmarkAblationScoreMean compares the smoothed counter+1 geometric
// mean (default) with the paper-literal raw geometric mean.
func BenchmarkAblationScoreMean(b *testing.B) {
	_, coreT := topos(b)
	for _, variant := range []struct {
		name string
		raw  bool
	}{{"smoothed", false}, {"raw", true}} {
		b.Run(variant.name, func(b *testing.B) {
			p := core.DefaultParams(5)
			p.RawGeoMean = variant.raw
			var bytes uint64
			for i := 0; i < b.N; i++ {
				res := runBeacon(b, coreT, beacon.CoreMode, core.NewDiversity(p), 60, time.Hour)
				bytes = res.TotalOverheadBytes()
			}
			b.ReportMetric(float64(bytes), "overhead-bytes/run")
		})
	}
}

// BenchmarkAblationASDisjoint compares link- vs AS-level disjointness
// (the paper chooses links because AS failures are unlikely, §4.2).
func BenchmarkAblationASDisjoint(b *testing.B) {
	_, coreT := topos(b)
	pairs := graphalg.SamplePairs(coreT, 12)
	for _, variant := range []struct {
		name string
		as   bool
	}{{"link-disjoint", false}, {"as-disjoint", true}} {
		b.Run(variant.name, func(b *testing.B) {
			p := core.DefaultParams(5)
			p.ASDisjoint = variant.as
			var quality int
			for i := 0; i < b.N; i++ {
				res := runBeacon(b, coreT, beacon.CoreMode, core.NewDiversity(p), 60, time.Hour)
				quality = 0
				for _, pr := range pairs {
					quality += res.Quality(pr[0], pr[1])
				}
			}
			b.ReportMetric(float64(quality)/float64(len(pairs)), "quality/pair")
		})
	}
}

// BenchmarkAblationParams sweeps the Equation 2 age exponent alpha.
func BenchmarkAblationParams(b *testing.B) {
	_, coreT := topos(b)
	for _, tc := range []struct {
		name  string
		alpha float64
	}{{"alpha1", 1}, {"alpha6", 6}, {"alpha20", 20}} {
		b.Run(tc.name, func(b *testing.B) {
			p := core.DefaultParams(5)
			p.Alpha = tc.alpha
			var bytes uint64
			for i := 0; i < b.N; i++ {
				res := runBeacon(b, coreT, beacon.CoreMode, core.NewDiversity(p), 60, time.Hour)
				bytes = res.TotalOverheadBytes()
			}
			b.ReportMetric(float64(bytes), "overhead-bytes/run")
		})
	}
}

// BenchmarkSigners compares the real ECDSA P-384 signer with the
// deterministic sized signer used in large simulations.
func BenchmarkSigners(b *testing.B) {
	g := topology.New()
	ia := addr.MustIA(1, 1)
	g.AddAS(ia, true)
	msg := make([]byte, 300)
	b.Run("ecdsa-p384", func(b *testing.B) {
		inf, err := trust.NewInfra(g, trust.ECDSA)
		if err != nil {
			b.Fatal(err)
		}
		s := inf.SignerFor(ia)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Sign(msg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sized", func(b *testing.B) {
		inf, err := trust.NewInfra(g, trust.Sized)
		if err != nil {
			b.Fatal(err)
		}
		s := inf.SignerFor(ia)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Sign(msg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMaxFlow measures the Edmonds-Karp kernel behind Figures 6-8.
func BenchmarkMaxFlow(b *testing.B) {
	_, coreT := topos(b)
	pairs := graphalg.SamplePairs(coreT, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range pairs {
			graphalg.OptimalFlow(coreT, p[0], p[1])
		}
	}
}

// BenchmarkPCBEncode measures path-segment wire encoding (every overhead
// number rests on it).
func BenchmarkPCBEncode(b *testing.B) {
	g := topology.Demo()
	inf, err := trust.NewInfra(g, trust.Sized)
	if err != nil {
		b.Fatal(err)
	}
	ia1 := addr.MustIA(1, 0xff00_0000_0101)
	ia3 := addr.MustIA(1, 0xff00_0000_0103)
	ia5 := addr.MustIA(1, 0xff00_0000_0105)
	p := seg.NewPCB(ia1, 1, 0, 6*3600*1e9)
	p, _ = p.Extend(inf.SignerFor(ia1), ia3, 0, 1, nil, 1472)
	p, _ = p.Extend(inf.SignerFor(ia3), ia5, 1, 2, nil, 1472)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := p.Encode()
		if _, err := seg.Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNetworkBootstrap measures the public API's full control-plane
// bootstrap (trust + beaconing + registration + path servers) on the demo
// network.
func BenchmarkNetworkBootstrap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		n, err := scion.NewNetwork(scion.DemoTopology(), scion.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := n.Paths(addr.MustIA(2, 0xff00_0000_0203), addr.MustIA(1, 0xff00_0000_0106)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPathLookup measures endpoint path lookup + combination +
// authorization on a bootstrapped network (cache defeated by alternating
// destinations).
func BenchmarkPathLookup(b *testing.B) {
	n, err := scion.NewNetwork(scion.DemoTopology(), scion.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	src := addr.MustIA(2, 0xff00_0000_0203)
	dsts := []addr.IA{
		addr.MustIA(1, 0xff00_0000_0106),
		addr.MustIA(1, 0xff00_0000_0104),
		addr.MustIA(3, 0xff00_0000_0304),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.Paths(src, dsts[i%len(dsts)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchedulerDecision measures one multipath scheduling decision
// per implementation over an 8-path set — the hot call of the traffic
// engine (one per admitted chunk).
func BenchmarkSchedulerDecision(b *testing.B) {
	infos := make([]strategy.PathView, 8)
	for i := range infos {
		infos[i] = strategy.PathView{
			Hops:       3 + i%3,
			Delay:      time.Duration(10+i) * time.Millisecond,
			Bottleneck: 1.25e8 * float64(1+i%4),
			Busy:       i%2 == 0,
		}
	}
	for _, name := range []string{"single-best", "round-robin", "weighted", "latency"} {
		b.Run(name, func(b *testing.B) {
			factory, err := strategy.New(name)
			if err != nil {
				b.Fatal(err)
			}
			s := factory()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Pick(infos)
			}
		})
	}
}

// BenchmarkTokenBucketRefill measures chunk admission along a 3-link path:
// per-direction refill, bottleneck grant and charge across all buckets.
func BenchmarkTokenBucketRefill(b *testing.B) {
	g := topology.New()
	ias := make([]addr.IA, 4)
	for i := range ias {
		ias[i] = addr.MustIA(1, addr.AS(i+1))
		g.AddAS(ias[i], true)
	}
	var refs []dataplane.LinkRef
	for i := 0; i+1 < len(ias); i++ {
		l, err := g.Connect(ias[i], ias[i+1], topology.Core)
		if err != nil {
			b.Fatal(err)
		}
		refs = append(refs, dataplane.LinkRef{Link: l, From: ias[i]})
	}
	m := traffic.NewLinkModel(traffic.UniformCapacity(1.25e9))
	now := sim.Time(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Advance virtual time so the refill path (not just the
		// bucket-empty path) is exercised every call.
		now += sim.Time(50 * time.Microsecond)
		m.AdmitAtLeast(now, refs, 64<<10, 0)
	}
}

// BenchmarkFlowArrivalChurn measures the engine end to end: a fresh demo
// network absorbing a 1000-flow Poisson workload to completion, including
// path lookups, admission, head packets and completion bookkeeping.
func BenchmarkFlowArrivalChurn(b *testing.B) {
	src1 := addr.MustIA(1, 0xff00_0000_0106)
	dst1 := addr.MustIA(1, 0xff00_0000_0104)
	src2 := addr.MustIA(2, 0xff00_0000_0203)
	var flows float64
	for i := 0; i < b.N; i++ {
		n, err := scion.NewNetwork(scion.DemoTopology(), scion.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		eng, err := traffic.NewEngine(traffic.Config{
			Fabric:   n.Fabric(),
			Provider: n.Paths,
			Links:    traffic.NewLinkModel(traffic.DefaultCapacity()),
		})
		if err != nil {
			b.Fatal(err)
		}
		specs := traffic.Generate(traffic.WorkloadParams{
			Flows:       1000,
			Pairs:       [][2]addr.IA{{src1, dst1}, {src2, src1}, {dst1, src2}},
			ArrivalRate: 5000,
			MeanSize:    64 << 10,
			Seed:        7,
		})
		for _, spec := range specs {
			eng.Add(spec)
		}
		s := eng.Run()
		if s.Completed != 1000 {
			b.Fatalf("completed = %d", s.Completed)
		}
		flows = float64(s.Completed)
	}
	b.ReportMetric(flows, "flows/op")
}

// BenchmarkChaosFlapTick measures one fail/restore pair applied to both
// planes — the work a single flap injection performs on its targets
// (the engine itself only adds depth bookkeeping on top).
func BenchmarkChaosFlapTick(b *testing.B) {
	_, coreTopo := topos(b)
	s := &sim.Simulator{}
	net := sim.NewNetwork(s, coreTopo, time.Millisecond)
	infra, err := trust.NewInfra(coreTopo, trust.Sized)
	if err != nil {
		b.Fatal(err)
	}
	fabric := dataplane.NewFabric(net, infra.ForwardingKey)
	id := coreTopo.Links[0].ID
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.FailLink(id)
		fabric.FailLink(id)
		fabric.RestoreLink(id)
		net.RestoreLink(id)
	}
}

// BenchmarkChaosGrayDropDecision measures the per-message cost the gray
// failure check adds to the network hot path when a lossy link is active.
func BenchmarkChaosGrayDropDecision(b *testing.B) {
	s := &sim.Simulator{}
	g := topology.New()
	a1 := addr.MustIA(1, 1)
	a2 := addr.MustIA(1, 2)
	g.AddAS(a1, true)
	g.AddAS(a2, true)
	l, err := g.Connect(a1, a2, topology.Core)
	if err != nil {
		b.Fatal(err)
	}
	net := sim.NewNetwork(s, g, time.Millisecond)
	net.SetLinkLoss(l.ID, 1) // every send takes the drop branch
	msg := benchWire{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Send(a1, l, msg)
	}
	if net.DroppedByLoss != uint64(b.N) {
		b.Fatalf("dropped %d of %d", net.DroppedByLoss, b.N)
	}
}

type benchWire struct{}

func (benchWire) WireLen() int { return 64 }
