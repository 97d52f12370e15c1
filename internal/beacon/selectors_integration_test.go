package beacon

import (
	"testing"
	"time"

	"scionmpr/internal/addr"
	"scionmpr/internal/core"
	"scionmpr/internal/seg"
	"scionmpr/internal/sim"
	"scionmpr/internal/topology"
)

// All three selectors must deliver full core connectivity; their overhead
// must be ordered: latency/diversity (suppressing) < baseline (resending).
func TestAllSelectorsConnectivityAndOrdering(t *testing.T) {
	demo := topology.Demo()
	keep := map[addr.IA]bool{}
	for _, ia := range demo.CoreIAs() {
		keep[ia] = true
	}
	coreTopo := demo.Subgraph(keep)

	runSel := func(f core.Factory) *RunResult {
		cfg := DefaultRunConfig(coreTopo, CoreMode, f, 20)
		cfg.Duration = 3 * time.Hour
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := runSel(core.NewBaseline(5))
	div := runSel(core.NewDiversity(core.DefaultParams(5)))
	lat := runSel(core.NewLatencyAware(5, core.UniformLatency(5*time.Millisecond)))

	cores := coreTopo.CoreIAs()
	for name, res := range map[string]*RunResult{"baseline": base, "diversity": div, "latency": lat} {
		for _, s := range cores {
			for _, d := range cores {
				if s != d && len(res.PathSet(s, d)) == 0 {
					t.Errorf("%s: no paths %s -> %s", name, s, d)
				}
			}
		}
	}
	if div.TotalOverheadBytes() >= base.TotalOverheadBytes() {
		t.Errorf("diversity %d not below baseline %d", div.TotalOverheadBytes(), base.TotalOverheadBytes())
	}
	if lat.TotalOverheadBytes() >= base.TotalOverheadBytes() {
		t.Errorf("latency %d not below baseline %d", lat.TotalOverheadBytes(), base.TotalOverheadBytes())
	}
}

// The diversity algorithm also works for intra-ISD beaconing (the paper
// only runs the baseline there because intra-ISD is already cheap, but
// notes the diversity variant "would scale even better", §5.1).
func TestDiversityIntraISD(t *testing.T) {
	demo := topology.Demo()
	cfgB := DefaultRunConfig(demo, IntraMode, core.NewBaseline(5), 20)
	cfgB.Duration = 3 * time.Hour
	base, err := Run(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	cfgD := DefaultRunConfig(demo, IntraMode, core.NewDiversity(core.DefaultParams(5)), 20)
	cfgD.Duration = 3 * time.Hour
	div, err := Run(cfgD)
	if err != nil {
		t.Fatal(err)
	}
	// Same reachability...
	for _, ia := range demo.IAs() {
		if demo.AS(ia).Core {
			continue
		}
		gotB, gotD := 0, 0
		for _, c := range demo.CoreIAs() {
			if c.ISD != ia.ISD {
				continue
			}
			gotB += len(base.PathSet(c, ia))
			gotD += len(div.PathSet(c, ia))
		}
		if gotB > 0 && gotD == 0 {
			t.Errorf("diversity intra-ISD lost reachability at %s", ia)
		}
	}
	// ...at lower cost.
	if div.TotalOverheadBytes() >= base.TotalOverheadBytes() {
		t.Errorf("diversity intra %d not below baseline intra %d",
			div.TotalOverheadBytes(), base.TotalOverheadBytes())
	}
}

// PathSet must skip beacons whose links cannot be resolved against the
// topology (defensive path for corrupted stores).
func TestPathSetSkipsUnresolvable(t *testing.T) {
	demo := topology.Demo()
	keep := map[addr.IA]bool{}
	for _, ia := range demo.CoreIAs() {
		keep[ia] = true
	}
	coreTopo := demo.Subgraph(keep)
	cfg := DefaultRunConfig(coreTopo, CoreMode, core.NewBaseline(5), 20)
	cfg.Duration = time.Hour
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cores := coreTopo.CoreIAs()
	src, dst := cores[0], cores[1]
	before := len(res.PathSet(src, dst))
	if before == 0 {
		t.Fatal("no paths to corrupt")
	}
	// Inject a bogus beacon with a non-existent interface.
	store := res.Servers[dst].Store()
	bogus, err := seg.NewPCB(src, 999, 0, 2*sim.Time(res.Cfg.Lifetime)).Extend(fakeSigner{src}, dst, 0, 999, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	store.InsertPCB(0, bogus, 77)
	after := res.PathSet(src, dst)
	if len(after) != before {
		t.Errorf("unresolvable beacon changed path set: %d -> %d", before, len(after))
	}
	// Self path set is nil; unknown server nil.
	if res.PathSet(src, src) != nil {
		t.Error("self path set must be nil")
	}
	if res.PathSet(src, addr.MustIA(9, 9)) != nil {
		t.Error("unknown dst path set must be nil")
	}
}
