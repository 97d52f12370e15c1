package beacon

import (
	"testing"
	"time"

	"scionmpr/internal/chaos"
	"scionmpr/internal/core"
	"scionmpr/internal/sim"
	"scionmpr/internal/topology"
)

// detRun executes the determinism scenario once: diversity beaconing on
// a generated core topology under a seed-derived chaos schedule covering
// all four fault kinds, with the given worker count.
func detRun(t *testing.T, topo *topology.Graph, seed int64, workers int) [32]byte {
	t.Helper()
	cfg := DefaultRunConfig(topo, CoreMode, core.NewDiversity(core.DefaultParams(5)), 15)
	cfg.Duration = 90 * time.Minute
	cfg.Workers = workers
	end := sim.Time(cfg.Duration)
	links := make([]topology.LinkID, 0, len(topo.Links))
	for _, l := range topo.Links {
		links = append(links, l.ID)
	}
	ias := topo.IAs()
	sched := chaos.FlapChurn(seed, links, 4, end/6, end-end/6, 30*time.Second, 10*time.Minute)
	sched.Events = append(sched.Events,
		chaos.Event{Kind: chaos.Gray, Link: links[int(seed)%len(links)],
			At: end / 4, Down: 20 * time.Minute, Rate: 0.3},
		chaos.Event{Kind: chaos.Spike, Link: links[(int(seed)+1)%len(links)],
			At: end / 3, Down: 10 * time.Minute, Delay: 200 * time.Millisecond},
		chaos.Event{Kind: chaos.CrashAS, IA: ias[int(seed)%len(ias)],
			At: end / 2, Down: 15 * time.Minute},
	)
	cfg.Chaos = sched
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Chaos == nil || len(res.Chaos.Injections) == 0 {
		t.Fatal("chaos schedule not applied")
	}
	return res.Fingerprint()
}

// TestParallelRunDeterminism is the tentpole's contract: the same
// configuration — including a chaos schedule exercising link flaps,
// gray-failure RNG draws, latency spikes, and server crashes — must
// produce byte-identical results sequentially and with 2, 4, and 8
// workers, across seeds. Run with -race to also check the worker pool.
func TestParallelRunDeterminism(t *testing.T) {
	p := topology.DefaultGenParams()
	p.NumASes = 100
	p.Tier1 = 5
	full, err := topology.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	coreTopo, err := topology.ExtractCore(full, 14)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 2, 3} {
		seq := detRun(t, coreTopo, seed, 1)
		for _, w := range []int{2, 4, 8} {
			if got := detRun(t, coreTopo, seed, w); got != seq {
				t.Errorf("seed %d: fingerprint with %d workers differs from sequential run", seed, w)
			}
		}
	}
}

// TestParallelMatchesSequentialIntraISD covers the second beaconing mode
// (down the provider hierarchy, with peer entries) without chaos.
func TestParallelMatchesSequentialIntraISD(t *testing.T) {
	p := topology.DefaultGenParams()
	p.NumASes = 80
	p.Tier1 = 4
	full, err := topology.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	isd, err := topology.BuildISD(full, 3)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) [32]byte {
		cfg := DefaultRunConfig(isd, IntraMode, core.NewDiversity(core.DefaultParams(5)), 15)
		cfg.Duration = time.Hour
		cfg.Workers = workers
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Fingerprint()
	}
	seq := run(1)
	for _, w := range []int{2, 8} {
		if got := run(w); got != seq {
			t.Errorf("intra-ISD fingerprint with %d workers differs from sequential run", w)
		}
	}
}
