// Package experiments reproduces every table and figure of the paper's
// evaluation (§5 and Appendix B): Table 1 (control-plane component scope
// and frequency), Figure 5 (control-plane overhead of BGPsec and SCION
// beaconing relative to BGP at monitor ASes), Figures 6a/6b (path quality:
// failure resilience and capacity versus the optimum), and the SCIONLab
// appendix Figures 7, 8 and 9.
//
// Every experiment takes a Scale so the paper-size runs (12000 ASes, 2000
// core ASes, 26 monitors, six hours of beaconing) and CI-size smoke runs
// share one code path.
package experiments

import (
	"time"

	"scionmpr/internal/addr"
	"scionmpr/internal/beacon"
	"scionmpr/internal/core"
	"scionmpr/internal/graphalg"
	"scionmpr/internal/sim"
	"scionmpr/internal/telemetry"
	"scionmpr/internal/topology"
)

// Scale parameterizes an experiment run.
type Scale struct {
	// Topology generation.
	NumASes int
	Tier1   int
	Seed    int64

	// Core network extraction (paper: 2000 highest-degree ASes grouped
	// into 200 ISDs of 10 core ASes).
	CoreSize int
	NumISDs  int

	// Intra-ISD topology (paper: 11 highest-cone cores, 7017 customers).
	ISDCores int

	// Beaconing parameters (paper §5.1).
	Interval    time.Duration
	Lifetime    time.Duration
	Duration    time.Duration
	DissemLimit int
	StoreLimit  int
	// DiversityStoreLimits are the storage-limit sweep of Figure 6
	// (0 means unlimited, the paper's "∞").
	DiversityStoreLimits []int

	// Evaluation.
	Monitors int
	Pairs    int

	// Workers is the simulator worker count for the beaconing runs:
	// 1 sequential, 0 the default (SCIONMPR_WORKERS or GOMAXPROCS).
	// Results are byte-identical for every setting.
	Workers int

	// Telemetry, if set, receives counters and stage timers from every
	// beaconing run the experiment performs.
	Telemetry *telemetry.Registry
	// Tracer, if set, records structured trace events from the runs.
	Tracer *telemetry.Tracer
}

// PaperScale is the full experiment setup of §5.1. Running it takes
// hours; use it through `go run ./cmd/scionmpr experiments -scale paper`.
func PaperScale() Scale {
	return Scale{
		NumASes:              12000,
		Tier1:                15,
		Seed:                 1,
		CoreSize:             2000,
		NumISDs:              200,
		ISDCores:             11,
		Interval:             10 * time.Minute,
		Lifetime:             6 * time.Hour,
		Duration:             6 * time.Hour,
		DissemLimit:          5,
		StoreLimit:           60,
		DiversityStoreLimits: []int{15, 30, 60, 0},
		Monitors:             26,
		Pairs:                200,
	}
}

// DefaultScale is a laptop-scale configuration preserving the paper's
// structural ratios (core share, ISD count scaled down proportionally);
// it finishes in minutes and reproduces the figures' shape.
func DefaultScale() Scale {
	s := PaperScale()
	s.NumASes = 400
	s.Tier1 = 10
	s.CoreSize = 40
	s.NumISDs = 8
	s.ISDCores = 5
	s.Duration = 6 * time.Hour
	s.Pairs = 60
	s.Monitors = 20
	return s
}

// SmokeScale is a test-suite configuration: small enough to finish in
// tens of seconds, but with enough beaconing intervals (4 h / 10 min)
// that the diversity algorithm's steady-state retransmission suppression
// is visible.
func SmokeScale() Scale {
	s := PaperScale()
	s.NumASes = 120
	s.Tier1 = 6
	s.CoreSize = 16
	s.NumISDs = 4
	s.ISDCores = 3
	s.Duration = 4 * time.Hour
	s.DiversityStoreLimits = []int{15, 0}
	s.Pairs = 20
	s.Monitors = 8
	return s
}

// env holds the topologies shared by the experiments.
type env struct {
	scale Scale
	full  *topology.Graph // generated Internet
	core  *topology.Graph // extracted core network (all links Core)
	// coreSub is the induced subgraph on core members with their
	// original business relationships, used for the BGP comparison.
	coreSub *topology.Graph
}

func newEnv(s Scale) (*env, error) {
	p := topology.DefaultGenParams()
	p.NumASes = s.NumASes
	p.Tier1 = s.Tier1
	p.Seed = s.Seed
	full, err := topology.Generate(p)
	if err != nil {
		return nil, err
	}
	coreTopo, err := topology.ExtractCore(full, s.CoreSize)
	if err != nil {
		return nil, err
	}
	members := map[addr.IA]bool{}
	for _, ia := range coreTopo.IAs() {
		members[ia] = true
	}
	return &env{
		scale:   s,
		full:    full,
		core:    coreTopo,
		coreSub: full.Subgraph(members),
	}, nil
}

// monitors picks the n highest-degree ASes of the full topology — the
// stand-ins for the RouteViews monitor ASes (large ISPs). By construction
// they survive core extraction.
func (e *env) monitors() []addr.IA {
	type dd struct {
		ia  addr.IA
		deg int
	}
	all := make([]dd, 0, e.full.NumASes())
	for _, ia := range e.full.IAs() {
		all = append(all, dd{ia, e.full.AS(ia).Degree()})
	}
	// Highest degree first; deterministic tiebreak.
	for i := 1; i < len(all); i++ {
		for j := i; j > 0 && (all[j].deg > all[j-1].deg ||
			(all[j].deg == all[j-1].deg && all[j].ia.Less(all[j-1].ia))); j-- {
			all[j], all[j-1] = all[j-1], all[j]
		}
	}
	n := e.scale.Monitors
	if n > len(all) {
		n = len(all)
	}
	out := make([]addr.IA, n)
	for i := 0; i < n; i++ {
		out[i] = all[i].ia
	}
	return out
}

// runCore executes core beaconing on the extracted core network.
func (e *env) runCore(factory core.Factory, storeLimit int) (*beacon.RunResult, error) {
	cfg := beacon.DefaultRunConfig(e.core, beacon.CoreMode, factory, storeLimit)
	cfg.Interval = e.scale.Interval
	cfg.Lifetime = e.scale.Lifetime
	cfg.Duration = e.scale.Duration
	cfg.Workers = e.scale.Workers
	cfg.Telemetry = e.scale.Telemetry
	cfg.Tracer = e.scale.Tracer
	return beacon.Run(cfg)
}

// livePlane builds the compressed-time core beaconing plane the churn
// experiment runs on, ticks scheduled: one-hour PCB lifetime, 10 ms
// control links, a tick every interval until end, no telemetry. The
// plane builds its own trust infra (keys are a pure function of the AS).
func (e *env) livePlane(factory core.Factory, interval time.Duration, end sim.Time) (*beacon.Plane, error) {
	p, err := beacon.NewPlane(beacon.RunConfig{
		Topo:       e.core,
		Mode:       beacon.CoreMode,
		Selector:   factory,
		StoreLimit: e.scale.StoreLimit,
		Interval:   interval,
		Lifetime:   time.Hour,
		Duration:   time.Duration(end),
		LinkDelay:  10 * time.Millisecond,
		Workers:    e.scale.Workers,
	})
	if err != nil {
		return nil, err
	}
	p.ScheduleTicks()
	return p, nil
}

// stormSize is how many of n candidate links a flap storm faults: one in
// every `per`, at least `least`, never more than n.
func stormSize(n, per, least int) int {
	return min(max(n/per, least), n)
}

// samplePairs picks evaluation AS pairs on the core network.
func (e *env) samplePairs() [][2]addr.IA {
	return graphalg.SamplePairs(e.core, e.scale.Pairs)
}
