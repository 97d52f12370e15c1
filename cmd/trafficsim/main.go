// Command trafficsim drives the flow-level multipath traffic engine over
// a freshly bootstrapped SCION network: it generates an intra-ISD
// deployment, boots beaconing and path servers, generates a deterministic
// workload (Poisson arrivals, heavy-tailed sizes, Zipf pair popularity),
// runs every flow through token-bucket link capacities with a multipath
// scheduler, and prints the flow/link observables. Equal seeds produce
// byte-identical summaries.
//
// Usage:
//
//	trafficsim                                  # 10k flows, weighted striping
//	trafficsim -flows 20000 -sched round-robin
//	trafficsim -n 80 -cores 6 -seed 7 -zipf 1.3
//	trafficsim -duration 5s                     # cut the run at 5s virtual time
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"scionmpr/internal/addr"
	"scionmpr/internal/graphalg"
	"scionmpr/internal/strategy"
	"scionmpr/internal/telemetry"
	"scionmpr/internal/traffic"
	"scionmpr/scion"
)

type config struct {
	n, tier1, cores int
	seed            int64
	flows, pairs    int
	rate            float64
	meanSize        float64
	zipf            float64
	sched           string
	chunk           int64
	duration        time.Duration
	telemAddr       string
	traceOut        string
}

func main() {
	var cfg config
	flag.IntVar(&cfg.n, "n", 60, "ASes in the generated Internet topology")
	flag.IntVar(&cfg.tier1, "tier1", 4, "tier-1 clique size")
	flag.IntVar(&cfg.cores, "cores", 5, "ISD core ASes (highest customer cone)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for topology and workload")
	flag.IntVar(&cfg.flows, "flows", 10000, "number of flows")
	flag.IntVar(&cfg.pairs, "pairs", 40, "endpoint AS pairs to spread flows over")
	flag.Float64Var(&cfg.rate, "rate", 5000, "Poisson arrival rate (flows/s)")
	flag.Float64Var(&cfg.meanSize, "mean", 128<<10, "mean flow size (bytes, bounded Pareto)")
	flag.Float64Var(&cfg.zipf, "zipf", 1.2, "Zipf exponent for pair popularity (<=0: uniform)")
	flag.StringVar(&cfg.sched, "sched", "weighted",
		"path-selection policy spec: single-best | round-robin | weighted | latency [stretch=<f>] | disjoint | hybrid [cap=<w> lat=<w> loss=<w> disj=<w> hops=<w> rev=<w> revwin=<d>]")
	flag.Int64Var(&cfg.chunk, "chunk", 64<<10, "admission chunk size (bytes)")
	flag.DurationVar(&cfg.duration, "duration", 0, "virtual-time cutoff (0: run all flows to completion)")
	flag.StringVar(&cfg.telemAddr, "telemetry", "", "serve /metrics, /snapshot, /trace and /debug/pprof on this address during the run")
	flag.StringVar(&cfg.traceOut, "trace", "", "write the structured trace event log (JSONL) to this file at exit")
	flag.Parse()

	if err := run(os.Stdout, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "trafficsim:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, cfg config) error {
	topo, err := scion.GenerateISDTopology(cfg.n, cfg.tier1, cfg.cores, cfg.seed)
	if err != nil {
		return err
	}
	var (
		reg    *telemetry.Registry
		tracer *telemetry.Tracer
	)
	if cfg.telemAddr != "" || cfg.traceOut != "" {
		reg = telemetry.NewRegistry()
		tracer = telemetry.NewTracer(1 << 16)
	}
	if cfg.telemAddr != "" {
		addr, err := telemetry.Serve(cfg.telemAddr, reg, tracer)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "telemetry: http://%s/metrics (pprof at /debug/pprof/)\n", addr)
	}
	if cfg.traceOut != "" {
		defer func() {
			f, err := os.Create(cfg.traceOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, "trafficsim: trace:", err)
				return
			}
			defer f.Close()
			if err := tracer.WriteJSONL(f); err != nil {
				fmt.Fprintln(os.Stderr, "trafficsim: trace:", err)
			}
		}()
	}
	opts := scion.DefaultOptions()
	opts.Telemetry = reg
	opts.Tracer = tracer
	net, err := scion.NewNetwork(topo, opts)
	if err != nil {
		return err
	}
	factory, err := strategy.New(cfg.sched)
	if err != nil {
		return err
	}
	eng, err := traffic.NewEngine(traffic.Config{
		Fabric:    net.Fabric(),
		Provider:  net.Paths,
		Links:     traffic.NewLinkModel(traffic.DefaultCapacity()),
		Scheduler: factory,
		ChunkSize: cfg.chunk,
		Telemetry: reg,
	})
	if err != nil {
		return err
	}

	pairs := graphalg.SamplePairs(topo, cfg.pairs)
	if len(pairs) == 0 {
		return fmt.Errorf("no endpoint pairs on a %d-AS topology", topo.NumASes())
	}
	pairs = reachable(net, pairs)
	if len(pairs) == 0 {
		return fmt.Errorf("no reachable endpoint pairs")
	}
	specs := traffic.Generate(traffic.WorkloadParams{
		Flows:       cfg.flows,
		Pairs:       pairs,
		ArrivalRate: cfg.rate,
		MeanSize:    cfg.meanSize,
		ZipfS:       cfg.zipf,
		Seed:        cfg.seed,
	})
	for _, spec := range specs {
		eng.Add(spec)
	}

	fmt.Fprintf(w, "topology: %d ASes (%d cores), seed %d\n",
		topo.NumASes(), len(topo.CoreIAs()), cfg.seed)
	fmt.Fprintf(w, "workload: %d flows over %d pairs, %s scheduler, %g flows/s, mean %g B\n",
		len(specs), len(pairs), cfg.sched, cfg.rate, cfg.meanSize)

	var s *traffic.Summary
	if cfg.duration > 0 {
		s = eng.RunUntil(cfg.duration)
	} else {
		s = eng.Run()
	}
	s.Print(w)
	return nil
}

// reachable keeps the pairs the bootstrapped network has paths for, so
// workload flows never burn their retries on unreachable pairs.
func reachable(net *scion.Network, pairs [][2]addr.IA) [][2]addr.IA {
	out := pairs[:0]
	for _, p := range pairs {
		if _, err := net.Paths(p[0], p[1]); err == nil {
			out = append(out, p)
		}
	}
	return out
}
