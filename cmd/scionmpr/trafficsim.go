package main

import (
	"flag"
	"fmt"
	"io"

	"scionmpr/internal/addr"
	"scionmpr/internal/graphalg"
	"scionmpr/internal/strategy"
	"scionmpr/internal/topology"
	"scionmpr/internal/traffic"
	"scionmpr/scion"
)

// trafficsim drives the flow-level multipath traffic engine over a
// freshly bootstrapped SCION network: it carves an ISD out of a generated
// Internet, boots beaconing and path servers, generates a deterministic
// workload (Poisson arrivals, heavy-tailed sizes, Zipf pair popularity),
// runs every flow through token-bucket link capacities with a multipath
// scheduler, and prints the flow and link observables. Equal seeds print
// byte-identical summaries.
//
//	scionmpr trafficsim                       # 10k flows, weighted striping
//	scionmpr trafficsim -flows 20000 -sched single-best
//	scionmpr trafficsim -n 80 -cores 6 -seed 7 -zipf 1.3
//	scionmpr trafficsim -duration 5s          # cut the run at 5s virtual time
func trafficsim(fs *flag.FlagSet) func(io.Writer) error {
	g := graph{kind: "gen", n: 60, tier1: 4, seed: 1}
	g.genFlags(fs)
	var (
		cores    = fs.Int("cores", 5, "ISD core ASes (highest customer cone)")
		flows    = fs.Int("flows", 10000, "number of flows")
		pairs    = fs.Int("pairs", 40, "endpoint AS pairs to spread flows over")
		rate     = fs.Float64("rate", 5000, "Poisson arrival rate (flows/s)")
		meanSize = fs.Float64("mean", 128<<10, "mean flow size (bytes, bounded Pareto)")
		zipf     = fs.Float64("zipf", 1.2, "Zipf exponent for pair popularity (<=0: uniform)")
		sched    = fs.String("sched", "weighted", "path-selection policy: weighted | single-best")
		chunk    = fs.Int64("chunk", 64<<10, "admission chunk size (bytes)")
		duration = fs.Duration("duration", 0, "virtual-time cutoff (0: run all flows to completion)")
		obs      = observerFlags(fs)
	)
	return func(w io.Writer) (err error) {
		factory, err := strategy.New(*sched)
		if err != nil {
			return err
		}
		topo, err := g.build()
		if err != nil {
			return err
		}
		if topo, err = topology.BuildISD(topo, *cores); err != nil {
			return err
		}
		if err := obs.start(); err != nil {
			return err
		}
		defer obs.finish(&err)
		opts := scion.DefaultOptions()
		opts.Telemetry = obs.reg
		opts.Tracer = obs.tracer
		net, err := scion.NewNetwork(topo, opts)
		if err != nil {
			return err
		}
		eng, err := traffic.NewEngine(traffic.Config{
			Fabric:    net.Fabric(),
			Provider:  net.Paths,
			Links:     traffic.NewLinkModel(traffic.DefaultCapacity()),
			Scheduler: factory,
			ChunkSize: *chunk,
			Telemetry: obs.reg,
		})
		if err != nil {
			return err
		}

		sampled := graphalg.SamplePairs(topo, *pairs)
		if len(sampled) == 0 {
			return fmt.Errorf("no endpoint pairs on a %d-AS topology", topo.NumASes())
		}
		if sampled = reachable(net, sampled); len(sampled) == 0 {
			return fmt.Errorf("no reachable endpoint pairs")
		}
		specs := traffic.Generate(traffic.WorkloadParams{
			Flows:       *flows,
			Pairs:       sampled,
			ArrivalRate: *rate,
			MeanSize:    *meanSize,
			ZipfS:       *zipf,
			Seed:        g.seed,
		})
		for _, spec := range specs {
			eng.Add(spec)
		}

		fmt.Fprintf(w, "topology: %d ASes (%d cores), seed %d\n",
			topo.NumASes(), len(topo.CoreIAs()), g.seed)
		fmt.Fprintf(w, "workload: %d flows over %d pairs, %s scheduler, %g flows/s, mean %g B\n",
			len(specs), len(sampled), *sched, *rate, *meanSize)
		var s *traffic.Summary
		if *duration > 0 {
			s = eng.RunUntil(*duration)
		} else {
			s = eng.Run()
		}
		s.Print(w)
		return nil
	}
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
