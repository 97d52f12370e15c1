package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"scionmpr/internal/addr"
	"scionmpr/internal/beacon"
	"scionmpr/internal/chaos"
	"scionmpr/internal/sim"
	"scionmpr/internal/topology"
)

// chaossim replays a deterministic fault-injection schedule against a
// live core-beaconing simulation: links flap, drop silently or spike in
// latency, and beacon servers crash and restart, while the surviving
// servers keep disseminating and revoke state behind every failure. The
// summary reports what was injected, what the network lost, and how much
// disseminated path state survived to the end; the same schedule and
// seed print a byte-identical summary.
//
// The schedule comes from a -schedule file (format: chaos.ParseSchedule)
// or is a built-in default that exercises every fault kind:
//
//	seed 42
//	end 30s
//	flap  1 at 5s down 2s period 6s until 25s
//	gray  2 at 8s down 4s rate 0.3
//	spike 3 at 10s down 4s delay 200ms
//	crash 1-ff00:0:101 at 12s down 3s
//
// -topo demo beacons over the whole demo network; -topo gen over the
// -core highest-degree ASes of the generated one:
//
//	scionmpr chaossim -schedule faults.txt
//	scionmpr chaossim -topo gen -n 200 -core 24 -algo baseline
func chaossim(fs *flag.FlagSet) func(io.Writer) error {
	g := graph{kind: "demo", n: 200, tier1: 8, seed: 1}
	g.flags(fs, "topo")
	var (
		coreN    = fs.Int("core", 24, "core network size for -topo gen")
		algo     = fs.String("algo", "diversity", "selection algorithm: baseline | diversity")
		store    = fs.Int("store", 60, "PCB storage limit per origin (0 = unlimited)")
		interval = fs.Duration("interval", time.Second, "beaconing interval (compressed timescale)")
		lifetime = fs.Duration("lifetime", time.Hour, "PCB lifetime")
		duration = fs.Duration("duration", 30*time.Second, "simulated duration")
		schedule = fs.String("schedule", "", "fault schedule file (empty: built-in default)")
		pairs    = fs.Int("pairs", 20, "AS pairs sampled for surviving path state")
		obs      = observerFlags(fs)
	)
	return func(w io.Writer) (err error) {
		topo, err := g.build()
		if err != nil {
			return err
		}
		if g.kind == "gen" {
			if topo, err = topology.ExtractCore(topo, *coreN); err != nil {
				return err
			}
		}
		sched, err := loadSchedule(*schedule, g.seed, *duration, topo)
		if err != nil {
			return err
		}
		if end := time.Duration(sched.End); end > *duration {
			*duration = end
		}
		factory, err := selector(*algo, 5)
		if err != nil {
			return err
		}
		if err := obs.start(); err != nil {
			return err
		}
		defer obs.finish(&err)

		runCfg := beacon.DefaultRunConfig(topo, beacon.CoreMode, factory, *store)
		runCfg.Interval = *interval
		runCfg.Lifetime = *lifetime
		runCfg.Duration = *duration
		runCfg.Chaos = sched
		runCfg.Telemetry = obs.reg
		runCfg.Tracer = obs.tracer
		res, err := beacon.Run(runCfg)
		if err != nil {
			return err
		}

		fmt.Fprintf(w, "topology: %s\n", topo.ComputeStats())
		fmt.Fprintf(w, "%s beaconing, interval %v, %v simulated\n", *algo, *interval, *duration)
		fmt.Fprintf(w, "\n%s\n", sched)
		fmt.Fprintf(w, "\n%s\n", res.Chaos.Summary())

		var orig, prop, recv, rej, deaf uint64
		for _, ia := range topo.IAs() {
			srv := res.Servers[ia]
			orig += srv.Originated
			prop += srv.Propagated
			recv += srv.Received
			rej += srv.Rejected
			deaf += srv.DroppedWhileDown
		}
		fmt.Fprintf(w, "PCBs: originated=%d propagated=%d received=%d rejected=%d dropped-while-crashed=%d\n",
			orig, prop, recv, rej, deaf)
		fmt.Fprintf(w, "network: dropped-on-failed-links=%d dropped-by-gray-loss=%d control-plane-bytes=%d\n",
			res.Net.DroppedOnFailedLinks, res.Net.DroppedByLoss, res.Net.GrandTotalTx())

		// Surviving path state: every fault in the default schedule heals,
		// so dissemination must have repopulated the stores by the end.
		// Core beaconing disseminates among core ASes, so sample core pairs.
		sampled := corePairs(topo, *pairs)
		connected, segs := 0, 0
		for _, pr := range sampled {
			n := len(res.Servers[pr[1]].Segments(res.End, pr[0]))
			segs += n
			if n > 0 {
				connected++
			}
		}
		fmt.Fprintf(w, "path state after recovery: %d/%d sampled pairs connected, %d segments total\n",
			connected, len(sampled), segs)
		return nil
	}
}

// corePairs deterministically enumerates up to n ordered core AS pairs.
func corePairs(topo *topology.Graph, n int) [][2]addr.IA {
	cores := topo.CoreIAs()
	var out [][2]addr.IA
	for _, a := range cores {
		for _, b := range cores {
			if a == b || len(out) >= n {
				continue
			}
			out = append(out, [2]addr.IA{a, b})
		}
	}
	return out
}

// loadSchedule reads the schedule file, or builds the default plan: flap
// churn across a third of the core links plus one gray failure, one
// latency spike and one beacon-server crash, all healing before the end.
func loadSchedule(path string, seed int64, duration time.Duration, topo *topology.Graph) (*chaos.Schedule, error) {
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return chaos.ParseSchedule(f, topo)
	}
	var coreLinks []topology.LinkID
	for _, l := range topo.Links {
		if l.Rel == topology.Core {
			coreLinks = append(coreLinks, l.ID)
		}
	}
	if len(coreLinks) == 0 {
		return nil, fmt.Errorf("topology has no core links to fault")
	}
	end := sim.Time(duration)
	n := max(len(coreLinks)/3, 2)
	sched := chaos.FlapChurn(seed, coreLinks, n, end/6, end-end/6, 2*time.Second, 6*time.Second)
	sched.Events = append(sched.Events,
		chaos.Event{Kind: chaos.Gray, Link: coreLinks[0], At: end / 4, Down: 4 * time.Second, Rate: 0.3},
		chaos.Event{Kind: chaos.Spike, Link: coreLinks[len(coreLinks)/2], At: end / 3, Down: 4 * time.Second, Delay: 200 * time.Millisecond},
		chaos.Event{Kind: chaos.CrashAS, IA: topo.CoreIAs()[0], At: end / 2, Down: 3 * time.Second},
	)
	return sched, nil
}
