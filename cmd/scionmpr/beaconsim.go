package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"scionmpr/internal/addr"
	"scionmpr/internal/beacon"
	"scionmpr/internal/graphalg"
	"scionmpr/internal/metrics"
	"scionmpr/internal/topology"
)

// beaconsim runs one SCION beaconing simulation — core or intra-ISD,
// baseline or path-diversity algorithm — and reports the control-plane
// overhead and the quality of the disseminated paths.
//
//	scionmpr beaconsim -topo scionlab -algo baseline -store 5 -duration 6h
//	scionmpr beaconsim -topo gen -n 600 -core 100 -algo diversity -store 60
//	scionmpr beaconsim -topo gen -n 600 -isdcores 5 -mode intra -algo baseline
//
// Long runs can be checkpointed and resumed; the resumed run finishes with
// byte-identical results (DESIGN.md "Checkpoint/restore"). Every other
// flag must match between the two invocations: the snapshot holds the
// simulation state, not the configuration.
//
//	scionmpr beaconsim -topo gen -n 2000 -checkpoint 3h -snapshot run.ckpt
//	scionmpr beaconsim -topo gen -n 2000 -resume run.ckpt
func beaconsim(fs *flag.FlagSet) func(io.Writer) error {
	g := graph{kind: "demo", n: 600, tier1: 10, seed: 1}
	g.flags(fs, "topo")
	var (
		coreN    = fs.Int("core", 100, "core network size for -topo gen -mode core")
		isdCores = fs.Int("isdcores", 5, "ISD core count for -mode intra")
		mode     = fs.String("mode", "core", "beaconing mode: core | intra")
		algo     = fs.String("algo", "diversity", "selection algorithm: baseline | diversity")
		store    = fs.Int("store", 60, "PCB storage limit per origin (0 = unlimited)")
		dissem   = fs.Int("dissem", 5, "PCB dissemination limit")
		duration = fs.Duration("duration", 6*time.Hour, "simulated beaconing duration")
		interval = fs.Duration("interval", 10*time.Minute, "beaconing interval")
		lifetime = fs.Duration("lifetime", 6*time.Hour, "PCB lifetime")
		verify   = fs.Bool("verify", false, "cryptographically verify every received PCB")
		pairs    = fs.Int("pairs", 40, "AS pairs sampled for path quality")
		ckptAt   = fs.Duration("checkpoint", 0, "write a resumable snapshot at this simulated time (rounded up to an interval boundary)")
		snapFile = fs.String("snapshot", "beaconsim.ckpt", "snapshot file written by -checkpoint")
		resume   = fs.String("resume", "", "resume from a snapshot file instead of starting fresh (all other flags must match the checkpointing run)")
	)
	return func(w io.Writer) error {
		topo, err := beaconsimTopo(g, *mode, *coreN, *isdCores)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "topology:", topo.ComputeStats())
		factory, err := selector(*algo, *dissem)
		if err != nil {
			return err
		}
		bMode := beacon.CoreMode
		if *mode == "intra" {
			bMode = beacon.IntraMode
		}
		cfg := beacon.DefaultRunConfig(topo, bMode, factory, *store)
		cfg.Duration = *duration
		cfg.Interval = *interval
		cfg.Lifetime = *lifetime
		cfg.Verify = *verify

		start := time.Now()
		var res *beacon.RunResult
		switch {
		case *resume != "":
			snap, err := os.ReadFile(*resume)
			if err != nil {
				return err
			}
			if res, err = beacon.Resume(cfg, snap); err != nil {
				return err
			}
			fmt.Fprintf(w, "resumed from %s (%d-byte snapshot)\n", *resume, len(snap))
		case *ckptAt > 0:
			var snap []byte
			if res, snap, err = beacon.RunWithCheckpoint(cfg, *ckptAt); err != nil {
				return err
			}
			if err := os.WriteFile(*snapFile, snap, 0o644); err != nil {
				return err
			}
			fmt.Fprintf(w, "snapshot written to %s (%d bytes)\n", *snapFile, len(snap))
		default:
			if res, err = beacon.Run(cfg); err != nil {
				return err
			}
		}
		fmt.Fprintf(w, "simulated %v of %s beaconing (%s) in %v wall time\n",
			*duration, bMode, *algo, time.Since(start).Round(time.Millisecond))

		var orig, prop, recv uint64
		for _, srv := range res.Servers {
			orig += srv.Originated
			prop += srv.Propagated
			recv += srv.Received
		}
		fmt.Fprintf(w, "PCBs: originated=%d propagated=%d received=%d\n", orig, prop, recv)
		fmt.Fprintf(w, "total control-plane bytes: %d\n", res.TotalOverheadBytes())

		bw := res.PerInterfaceBandwidth()
		metrics.FprintCDFs(w, "per-interface beaconing bandwidth (bytes/s)",
			[]metrics.Series{{Name: *algo, CDF: metrics.NewCDF(bw)}})
		metrics.FprintHistogram(w, "bandwidth histogram (bytes/s)", bw, 8)

		if bMode == beacon.CoreMode {
			var quality, optimum []float64
			for _, pr := range graphalg.SamplePairs(topo, *pairs) {
				quality = append(quality, float64(res.Quality(pr[0], pr[1])))
				optimum = append(optimum, float64(graphalg.OptimalFlow(topo, pr[0], pr[1])))
			}
			metrics.FprintCDFs(w, "path quality (min failing links = capacity, per sampled pair)",
				[]metrics.Series{
					{Name: *algo, CDF: metrics.NewCDF(quality)},
					{Name: "optimum", CDF: metrics.NewCDF(optimum)},
				})
			return nil
		}
		// Intra-ISD: report reachability from each core AS.
		cores := topo.CoreIAs()
		total, reached := 0, 0
		for _, ia := range topo.IAs() {
			if topo.AS(ia).Core {
				continue
			}
			total++
			for _, c := range cores {
				if len(res.PathSet(c, ia)) > 0 {
					reached++
					break
				}
			}
		}
		fmt.Fprintf(w, "non-core ASes with at least one up-segment: %d/%d\n", reached, total)
		return nil
	}
}

// beaconsimTopo derives the beaconing topology from the base graph. Core
// mode keeps the core ASes: the coreN-AS core extracted from a generated
// graph, the core subgraph of the others. Intra mode carves an
// isdCores-core ISD out of a generated graph and keeps the others whole.
func beaconsimTopo(g graph, mode string, coreN, isdCores int) (*topology.Graph, error) {
	full, err := g.build()
	if err != nil {
		return nil, err
	}
	switch {
	case mode == "intra" && g.kind == "gen":
		return topology.BuildISD(full, isdCores)
	case mode == "intra":
		return full, nil
	case g.kind == "gen":
		return topology.ExtractCore(full, coreN)
	}
	keep := map[addr.IA]bool{}
	for _, ia := range full.CoreIAs() {
		keep[ia] = true
	}
	return full.Subgraph(keep), nil
}
