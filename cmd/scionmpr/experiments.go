package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"

	"scionmpr/internal/core"
	"scionmpr/internal/experiments"
)

// printer is an experiment's result.
type printer interface{ Print(io.Writer) }

// An experiment is one -exp choice: its names, the first of which labels
// its output, and its run.
type experiment struct {
	names []string
	run   func(s experiments.Scale) (printer, error)
}

// experimentTable lists the paper's evaluation in the order -exp all runs
// it (DESIGN.md indexes each experiment):
//
//	table1      Table 1   control-plane component scope & frequency
//	fig5        Figure 5  overhead relative to BGP (BGPsec, SCION core
//	                      baseline/diversity, SCION intra-ISD)
//	fig6        Figure 6a/6b  failure resilience & capacity vs optimum
//	capacity    Figure 6b under load: achieved goodput of diversity vs
//	            baseline vs BGP best-path with real traffic
//	churn       continuous flap churn: time-to-reconnect and goodput
//	            recovery of diversity vs baseline vs BGP
//	serve       path-lookup serving layer under closed-loop load; see
//	            also `scionmpr pathserve` for the million-endpoint run
//	tournament  every path-selection policy scored on identical
//	            topology x workload x chaos grid cells
//	scionlab    Figures 7/8/9 SCIONLab path quality & bandwidth
//	convergence BGP (re-)convergence vs SCION SCMP failover (§5)
//	ablation    selector variants (raw geomean, AS-disjoint, latency)
//	gridsearch  §4.2 parameter search methodology
var experimentTable = []experiment{
	{[]string{"table1"}, func(experiments.Scale) (printer, error) { return experiments.RunTable1() }},
	{[]string{"fig5", "overhead"}, func(s experiments.Scale) (printer, error) { return experiments.RunFig5(s) }},
	{[]string{"fig6", "fig6a", "fig6b"}, func(s experiments.Scale) (printer, error) { return experiments.RunFig6(s) }},
	{[]string{"capacity"}, func(s experiments.Scale) (printer, error) { return experiments.RunCapacity(s) }},
	{[]string{"churn"}, func(s experiments.Scale) (printer, error) { return experiments.RunChurn(s) }},
	{[]string{"serve"}, func(s experiments.Scale) (printer, error) {
		return experiments.RunServe(s, experiments.DefaultServeConfig())
	}},
	{[]string{"tournament"}, func(s experiments.Scale) (printer, error) {
		return experiments.RunTournament(s, experiments.DefaultTournamentConfig())
	}},
	{[]string{"scionlab", "fig7", "fig8", "fig9"}, func(experiments.Scale) (printer, error) { return experiments.RunSCIONLab() }},
	{[]string{"convergence"}, func(s experiments.Scale) (printer, error) { return experiments.RunConvergence(s) }},
	{[]string{"ablation"}, func(s experiments.Scale) (printer, error) { return experiments.RunAblation(s) }},
	{[]string{"gridsearch"}, func(experiments.Scale) (printer, error) {
		// A trimmed grid at smoke scale; the full exponential grid is
		// practical there only.
		gs := experiments.SmokeScale()
		gs.Duration = 2 * time.Hour
		gs.CoreSize = 12
		space := core.SearchSpace{
			Alphas:     []float64{2, 6, 16},
			Betas:      []float64{2, 4},
			Gammas:     []float64{2, 4},
			Thresholds: []float64{0.02, 0.05, 0.2},
		}
		return experiments.RunGridSearch(gs, space, 0.3)
	}},
}

// experimentNames is every value -exp accepts: "all", then each
// experiment's names.
func experimentNames() []string {
	names := []string{"all"}
	for _, e := range experimentTable {
		names = append(names, e.names...)
	}
	return names
}

// experimentsCmd regenerates the tables and figures of the paper's
// evaluation.
//
//	scionmpr experiments -exp all -scale default
//	scionmpr experiments -exp fig5 -scale paper     # hours of compute
//	scionmpr experiments -exp fig6 -scale smoke
func experimentsCmd(fs *flag.FlagSet) func(io.Writer) error {
	var (
		exp       = fs.String("exp", "all", "experiment: table1 | fig5 (alias: overhead) | fig6 | capacity | churn | serve | tournament | scionlab | convergence | ablation | gridsearch | all")
		scaleName = fs.String("scale", "default", "scale preset: smoke | default | paper")
		duration  = fs.Duration("duration", 0, "override beaconing duration")
		pairs     = fs.Int("pairs", 0, "override sampled AS pairs")
		ases      = fs.Int("ases", 0, "override topology size; the core/ISD structure scales proportionally")
		workers   = fs.Int("workers", 0, "simulator workers: 1 sequential, 0 default (SCIONMPR_WORKERS or GOMAXPROCS); output is identical for every setting")
		cpuprof   = fs.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
		memprof   = fs.String("memprofile", "", "write a heap profile to this file at exit (go tool pprof)")
		obs       = observerFlags(fs)
	)
	return func(w io.Writer) (err error) {
		names := experimentNames()
		if !slices.Contains(names, *exp) {
			return usageError{fmt.Errorf("unknown experiment %q; valid: %s", *exp, strings.Join(names, ", "))}
		}
		flush, err := startProfiles(*cpuprof, *memprof)
		if err != nil {
			return err
		}
		defer flush()
		if err := obs.start(); err != nil {
			return err
		}
		defer obs.finish(&err)

		scale, err := scalePreset(*scaleName)
		if err != nil {
			return err
		}
		if *ases > 0 {
			// Preserve the paper's structural ratios at the requested
			// size (core share ~1/6 of ASes, ISDs of ~10 core ASes each).
			scale.NumASes = *ases
			scale.CoreSize = max(*ases/6, 4)
			scale.NumISDs = max(scale.CoreSize/10, 2)
		}
		if *duration > 0 {
			scale.Duration = *duration
		}
		if *pairs > 0 {
			scale.Pairs = *pairs
		}
		scale.Workers = *workers
		scale.Telemetry = obs.reg
		scale.Tracer = obs.tracer

		for _, e := range experimentTable {
			if *exp != "all" && !slices.Contains(e.names, *exp) {
				continue
			}
			fmt.Fprintf(w, "\n########## %s ##########\n", e.names[0])
			start := time.Now()
			res, err := e.run(scale)
			if err != nil {
				return err
			}
			res.Print(w)
			fmt.Fprintf(w, "[%s finished in %v]\n", e.names[0], time.Since(start).Round(time.Millisecond))
		}
		return nil
	}
}

// startProfiles starts the requested profiles and returns the function
// that finalizes them, exactly once. It also runs on SIGINT or SIGTERM, so
// a long run interrupted mid-way still yields usable profiles; the signal
// then ends the process as it would have without the handler.
func startProfiles(cpuprof, memprof string) (flush func(), err error) {
	if cpuprof == "" && memprof == "" {
		return func() {}, nil
	}
	var cpu *os.File
	if cpuprof != "" {
		if cpu, err = os.Create(cpuprof); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	var once sync.Once
	sigc := make(chan os.Signal, 1)
	flush = func() {
		once.Do(func() {
			// No signal is sent on sigc once Stop returns, so closing it
			// is safe; it ends the goroutine below.
			signal.Stop(sigc)
			close(sigc)
			if cpu != nil {
				pprof.StopCPUProfile()
				if err := cpu.Close(); err != nil {
					fmt.Fprintln(os.Stderr, "experiments:", err)
				}
			}
			if memprof != "" {
				// Up-to-date live-heap numbers rather than the stats of
				// the last completed GC cycle.
				runtime.GC()
				if err := writeFile(memprof, pprof.WriteHeapProfile); err != nil {
					fmt.Fprintln(os.Stderr, "experiments:", err)
				}
			}
		})
	}
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		s, ok := <-sigc
		if !ok {
			return
		}
		fmt.Fprintf(os.Stderr, "experiments: %v — flushing profiles\n", s)
		flush()
		// Without a handler the signal ends the process.
		if p, err := os.FindProcess(os.Getpid()); err == nil {
			_ = p.Signal(s)
		}
	}()
	return flush, nil
}
