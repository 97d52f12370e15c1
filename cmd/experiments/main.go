// Command experiments regenerates every table and figure of the paper's
// evaluation (see DESIGN.md for the per-experiment index):
//
//	table1      Table 1   control-plane component scope & frequency
//	fig5        Figure 5  overhead relative to BGP (BGPsec, SCION core
//	                      baseline/diversity, SCION intra-ISD)
//	fig6        Figure 6a/6b  failure resilience & capacity vs optimum
//	capacity    Figure 6b under load: achieved goodput of diversity vs
//	            baseline vs BGP best-path with real traffic (token-bucket
//	            links, multipath striping)
//	churn       extra: continuous flap churn — time-to-reconnect and
//	            goodput recovery of diversity vs baseline vs BGP under a
//	            deterministic fault-injection schedule
//	serve       extra: path-lookup serving layer under closed-loop load
//	            (Zipf destinations, epoch snapshots, chaos revocations);
//	            see also cmd/pathserve for the million-endpoint run
//	failover    extra: crash-recoverable replicated path-server fleet —
//	            availability and lookup cost under a rolling crash storm
//	            plus a full blackout (WAL recovery, anti-entropy, client
//	            failover with serve-stale), diversity vs baseline
//	tournament  extra: path-selection strategy tournament — every
//	            registered policy (single-best, round-robin, weighted,
//	            latency, disjoint, hybrid) scored on identical
//	            topology x workload x chaos grid cells; deterministic
//	            fingerprint, winner promoted to the traffic default
//	convergence extra: BGP (re-)convergence vs SCION SCMP failover (§5)
//	ablation    extra: selector variants (raw geomean, AS-disjoint, latency)
//	scionlab    Figures 7/8/9 SCIONLab path quality & bandwidth
//	gridsearch  §4.2 parameter search methodology
//	all         everything above
//
// Usage:
//
//	experiments -exp all -scale default
//	experiments -exp fig5 -scale paper     # hours of compute
//	experiments -exp fig6 -scale smoke
package main

import (
	"flag"
	"fmt"
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
	"scionmpr/internal/telemetry"
)

// experimentNames is every value -exp accepts: "all", then each
// experiment main runs, each followed by its aliases.
var experimentNames = []string{
	"all", "table1", "fig5", "overhead", "fig6", "fig6a", "fig6b",
	"capacity", "churn", "serve", "failover", "tournament",
	"scionlab", "fig7", "fig8", "fig9", "convergence", "ablation", "gridsearch",
}

// knownExperiment reports whether -exp name selects anything; main
// rejects other names instead of running nothing and exiting 0.
func knownExperiment(name string) bool { return slices.Contains(experimentNames, name) }

func main() {
	var (
		exp       = flag.String("exp", "all", "experiment: table1 | fig5 (alias: overhead) | fig6 | capacity | churn | serve | failover | tournament | scionlab | convergence | ablation | gridsearch | all")
		scaleStr  = flag.String("scale", "default", "scale preset: smoke | default | paper")
		duration  = flag.Duration("duration", 0, "override beaconing duration")
		pairs     = flag.Int("pairs", 0, "override sampled AS pairs")
		ases      = flag.Int("ases", 0, "override topology size; the core/ISD structure scales proportionally")
		workers   = flag.Int("workers", 0, "simulator workers: 1 sequential, 0 default (SCIONMPR_WORKERS or GOMAXPROCS); output is identical for every setting")
		cpuprof   = flag.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
		memprof   = flag.String("memprofile", "", "write a heap profile to this file at exit (go tool pprof)")
		telemAddr = flag.String("telemetry", "", "serve /metrics, /snapshot, /trace and /debug/pprof on this address during the run (e.g. localhost:6060)")
		traceOut  = flag.String("trace", "", "write the structured trace event log (JSONL) to this file at exit")
	)
	flag.Parse()
	if !knownExperiment(*exp) {
		fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q; valid: %s\n", *exp, strings.Join(experimentNames, ", "))
		os.Exit(2)
	}

	// flushProfiles finalizes any requested profiles exactly once; it runs
	// both on the normal exit path and from the SIGINT handler so that a
	// long scaling run interrupted mid-way still yields usable profiles.
	var profOnce sync.Once
	flushProfiles := func() {
		profOnce.Do(func() {
			if *cpuprof != "" {
				pprof.StopCPUProfile()
			}
			if *memprof != "" {
				f, err := os.Create(*memprof)
				if err != nil {
					fmt.Fprintln(os.Stderr, "experiments:", err)
					return
				}
				defer f.Close()
				// Up-to-date live-heap numbers rather than the stats of
				// the last completed GC cycle.
				runtime.GC()
				if err := pprof.WriteHeapProfile(f); err != nil {
					fmt.Fprintln(os.Stderr, "experiments:", err)
				}
			}
		})
	}
	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
	}
	defer flushProfiles()
	if *cpuprof != "" || *memprof != "" {
		sigc := make(chan os.Signal, 1)
		signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
		go func() {
			s := <-sigc
			fmt.Fprintf(os.Stderr, "experiments: %v — flushing profiles\n", s)
			flushProfiles()
			os.Exit(130)
		}()
	}

	var (
		reg    *telemetry.Registry
		tracer *telemetry.Tracer
	)
	if *telemAddr != "" || *traceOut != "" {
		reg = telemetry.NewRegistry()
		tracer = telemetry.NewTracer(1 << 16)
	}
	if *telemAddr != "" {
		addr, err := telemetry.Serve(*telemAddr, reg, tracer)
		if err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "telemetry: http://%s/metrics (pprof at /debug/pprof/)\n", addr)
	}
	if *traceOut != "" {
		defer func() {
			f, err := os.Create(*traceOut)
			if err != nil {
				fail(err)
			}
			defer f.Close()
			if err := tracer.WriteJSONL(f); err != nil {
				fail(err)
			}
		}()
	}

	var scale experiments.Scale
	switch *scaleStr {
	case "smoke":
		scale = experiments.SmokeScale()
	case "default":
		scale = experiments.DefaultScale()
	case "paper":
		scale = experiments.PaperScale()
	default:
		fail(fmt.Errorf("unknown scale %q", *scaleStr))
	}
	if *ases > 0 {
		// Preserve the paper's structural ratios at the requested size
		// (core share ~1/6 of ASes, ISDs of ~10 core ASes each).
		scale.NumASes = *ases
		scale.CoreSize = *ases / 6
		if scale.CoreSize < 4 {
			scale.CoreSize = 4
		}
		scale.NumISDs = scale.CoreSize / 10
		if scale.NumISDs < 2 {
			scale.NumISDs = 2
		}
	}
	if *duration > 0 {
		scale.Duration = *duration
	}
	if *pairs > 0 {
		scale.Pairs = *pairs
	}
	scale.Workers = *workers
	scale.Telemetry = reg
	scale.Tracer = tracer

	runOne := func(name string, f func() error) {
		fmt.Printf("\n########## %s ##########\n", name)
		start := time.Now()
		if err := f(); err != nil {
			fail(err)
		}
		fmt.Printf("[%s finished in %v]\n", name, time.Since(start).Round(time.Millisecond))
	}

	want := func(name string) bool { return *exp == "all" || *exp == name }

	if want("table1") {
		runOne("table1", func() error {
			res, err := experiments.RunTable1()
			if err != nil {
				return err
			}
			res.Print(os.Stdout)
			return nil
		})
	}
	if want("fig5") || want("overhead") {
		runOne("fig5", func() error {
			res, err := experiments.RunFig5(scale)
			if err != nil {
				return err
			}
			res.Print(os.Stdout)
			return nil
		})
	}
	if want("fig6") || want("fig6a") || want("fig6b") {
		runOne("fig6", func() error {
			res, err := experiments.RunFig6(scale)
			if err != nil {
				return err
			}
			res.Print(os.Stdout)
			return nil
		})
	}
	if want("capacity") {
		runOne("capacity", func() error {
			res, err := experiments.RunCapacity(scale)
			if err != nil {
				return err
			}
			res.Print(os.Stdout)
			return nil
		})
	}
	if want("churn") {
		runOne("churn", func() error {
			res, err := experiments.RunChurn(scale)
			if err != nil {
				return err
			}
			res.Print(os.Stdout)
			return nil
		})
	}
	if want("serve") {
		runOne("serve", func() error {
			res, err := experiments.RunServe(scale, experiments.DefaultServeConfig())
			if err != nil {
				return err
			}
			res.Print(os.Stdout)
			return nil
		})
	}
	if want("failover") {
		runOne("failover", func() error {
			res, err := experiments.RunFailover(scale, experiments.DefaultFailoverConfig())
			if err != nil {
				return err
			}
			res.Print(os.Stdout)
			return nil
		})
	}
	if want("tournament") {
		runOne("tournament", func() error {
			res, err := experiments.RunTournament(scale, experiments.DefaultTournamentConfig())
			if err != nil {
				return err
			}
			res.Print(os.Stdout)
			return nil
		})
	}
	if want("scionlab") || want("fig7") || want("fig8") || want("fig9") {
		runOne("scionlab", func() error {
			res, err := experiments.RunSCIONLab()
			if err != nil {
				return err
			}
			res.Print(os.Stdout)
			return nil
		})
	}
	if want("convergence") {
		runOne("convergence", func() error {
			res, err := experiments.RunConvergence(scale)
			if err != nil {
				return err
			}
			res.Print(os.Stdout)
			return nil
		})
	}
	if want("ablation") {
		runOne("ablation", func() error {
			res, err := experiments.RunAblation(scale)
			if err != nil {
				return err
			}
			res.Print(os.Stdout)
			return nil
		})
	}
	if want("gridsearch") {
		runOne("gridsearch", func() error {
			// A trimmed grid at the given scale; the full exponential
			// grid is practical at smoke scale only.
			gs := experiments.SmokeScale()
			gs.Duration = 2 * time.Hour
			gs.CoreSize = 12
			space := core.SearchSpace{
				Alphas:     []float64{2, 6, 16},
				Betas:      []float64{2, 4},
				Gammas:     []float64{2, 4},
				Thresholds: []float64{0.02, 0.05, 0.2},
			}
			res, err := experiments.RunGridSearch(gs, space, 0.3)
			if err != nil {
				return err
			}
			res.Print(os.Stdout)
			return nil
		})
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
