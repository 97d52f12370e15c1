// Command pathserve runs the path-lookup serving layer under a
// closed-loop client population at interactive-Internet scale: by
// default one million simulated endpoints issue Zipf-skewed path
// lookups against a sharded epoch-snapshot service while live beaconing
// feeds registrations underneath and a chaos storm flaps core links
// mid-run. The deterministic summary — lookups, virtual QPS, modeled
// tail latency, cache hit rate, shard imbalance and the run fingerprint
// — is byte-identical for every -workers setting.
//
// Usage:
//
//	pathserve                                # 1M endpoints, default scale
//	pathserve -endpoints 200000 -duration 6s
//	pathserve -scale smoke -workers 4        # CI-sized, parallel
//	pathserve -trace events.jsonl -snapshot metrics.txt
//
// With -replicas N (N > 0) the single service becomes a crash-
// recoverable fleet of N write-ahead-logged replicas under a rolling
// crash storm plus a full blackout: clients fail over between replicas
// with backoff and serve stale cache entries when the whole fleet is
// dark, crashed replicas recover via checkpoint + WAL replay, and an
// anti-entropy sweep reconverges them (see RESILIENCE.md).
//
//	pathserve -replicas 3 -endpoints 200000 -duration 8s
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"scionmpr/internal/experiments"
	"scionmpr/internal/telemetry"
)

type config struct {
	scale     string
	endpoints int
	actors    int
	shards    int
	duration  time.Duration
	think     time.Duration
	tick      time.Duration
	zipf      float64
	cacheTTL  time.Duration
	seed      int64
	workers   int

	replicas    int
	ckptEvery   uint64
	syncEvery   time.Duration
	crashDown   time.Duration
	crashPeriod time.Duration

	telemAddr string
	traceOut  string
	snapOut   string
}

func main() {
	var cfg config
	flag.StringVar(&cfg.scale, "scale", "default", "topology scale preset: smoke | default | paper")
	flag.IntVar(&cfg.endpoints, "endpoints", 1_000_000, "closed-loop endpoint population")
	flag.IntVar(&cfg.actors, "actors", 64, "client actor shards the endpoints multiplex onto")
	flag.IntVar(&cfg.shards, "shards", 16, "service destination shards (1..64)")
	flag.DurationVar(&cfg.duration, "duration", 10*time.Second, "virtual run length")
	flag.DurationVar(&cfg.think, "think", 250*time.Millisecond, "mean endpoint think time")
	flag.DurationVar(&cfg.tick, "tick", 10*time.Millisecond, "client scheduling quantum")
	flag.Float64Var(&cfg.zipf, "zipf", 1.2, "destination popularity Zipf exponent")
	flag.DurationVar(&cfg.cacheTTL, "cachettl", 2*time.Second, "client reply-cache TTL (0 disables caching)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for topology, chaos schedule and client randomness")
	flag.IntVar(&cfg.workers, "workers", 0, "simulator workers: 1 sequential, 0 default; output is identical for every setting")
	flag.IntVar(&cfg.replicas, "replicas", 0, "replicated fleet size; > 0 runs the crash-recovery failover experiment instead of the single-service run")
	flag.Uint64Var(&cfg.ckptEvery, "ckptevery", 192, "WAL records between checkpoints (with -replicas)")
	flag.DurationVar(&cfg.syncEvery, "syncevery", 500*time.Millisecond, "anti-entropy sweep period (with -replicas)")
	flag.DurationVar(&cfg.crashDown, "crashdown", time.Second, "per-replica outage length in the crash storm (with -replicas)")
	flag.DurationVar(&cfg.crashPeriod, "crashperiod", 2700*time.Millisecond, "per-replica crash period in the storm (with -replicas)")
	flag.StringVar(&cfg.telemAddr, "telemetry", "", "serve /metrics, /snapshot, /trace and /debug/pprof on this address during the run")
	flag.StringVar(&cfg.traceOut, "trace", "", "write the structured trace event log (JSONL) to this file")
	flag.StringVar(&cfg.snapOut, "snapshot", "", "write the deterministic telemetry snapshot to this file")
	flag.Parse()

	if err := run(os.Stdout, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "pathserve:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, cfg config) error {
	var scale experiments.Scale
	switch cfg.scale {
	case "smoke":
		scale = experiments.SmokeScale()
	case "default":
		scale = experiments.DefaultScale()
	case "paper":
		scale = experiments.PaperScale()
	default:
		return fmt.Errorf("unknown scale %q", cfg.scale)
	}
	scale.Seed = cfg.seed
	scale.Workers = cfg.workers
	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(1 << 16)
	scale.Telemetry = reg
	scale.Tracer = tracer
	if cfg.telemAddr != "" {
		addr, err := telemetry.Serve(cfg.telemAddr, reg, tracer)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "telemetry: http://%s/metrics (pprof at /debug/pprof/)\n", addr)
	}

	sc := experiments.DefaultServeConfig()
	sc.Endpoints = cfg.endpoints
	sc.Actors = cfg.actors
	sc.Shards = cfg.shards
	sc.Duration = cfg.duration
	sc.MeanThink = cfg.think
	sc.Tick = cfg.tick
	sc.ZipfS = cfg.zipf
	sc.CacheTTL = cfg.cacheTTL

	if cfg.replicas > 0 {
		return runFleet(w, cfg, scale, sc)
	}

	res, err := experiments.RunServe(scale, sc)
	if err != nil {
		return err
	}

	// The fingerprint is sealed before any volatile post-run work.
	fp := res.Fingerprint()
	if cfg.traceOut != "" {
		if err := os.WriteFile(cfg.traceOut, []byte(res.TraceJSONL), 0o644); err != nil {
			return err
		}
	}
	if cfg.snapOut != "" {
		if err := os.WriteFile(cfg.snapOut, []byte(res.Snapshot), 0o644); err != nil {
			return err
		}
	}

	res.Print(w)
	fmt.Fprintf(w, "\nfingerprint: %s\n", hex.EncodeToString(fp[:]))
	fmt.Fprintf(os.Stderr, "wall: %v for %d events (%d endpoints, workers=%d)\n",
		res.Elapsed.Round(time.Millisecond), res.Executed, cfg.endpoints, cfg.workers)
	return nil
}

// runFleet runs the crash-recoverable replicated fleet variant behind
// -replicas N. The fingerprint covers both selector runs.
func runFleet(w io.Writer, cfg config, scale experiments.Scale, sc experiments.ServeConfig) error {
	fc := experiments.DefaultFailoverConfig()
	fc.ServeConfig = sc
	fc.Replicas = cfg.replicas
	fc.CheckpointEvery = cfg.ckptEvery
	fc.SyncInterval = cfg.syncEvery
	fc.CrashDown = cfg.crashDown
	fc.CrashPeriod = cfg.crashPeriod

	res, err := experiments.RunFailover(scale, fc)
	if err != nil {
		return err
	}
	fp := res.Fingerprint()
	if cfg.traceOut != "" {
		if err := os.WriteFile(cfg.traceOut, []byte(res.Runs[0].TraceJSONL), 0o644); err != nil {
			return err
		}
	}
	if cfg.snapOut != "" {
		if err := os.WriteFile(cfg.snapOut, []byte(res.Runs[0].Snapshot), 0o644); err != nil {
			return err
		}
	}
	res.Print(w)
	fmt.Fprintf(w, "\nfingerprint: %s\n", hex.EncodeToString(fp[:]))
	for _, run := range res.Runs {
		fmt.Fprintf(os.Stderr, "wall: %v for %d events (%s)\n",
			run.Elapsed.Round(time.Millisecond), run.Executed, run.Name)
	}
	return nil
}
