package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"scionmpr/internal/experiments"
)

// pathserve runs the path-lookup serving layer under a closed-loop client
// population at interactive-Internet scale: by default one million
// simulated endpoints issue Zipf-skewed path lookups against a sharded
// epoch-snapshot service while live beaconing feeds registrations
// underneath and a chaos storm flaps core links mid-run. The summary —
// lookups, virtual QPS, modeled tail latency, cache hit rate, shard
// imbalance and the run fingerprint — is byte-identical for every
// -workers setting.
//
//	scionmpr pathserve -endpoints 200000 -duration 6s
//	scionmpr pathserve -scale smoke -workers 4
//	scionmpr pathserve -trace events.jsonl -snapshot metrics.txt
//
// With -replicas N the single service becomes a crash-recoverable fleet
// of N write-ahead-logged replicas under a rolling crash storm plus a
// full blackout (RESILIENCE.md); the artifacts are those of its
// diversity variant.
//
//	scionmpr pathserve -replicas 3 -endpoints 200000 -duration 8s
func pathserve(fs *flag.FlagSet) func(io.Writer) error {
	sc := experiments.DefaultServeConfig()
	var (
		scaleName   = fs.String("scale", "default", "topology scale preset: smoke | default | paper")
		seed        = fs.Int64("seed", 1, "seed for topology, chaos schedule and client randomness")
		workers     = fs.Int("workers", 0, "simulator workers: 1 sequential, 0 default; output is identical for every setting")
		replicas    = fs.Int("replicas", 0, "replicated fleet size; > 0 runs the crash-recovery failover experiment instead of the single-service run")
		ckptEvery   = fs.Uint64("ckptevery", 192, "WAL records between checkpoints (with -replicas)")
		syncEvery   = fs.Duration("syncevery", 500*time.Millisecond, "anti-entropy sweep period (with -replicas)")
		crashDown   = fs.Duration("crashdown", time.Second, "per-replica outage length in the crash storm (with -replicas)")
		crashPeriod = fs.Duration("crashperiod", 2700*time.Millisecond, "per-replica crash period in the storm (with -replicas)")
		snapOut     = fs.String("snapshot", "", "write the deterministic telemetry snapshot to this file")
		obs         = observerFlags(fs)
	)
	fs.IntVar(&sc.Endpoints, "endpoints", 1_000_000, "closed-loop endpoint population")
	fs.IntVar(&sc.Actors, "actors", 64, "client actor shards the endpoints multiplex onto")
	fs.IntVar(&sc.Shards, "shards", 16, "service destination shards (1..64)")
	fs.DurationVar(&sc.Duration, "duration", 10*time.Second, "virtual run length")
	fs.DurationVar(&sc.MeanThink, "think", 250*time.Millisecond, "mean endpoint think time")
	fs.DurationVar(&sc.Tick, "tick", 10*time.Millisecond, "client scheduling quantum")
	fs.Float64Var(&sc.ZipfS, "zipf", 1.2, "destination popularity Zipf exponent")
	fs.DurationVar(&sc.CacheTTL, "cachettl", 2*time.Second, "client reply-cache TTL (0 disables caching)")
	return func(w io.Writer) error {
		scale, err := scalePreset(*scaleName)
		if err != nil {
			return err
		}
		scale.Seed = *seed
		scale.Workers = *workers
		if err := obs.start(); err != nil {
			return err
		}
		scale.Telemetry = obs.reg
		scale.Tracer = obs.tracer

		// The fleet's artifacts are those of its first (diversity) run.
		var (
			res         printer
			fp          [32]byte
			trace, snap string
			wall        []string
		)
		if *replicas > 0 {
			fc := experiments.DefaultFailoverConfig()
			fc.ServeConfig = sc
			fc.Replicas = *replicas
			fc.CheckpointEvery = *ckptEvery
			fc.SyncInterval = *syncEvery
			fc.CrashDown = *crashDown
			fc.CrashPeriod = *crashPeriod
			fr, err := experiments.RunFailover(scale, fc)
			if err != nil {
				return err
			}
			res, fp, trace, snap = fr, fr.Fingerprint(), fr.Runs[0].TraceJSONL, fr.Runs[0].Snapshot
			for _, run := range fr.Runs {
				wall = append(wall, fmt.Sprintf("wall: %v for %d events (%s)",
					run.Elapsed.Round(time.Millisecond), run.Executed, run.Name))
			}
		} else {
			sr, err := experiments.RunServe(scale, sc)
			if err != nil {
				return err
			}
			res, fp, trace, snap = sr, sr.Fingerprint(), sr.TraceJSONL, sr.Snapshot
			wall = append(wall, fmt.Sprintf("wall: %v for %d events (%d endpoints, workers=%d)",
				sr.Elapsed.Round(time.Millisecond), sr.Executed, sc.Endpoints, *workers))
		}
		if obs.trace != "" {
			if err := os.WriteFile(obs.trace, []byte(trace), 0o644); err != nil {
				return err
			}
		}
		if *snapOut != "" {
			if err := os.WriteFile(*snapOut, []byte(snap), 0o644); err != nil {
				return err
			}
		}
		res.Print(w)
		fmt.Fprintf(w, "\nfingerprint: %s\n", hex.EncodeToString(fp[:]))
		for _, line := range wall {
			fmt.Fprintln(os.Stderr, line)
		}
		return nil
	}
}
