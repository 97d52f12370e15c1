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
func pathserve(fs *flag.FlagSet) func(io.Writer) error {
	sc := experiments.DefaultServeConfig()
	var (
		scaleName = fs.String("scale", "default", "topology scale preset: smoke | default | paper")
		seed      = fs.Int64("seed", 1, "seed for topology, chaos schedule and client randomness")
		workers   = fs.Int("workers", 0, "simulator workers: 1 sequential, 0 default; output is identical for every setting")
		snapOut   = fs.String("snapshot", "", "write the deterministic telemetry snapshot to this file")
		obs       = observerFlags(fs)
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

		sr, err := experiments.RunServe(scale, sc)
		if err != nil {
			return err
		}
		if obs.trace != "" {
			if err := os.WriteFile(obs.trace, []byte(sr.TraceJSONL), 0o644); err != nil {
				return err
			}
		}
		if *snapOut != "" {
			if err := os.WriteFile(*snapOut, []byte(sr.Snapshot), 0o644); err != nil {
				return err
			}
		}
		sr.Print(w)
		fp := sr.Fingerprint()
		fmt.Fprintf(w, "\nfingerprint: %s\n", hex.EncodeToString(fp[:]))
		fmt.Fprintf(os.Stderr, "wall: %v for %d events (%d endpoints, workers=%d)\n",
			sr.Elapsed.Round(time.Millisecond), sr.Executed, sc.Endpoints, *workers)
		return nil
	}
}
