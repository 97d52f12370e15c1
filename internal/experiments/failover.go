package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"scionmpr/internal/addr"
	"scionmpr/internal/chaos"
	"scionmpr/internal/core"
	"scionmpr/internal/metrics"
	"scionmpr/internal/pathsrv"
	"scionmpr/internal/sim"
	"scionmpr/internal/telemetry"
)

// Failover timeline: the serve experiment's control-plane cadence
// (beaconing, registration feed, publisher, flap storm) plus a replica
// fleet with a periodic anti-entropy sweep and a crash storm rolling
// through the replicas across the middle of the client window — with
// one full-fleet blackout at the storm's midpoint so the serve-stale
// path is measured, not just possible.
const (
	failoverSyncStart = 1750 * time.Millisecond
)

// FailoverConfig parameterizes the crash-recovery experiment: the serve
// workload shape plus the fleet and fault-injection policy.
type FailoverConfig struct {
	ServeConfig

	// Replicas is the path-server fleet size (default 3).
	Replicas int
	// CheckpointEvery compacts a replica's WAL after that many journal
	// records (default 192).
	CheckpointEvery uint64
	// SyncInterval is the anti-entropy sweep period (default 500ms) —
	// the bounded-staleness window after a recovery.
	SyncInterval time.Duration
	// CrashDown/CrashPeriod shape the rolling crash storm: each replica
	// is dark for CrashDown every CrashPeriod, staggered (defaults
	// 1s / 2700ms, so with 3 replicas at least one is usually down).
	CrashDown, CrashPeriod time.Duration
	// RetryBudget/BackoffBase/BackoffMax are the client failover policy
	// (see pathsrv.ClientConfig; zero values take its defaults).
	RetryBudget             int
	BackoffBase, BackoffMax time.Duration
}

// DefaultFailoverConfig is the CI-friendly setup on top of the serve
// defaults.
func DefaultFailoverConfig() FailoverConfig {
	return FailoverConfig{
		ServeConfig:     DefaultServeConfig(),
		Replicas:        3,
		CheckpointEvery: 192,
		SyncInterval:    500 * time.Millisecond,
		CrashDown:       1 * time.Second,
		CrashPeriod:     2700 * time.Millisecond,
	}
}

// FailoverRun is one selector variant's crash-storm run.
type FailoverRun struct {
	Name string

	Totals pathsrv.PoolTotals
	// Availability as the clients observed it.
	SuccessRate, StaleRate, HitRate float64
	VirtualQPS                      float64
	P50, P99, P999                  float64

	// Fleet lifecycle under the storm.
	Crashes, Recoveries, ReplayedRecords uint64
	Checkpoints                          uint64
	SyncRounds, SyncPulls, PulledShards  uint64
	CrashInjections, FlapInjections      uint64
	Epoch                                uint64

	// Converged reports that after the final anti-entropy round every
	// replica's Service.Digest was identical; Digests are those per-
	// replica digests (all part of the fingerprint).
	Converged bool
	Digests   [][sha256.Size]byte

	Snapshot   string
	TraceJSONL string
	Executed   uint64

	// Elapsed is wall-clock and therefore volatile: excluded from the
	// fingerprint.
	Elapsed time.Duration
}

// FailoverResult compares path-selection variants under the same crash
// storm.
type FailoverResult struct {
	Scale  Scale
	Config FailoverConfig
	Runs   []FailoverRun
}

// Fingerprint digests every deterministic observable of both runs;
// byte-identical across worker counts.
func (r *FailoverResult) Fingerprint() [sha256.Size]byte {
	h := sha256.New()
	var b [8]byte
	w64 := func(v uint64) {
		binary.BigEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, run := range r.Runs {
		h.Write([]byte(run.Name))
		for _, d := range run.Digests {
			h.Write(d[:])
		}
		h.Write([]byte(run.Snapshot))
		h.Write([]byte(run.TraceJSONL))
		w64(run.Totals.Lookups)
		w64(run.Totals.Hits)
		w64(run.Totals.Empties)
		w64(run.Totals.Timeouts)
		w64(run.Totals.Retries)
		w64(run.Totals.RetriesDenied)
		w64(run.Totals.StaleServes)
		w64(run.Totals.Failures)
		w64(run.Totals.CacheEvictions)
		w64(run.Totals.CacheInvalidations)
		w64(run.Totals.CacheSweeps)
		for _, v := range run.Totals.PerShard {
			w64(v)
		}
		w64(run.Crashes)
		w64(run.Recoveries)
		w64(run.ReplayedRecords)
		w64(run.Checkpoints)
		w64(run.SyncRounds)
		w64(run.SyncPulls)
		w64(run.PulledShards)
		w64(run.CrashInjections)
		w64(run.FlapInjections)
		w64(run.Epoch)
		if run.Converged {
			w64(1)
		} else {
			w64(0)
		}
		w64(run.Executed)
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// RunFailover runs the crash-recoverable fleet experiment for the
// diversity and baseline selectors under identical seeds, workloads and
// fault schedules. Each variant gets a fresh simulator, registry and
// tracer (Scale.Telemetry/Tracer are not shared across variants — the
// per-variant snapshots would otherwise double-count).
func RunFailover(s Scale, fc FailoverConfig) (*FailoverResult, error) {
	if err := fc.check("failover"); err != nil {
		return nil, err
	}
	if fc.Replicas <= 0 {
		fc.Replicas = 3
	}
	if fc.CheckpointEvery == 0 {
		fc.CheckpointEvery = 192
	}
	if fc.SyncInterval <= 0 {
		fc.SyncInterval = 500 * time.Millisecond
	}
	if fc.CrashDown <= 0 {
		fc.CrashDown = 1 * time.Second
	}
	if fc.CrashPeriod <= 0 {
		fc.CrashPeriod = 2700 * time.Millisecond
	}
	// The topology is deterministic, so both variants share one build.
	e, err := newEnv(s)
	if err != nil {
		return nil, err
	}
	res := &FailoverResult{Scale: s, Config: fc}
	variants := []struct {
		name    string
		factory core.Factory
	}{
		{"SCION Diversity", core.NewDiversity(core.DefaultParams(s.DissemLimit))},
		{"SCION Baseline", core.NewBaseline(s.DissemLimit)},
	}
	for _, v := range variants {
		run, err := runFailoverVariant(e, fc, v.name, v.factory)
		if err != nil {
			return nil, fmt.Errorf("experiments: failover %s: %w", v.name, err)
		}
		res.Runs = append(res.Runs, *run)
	}
	return res, nil
}

func runFailoverVariant(e *env, fc FailoverConfig, name string, factory core.Factory) (*FailoverRun, error) {
	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(1 << 16)
	end := sim.Time(fc.Duration)
	plane, err := e.livePlane(factory, serveBeaconInterval, end, reg, tracer)
	if err != nil {
		return nil, err
	}
	clock, ias := plane.Sim, e.core.IAs()

	fleet := pathsrv.NewFleet(pathsrv.FleetConfig{
		Replicas: fc.Replicas,
		Service: pathsrv.Config{
			Shards:        fc.Shards,
			RevocationTTL: sim.Time(fc.RevTTL),
		},
		CheckpointEvery: fc.CheckpointEvery,
		Clock:           clock,
		Telemetry:       reg,
	})

	// Registration feed and publisher, fanned out to every up replica —
	// a crashed replica misses the feed, which is the divergence the
	// anti-entropy sweep (below) reconverges.
	registerFeed(plane, fleet.Register)
	clock.Every(servePublishStart, servePublishInterval, end, fleet.Publish)
	clock.Every(failoverSyncStart, fc.SyncInterval, end, func(now sim.Time) {
		fleet.Sync(now)
	})

	// Fault plane: the serve experiment's flap storm (keeps revocations
	// flowing through the fleet) plus the crash storm rolling through
	// the replicas, with one full blackout at the midpoint. Blackout
	// crashes overlap the rolling ones on the same replica, so the
	// engine's depth-counted crash bookkeeping is exercised in every
	// run, not just in its regression test.
	flaps, stormStart, stormEnd := serveStorm(e, end)
	var replicaIAs []addr.IA
	for _, r := range fleet.Replicas() {
		replicaIAs = append(replicaIAs, r.IA)
	}
	crashes := chaos.CrashStorm(e.scale.Seed+1, replicaIAs, stormStart, stormEnd,
		fc.CrashDown, fc.CrashPeriod)
	blackoutAt := stormStart + (stormEnd-stormStart)/2
	for _, ia := range replicaIAs {
		crashes.Events = append(crashes.Events, chaos.Event{
			Kind: chaos.CrashAS, IA: ia, At: blackoutAt, Down: fc.CrashDown,
		})
	}

	eng := plane.NewChaos()
	pathsrv.WireChaosFleet(clock, eng, e.core, fleet, sim.Time(fc.RevTTL))
	eng.AddCrashTarget(fleet)
	if err := eng.Apply(flaps); err != nil {
		return nil, err
	}
	if err := eng.Apply(crashes); err != nil {
		return nil, err
	}

	cc := fc.clients(ias, e.scale.Seed)
	cc.RetryBudget, cc.BackoffBase, cc.BackoffMax = fc.RetryBudget, fc.BackoffBase, fc.BackoffMax
	pool, err := pathsrv.NewFleetPool(clock, fleet, reg, cc)
	if err != nil {
		return nil, err
	}

	wall := time.Now()
	clock.Run()
	elapsed := time.Since(wall)
	reg.VolatileGauge("failover_wall_seconds").Set(elapsed.Seconds())

	// Every scheduled restart has executed by now (Run drains the
	// queue), so the whole fleet is up: run one final anti-entropy round
	// and check the kill-and-recover invariant — all digests equal.
	fleet.Sync(clock.Now())
	run := &FailoverRun{
		Name:      name,
		Totals:    pool.Totals(),
		Converged: true,
		Executed:  clock.Executed,
		Elapsed:   elapsed,
	}
	for _, r := range fleet.Replicas() {
		if r.Down() {
			run.Converged = false
			continue
		}
		run.Digests = append(run.Digests, r.Service().Digest())
	}
	for _, d := range run.Digests {
		if d != run.Digests[0] {
			run.Converged = false
		}
	}
	for _, r := range fleet.Replicas() {
		run.Crashes += r.Crashes
		run.Recoveries += r.Recoveries
		run.ReplayedRecords += r.Replayed
		run.Checkpoints += r.WAL().Checkpoints
	}
	run.SyncRounds = fleet.Rounds
	run.SyncPulls = fleet.Pulls
	run.PulledShards = fleet.PulledShards
	run.CrashInjections = eng.Injections[chaos.CrashAS]
	run.FlapInjections = eng.Injections[chaos.Flap]
	if !fleet.Replica(0).Down() {
		run.Epoch = fleet.Replica(0).Service().Epoch()
	}

	loadSeconds := (time.Duration(end) - serveClientStart).Seconds()
	run.VirtualQPS = float64(run.Totals.Lookups) / loadSeconds
	run.SuccessRate = run.Totals.SuccessRate()
	run.StaleRate = run.Totals.StaleRate()
	run.HitRate = run.Totals.HitRate()
	run.P50, run.P99, run.P999 = lookupCost(reg)
	if run.Snapshot, run.TraceJSONL, err = observe(reg, tracer); err != nil {
		return nil, err
	}
	return run, nil
}

// Print renders the comparison deterministically.
func (r *FailoverResult) Print(w io.Writer) {
	fmt.Fprintf(w, "== Crash-recoverable path-server fleet under a crash storm ==\n")
	fmt.Fprintf(w, "%d replicas (WAL checkpoint every %d records, anti-entropy every %v)\n",
		r.Config.Replicas, r.Config.CheckpointEvery, r.Config.SyncInterval)
	fmt.Fprintf(w, "%d endpoints on %d actors; crash storm: down %v every %v per replica, plus one full blackout\n",
		r.Config.Endpoints, r.Config.Actors, r.Config.CrashDown, r.Config.CrashPeriod)
	fmt.Fprintf(w, "clients [%v, %v]; retry budget %d/actor/tick, backoff %v..%v\n\n",
		serveClientStart, r.Config.Duration, r.pool().RetryBudget, r.pool().BackoffBase, r.pool().BackoffMax)

	header := []string{"metric"}
	for _, run := range r.Runs {
		header = append(header, run.Name)
	}
	row := func(name string, f func(*FailoverRun) string) []string {
		out := []string{name}
		for i := range r.Runs {
			out = append(out, f(&r.Runs[i]))
		}
		return out
	}
	tbl := metrics.Table{
		Header: header,
		Rows: [][]string{
			row("lookups", func(x *FailoverRun) string { return fmt.Sprintf("%d", x.Totals.Lookups) }),
			row("success rate", func(x *FailoverRun) string { return fmt.Sprintf("%.6f", x.SuccessRate) }),
			row("stale-serve rate", func(x *FailoverRun) string { return fmt.Sprintf("%.6f", x.StaleRate) }),
			row("cache hit rate", func(x *FailoverRun) string { return fmt.Sprintf("%.4f", x.HitRate) }),
			row("timeouts", func(x *FailoverRun) string { return fmt.Sprintf("%d", x.Totals.Timeouts) }),
			row("retries (denied)", func(x *FailoverRun) string {
				return fmt.Sprintf("%d (%d)", x.Totals.Retries, x.Totals.RetriesDenied)
			}),
			row("stale serves", func(x *FailoverRun) string { return fmt.Sprintf("%d", x.Totals.StaleServes) }),
			row("hard failures", func(x *FailoverRun) string { return fmt.Sprintf("%d", x.Totals.Failures) }),
			row("lookup cost p50", func(x *FailoverRun) string { return fmtNanos(x.P50) }),
			row("lookup cost p99", func(x *FailoverRun) string { return fmtNanos(x.P99) }),
			row("lookup cost p999", func(x *FailoverRun) string { return fmtNanos(x.P999) }),
			row("crashes / recoveries", func(x *FailoverRun) string {
				return fmt.Sprintf("%d / %d", x.Crashes, x.Recoveries)
			}),
			row("WAL records replayed", func(x *FailoverRun) string { return fmt.Sprintf("%d", x.ReplayedRecords) }),
			row("WAL checkpoints", func(x *FailoverRun) string { return fmt.Sprintf("%d", x.Checkpoints) }),
			row("anti-entropy rounds", func(x *FailoverRun) string { return fmt.Sprintf("%d", x.SyncRounds) }),
			row("anti-entropy pulls (shards)", func(x *FailoverRun) string {
				return fmt.Sprintf("%d (%d)", x.SyncPulls, x.PulledShards)
			}),
			row("replicas converged", func(x *FailoverRun) string { return fmt.Sprintf("%v", x.Converged) }),
		},
	}
	tbl.Fprint(w)
	fmt.Fprintf(w, "\nthrough a rolling crash storm and a full blackout, clients keep a\n%.4f+ success rate: failover hides single-replica crashes, stale cache\nserves bridge the blackout, and WAL replay + one anti-entropy round\nbring every recovered replica back to the fleet digest.\n",
		minSuccess(r.Runs))
}

// pool recovers the effective client failover policy for display.
func (r *FailoverResult) pool() pathsrv.ClientConfig {
	cfg := pathsrv.ClientConfig{
		RetryBudget: r.Config.RetryBudget,
		BackoffBase: r.Config.BackoffBase,
		BackoffMax:  r.Config.BackoffMax,
	}
	if cfg.RetryBudget == 0 {
		cfg.RetryBudget = 4
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 50 * time.Millisecond
	}
	if cfg.BackoffMax < cfg.BackoffBase {
		cfg.BackoffMax = 800 * time.Millisecond
	}
	return cfg
}

func minSuccess(runs []FailoverRun) float64 {
	min := 1.0
	for _, r := range runs {
		if r.SuccessRate < min {
			min = r.SuccessRate
		}
	}
	return min
}
