package pathsrv

import (
	"time"

	"scionmpr/internal/addr"
	"scionmpr/internal/seg"
	"scionmpr/internal/sim"
	"scionmpr/internal/telemetry"
)

// Replica is one crash-recoverable path server: a Service whose every
// mutation is journaled to a WAL before it is applied, wrapped with a
// process lifecycle. While up it serves lookups from its snapshots;
// crashed it answers nothing (clients time out and fail over); restarted
// it rebuilds the pre-crash state from the WAL — checkpoint load plus
// tail replay — and reconverges with its peers through anti-entropy.
//
// A Replica's writer methods run in serial simulator events (same
// contract as Service); Lookup runs from any parallel client shard.
type Replica struct {
	// ID is the replica's index within its fleet.
	ID int
	// IA is the replica's synthetic process address — the identity
	// CrashAS schedule entries target.
	IA addr.IA

	svc    *Service
	wal    *WAL
	cfg    Config
	caches []*Cache

	clock *sim.Simulator
	fleet *Fleet

	// ckptEvery triggers a checkpoint compaction once that many records
	// accumulate since the last one.
	ckptEvery uint64

	down      bool
	downSince sim.Time

	// Crashes / Recoveries / Replayed mirror the fleet telemetry for
	// registry-free use; LastRecoveryLag and LastReplayed describe the
	// most recent restart.
	Crashes, Recoveries uint64
	Replayed            uint64
	LastReplayed        uint64
	LastRecoveryLag     sim.Time
}

// Down reports whether the replica is currently crashed. Safe from
// parallel readers under the simulator's serial/parallel ordering: crash
// and restart happen in serial events, which have a happens-before edge
// with every parallel segment.
func (r *Replica) Down() bool { return r.down }

// Service exposes the underlying service (nil while down) for digest
// checks and benchmarks.
func (r *Replica) Service() *Service { return r.svc }

// WAL exposes the replica's journal for inspection and torture tests.
func (r *Replica) WAL() *WAL { return r.wal }

// Lookup serves a path query, reporting ok=false while crashed — the
// client observes a timeout and tries the next replica.
func (r *Replica) Lookup(now sim.Time, src, dst addr.IA) (segs []*seg.PCB, minExpiry sim.Time, ok bool) {
	if r.down {
		return nil, 0, false
	}
	segs, minExpiry = r.svc.Lookup(now, src, dst)
	return segs, minExpiry, true
}

// Register journals and applies one segment registration. Dropped while
// down: a crashed server misses its beacon feed, which is exactly the
// divergence anti-entropy heals after restart.
func (r *Replica) Register(now sim.Time, p *seg.PCB) error {
	if r.down {
		return nil
	}
	r.wal.AppendRegister(now, p)
	err := r.svc.Register(now, p)
	r.maybeCheckpoint(now)
	return err
}

// RevokeLink journals and applies a link revocation (no-op while down).
func (r *Replica) RevokeLink(now sim.Time, link seg.LinkKey, ttl sim.Time) int {
	if r.down {
		return 0
	}
	r.wal.AppendRevoke(now, link, ttl)
	n := r.svc.RevokeLink(now, link, ttl)
	r.maybeCheckpoint(now)
	return n
}

// ReinstateLink journals and applies a link reinstatement (no-op while
// down).
func (r *Replica) ReinstateLink(now sim.Time, link seg.LinkKey) int {
	if r.down {
		return 0
	}
	r.wal.AppendReinstate(now, link)
	n := r.svc.ReinstateLink(now, link)
	r.maybeCheckpoint(now)
	return n
}

// Publish journals and applies a batch publication (no-op while down).
func (r *Replica) Publish(now sim.Time) int {
	if r.down {
		return 0
	}
	r.wal.AppendPublish(now)
	n := r.svc.Publish(now)
	r.maybeCheckpoint(now)
	return n
}

// maybeCheckpoint compacts the WAL when the record budget since the
// last checkpoint is spent.
func (r *Replica) maybeCheckpoint(now sim.Time) {
	if r.wal.Records < r.ckptEvery {
		return
	}
	r.checkpoint(now)
}

func (r *Replica) checkpoint(now sim.Time) {
	before := r.wal.Records
	r.wal.Checkpoint(now, r.svc)
	if r.fleet != nil {
		r.fleet.cCkpt.Inc()
		r.fleet.trace(telemetry.WALCheckpoint, uint64(r.ID), uint64(r.wal.Len()), before)
	}
}

// adoptCache registers a client cache for precise invalidation across
// crashes: the cache lives with the client, so each recovered Service
// incarnation re-adopts it.
func (r *Replica) adoptCache(c *Cache) {
	r.caches = append(r.caches, c)
	if r.svc != nil {
		r.svc.adoptCaches(r.caches)
	}
}

// crash kills the replica's process: the in-memory Service is gone, the
// WAL (its disk) survives. Idempotent.
func (r *Replica) crash(now sim.Time) {
	if r.down {
		return
	}
	r.down = true
	r.downSince = now
	r.svc = nil
	r.Crashes++
	if r.fleet != nil {
		r.fleet.cCrash.Inc()
		r.fleet.trace(telemetry.ReplicaCrashed, uint64(r.ID), 0, 0)
	}
}

// restart recovers the replica from its WAL: checkpoint load + tail
// replay (clockless, so journaled mutations do not re-emit trace
// events), then clock, telemetry-free service state and client caches
// are re-attached. Recovery lag — how long the replica was dark — and
// the wall-clock replay duration are recorded. Idempotent.
func (r *Replica) restart(now sim.Time) {
	if !r.down {
		return
	}
	start := time.Now()
	svc, st := Recover(r.wal.Bytes(), r.cfg)
	replayWall := time.Since(start)
	// Fleet replica services stay clockless across incarnations (the
	// fleet emits the lifecycle traces); only the client caches are
	// re-attached.
	svc.adoptCaches(r.caches)
	r.svc = svc
	r.down = false
	r.Recoveries++
	r.Replayed += st.Records
	r.LastReplayed = st.Records
	r.LastRecoveryLag = now - r.downSince
	if r.fleet != nil {
		r.fleet.cRecover.Inc()
		r.fleet.cReplayed.Add(st.Records)
		r.fleet.hReplayWall.Observe(float64(replayWall.Nanoseconds()))
		r.fleet.hRecoveryLag.Observe(float64(r.LastRecoveryLag))
		r.fleet.trace(telemetry.ReplicaRecovered, uint64(r.ID), st.Records, uint64(r.LastRecoveryLag))
	}
}

// FleetConfig parameterizes a replica fleet.
type FleetConfig struct {
	// Replicas is the fleet size (default 3).
	Replicas int
	// BaseIA is the synthetic process address of replica 0; replica i
	// lives at BaseIA.AS + i. Point CrashAS schedule entries at these.
	// Default ISD 60000, AS 1.
	BaseIA addr.IA
	// Service configures each replica's Service (Clock/Telemetry fields
	// are managed by the fleet; replica services run without their own
	// registry so recovery never double-registers gauges).
	Service Config
	// CheckpointEvery compacts a replica's WAL after that many journal
	// records (default 256).
	CheckpointEvery uint64
	// Clock timestamps trace events and recovery lag.
	Clock *sim.Simulator
	// Telemetry receives fleet-level counters and histograms.
	Telemetry *telemetry.Registry
}

// Fleet is a set of replicas fed the same mutation stream, plus the
// glue that makes the chaos engine's CrashAS events kill and recover
// them: Fleet implements chaos.CrashTarget keyed by the replicas'
// synthetic IAs. Writer methods fan out to every up replica.
type Fleet struct {
	reps []*Replica
	byIA map[addr.IA]*Replica

	// proto is replica 0's first Service incarnation, kept for the pure
	// shard-mapping functions (ShardOf, NumShards) that client pools
	// need even while every replica is down.
	proto *Service

	clock *sim.Simulator

	cCrash, cRecover, cReplayed, cCkpt *telemetry.Cell
	cPulls, cPullShards, cRounds       *telemetry.Cell
	hReplayWall, hRecoveryLag          *telemetry.Histogram

	// Rounds / Pulls / PulledShards mirror the anti-entropy telemetry
	// for registry-free use.
	Rounds, Pulls, PulledShards uint64
}

// NewFleet builds a fleet of identically configured, initially empty
// replicas.
func NewFleet(cfg FleetConfig) *Fleet {
	n := cfg.Replicas
	if n <= 0 {
		n = 3
	}
	base := cfg.BaseIA
	if base.IsZero() {
		base = addr.IA{ISD: 60000, AS: 1}
	}
	svcCfg := cfg.Service
	svcCfg.Clock = nil
	svcCfg.Telemetry = nil
	every := cfg.CheckpointEvery
	if every == 0 {
		every = 256
	}
	f := &Fleet{
		reps:  make([]*Replica, n),
		byIA:  map[addr.IA]*Replica{},
		clock: cfg.Clock,
	}
	if reg := cfg.Telemetry; reg != nil {
		f.cCrash = reg.Counter("pathsrv_replica_crashes_total").Cell(0)
		f.cRecover = reg.Counter("pathsrv_replica_recoveries_total").Cell(0)
		f.cReplayed = reg.Counter("pathsrv_wal_replayed_records_total").Cell(0)
		f.cCkpt = reg.Counter("pathsrv_wal_checkpoints_total").Cell(0)
		f.cPulls = reg.Counter("pathsrv_antientropy_pulls_total").Cell(0)
		f.cPullShards = reg.Counter("pathsrv_antientropy_pulled_shards_total").Cell(0)
		f.cRounds = reg.Counter("pathsrv_antientropy_rounds_total").Cell(0)
		// Replay wall time depends on the host, not virtual time.
		f.hReplayWall = reg.VolatileHistogram("pathsrv_wal_replay_wall_ns", telemetry.ExpBuckets(1e3, 4, 12))
		f.hRecoveryLag = reg.Histogram("pathsrv_replica_recovery_lag_ns", telemetry.ExpBuckets(1e6, 4, 12))
	}
	for i := range f.reps {
		ia := addr.IA{ISD: base.ISD, AS: base.AS + addr.AS(i)}
		r := &Replica{
			ID:        i,
			IA:        ia,
			svc:       New(svcCfg),
			wal:       NewWAL(),
			cfg:       svcCfg,
			clock:     cfg.Clock,
			fleet:     f,
			ckptEvery: every,
		}
		f.reps[i] = r
		f.byIA[ia] = r
	}
	f.proto = f.reps[0].svc
	return f
}

// trace emits a fleet lifecycle event (serial context only).
func (f *Fleet) trace(kind telemetry.EventKind, actor, subject, aux uint64) {
	if f.clock == nil {
		return
	}
	f.clock.Trace(sim.SerialShard, telemetry.Event{
		Kind: kind, Actor: actor, Subject: subject, Aux: aux, Reason: "fleet",
	})
}

// Size returns the number of replicas.
func (f *Fleet) Size() int { return len(f.reps) }

// Replica returns replica i.
func (f *Fleet) Replica(i int) *Replica { return f.reps[i] }

// Replicas returns the replica slice (do not mutate).
func (f *Fleet) Replicas() []*Replica { return f.reps }

// Crash implements chaos.CrashTarget: a CrashAS event addressed to a
// replica's synthetic IA kills that replica. Unknown IAs (beacon-server
// crashes et al.) are ignored.
func (f *Fleet) Crash(ia addr.IA) {
	if r, ok := f.byIA[ia]; ok {
		r.crash(f.now())
	}
}

// Restart implements chaos.CrashTarget: recovery through WAL replay.
func (f *Fleet) Restart(ia addr.IA) {
	if r, ok := f.byIA[ia]; ok {
		r.restart(f.now())
	}
}

func (f *Fleet) now() sim.Time {
	if f.clock == nil {
		return 0
	}
	return f.clock.Now()
}

// Register fans a segment registration out to every up replica.
func (f *Fleet) Register(now sim.Time, p *seg.PCB) {
	for _, r := range f.reps {
		_ = r.Register(now, p)
	}
}

// RevokeLink fans a revocation out to every up replica.
func (f *Fleet) RevokeLink(now sim.Time, link seg.LinkKey, ttl sim.Time) {
	for _, r := range f.reps {
		r.RevokeLink(now, link, ttl)
	}
}

// ReinstateLink fans a reinstatement out to every up replica.
func (f *Fleet) ReinstateLink(now sim.Time, link seg.LinkKey) {
	for _, r := range f.reps {
		r.ReinstateLink(now, link)
	}
}

// Publish fans a batch publication out to every up replica.
func (f *Fleet) Publish(now sim.Time) {
	for _, r := range f.reps {
		r.Publish(now)
	}
}
