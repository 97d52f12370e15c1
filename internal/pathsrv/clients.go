package pathsrv

import (
	"fmt"
	"math/rand"
	"time"

	"scionmpr/internal/addr"
	"scionmpr/internal/metrics"
	"scionmpr/internal/sim"
	"scionmpr/internal/telemetry"
)

// ClientConfig parameterizes the closed-loop client population: a fixed
// number of simulated endpoints, each looping lookup -> think -> lookup
// against Zipf-skewed destinations (the paper's §4.1 workload model).
type ClientConfig struct {
	// Endpoints is the simulated endpoint count (millions are fine: the
	// per-endpoint state is a few bytes of scheduling, not an actor).
	Endpoints int
	// Actors is the number of simulator shards the endpoints are
	// multiplexed onto (default 64). Part of the experiment definition:
	// changing it reshuffles per-actor RNG streams and thereby results —
	// unlike the worker count, which never does.
	Actors int
	// Sources and Dests are the candidate endpoint locations and lookup
	// targets. Endpoint e lives at Sources[e % len(Sources)].
	Sources, Dests []addr.IA
	// ZipfS skews destination popularity (exponents <= 1 are clamped by
	// the sampler).
	ZipfS float64
	// MeanThink/MinThink shape the exponential think-time distribution
	// (metrics.NewThinkTimes defaults apply).
	MeanThink, MinThink time.Duration
	// Tick is the scheduling quantum: endpoint wakeups are bucketed onto
	// a per-actor time wheel with this resolution (default 10ms), so the
	// simulator carries Actors recurring events rather than one event
	// per lookup.
	Tick time.Duration
	// Start and End bound the load phase in virtual time.
	Start, End sim.Time
	// Seed drives all per-actor randomness.
	Seed int64
	// CacheTTL/CacheCap configure each actor's registered reply cache;
	// CacheTTL <= 0 disables caching entirely.
	CacheTTL sim.Time
	// CacheCap bounds each actor's cache (<= 0 = unbounded).
	CacheCap int

	// Fleet-pool failover policy (ignored by single-service pools).

	// RetryBudget caps failover attempts per actor per tick: once spent,
	// further lookups in the quantum go straight to serve-stale instead
	// of hammering more replicas (default 4; negative = no retries).
	RetryBudget int
	// BackoffBase/BackoffMax shape the per-replica client-side circuit
	// breaker: after k consecutive timeouts a replica is skipped for
	// min(BackoffBase<<(k-1), BackoffMax), jittered to [d/2, d) with the
	// actor's seeded RNG (defaults 50ms / 800ms).
	BackoffBase, BackoffMax time.Duration
}

// clientActor drives one shard's slice of the endpoint population. All
// its state is owned by its simulator shard; telemetry goes to that
// shard's cells.
type clientActor struct {
	pool  *Pool
	shard uint32
	cache *Cache
	ranks *metrics.ZipfRanks
	think *metrics.ThinkTimes
	// buckets is the time wheel: tick ordinal -> endpoints due then.
	buckets map[int64][]int32
	// perShard counts lookups by destination service shard, for the
	// imbalance gauges.
	perShard []uint64

	// Fleet-mode failover state, all owned by this actor's shard:
	// jitter RNG, per-replica consecutive-timeout streaks and circuit
	// deadlines, and the per-tick retry token bucket.
	rng          *rand.Rand
	failStreak   []int
	blockedUntil []sim.Time
	retryTokens  int

	Lookups, Hits, Empties uint64
	// Fleet-mode outcome counters: Timeouts are attempts on a dead
	// replica, Retries failover attempts paid from the budget,
	// RetriesDenied attempts skipped for lack of budget, StaleServes
	// lookups degraded to a stale cached reply, Failures lookups with no
	// answer at all.
	Timeouts, Retries, RetriesDenied uint64
	StaleServes, Failures            uint64

	cLook, cHit, cEmpty            *telemetry.Cell
	cTimeout, cRetry, cRetryDenied *telemetry.Cell
	cStale, cFail                  *telemetry.Cell
	hCost, hSegs                   *telemetry.HistCell
}

// Pool is the client population. Create with NewPool (one service) or
// NewFleetPool (replicated fleet with failover) before the simulation
// runs; it registers its own recurring events.
type Pool struct {
	cfg    ClientConfig
	svc    *Service
	fleet  *Fleet
	actors []*clientActor
}

// Modeled lookup service costs in nanoseconds. The simulation does not
// execute a real RPC stack, so tail latency comes from a cost model:
// cache hits are cheap, misses pay the snapshot probe plus per-segment
// reply marshalling, empty replies pay the probe without the reply.
// Fleet clients additionally pay a timeout per attempt on a crashed
// replica, a local-cache cost for a stale serve, and a full timeout
// chain for a total failure.
const (
	costHitNS      = 800
	costEmptyNS    = 2000
	costMissBaseNS = 2500
	costMissPerSeg = 150
	costTimeoutNS  = 20000
	costStaleNS    = 1000
	costFailNS     = 30000
)

// NewPool builds the endpoint population against a single path server
// and schedules its load between cfg.Start and cfg.End. Call from
// serial context before clock.Run.
func NewPool(clock *sim.Simulator, svc *Service, reg *telemetry.Registry, cfg ClientConfig) (*Pool, error) {
	return newPool(clock, svc, nil, reg, cfg)
}

// NewFleetPool builds the endpoint population against a replica fleet:
// endpoint e prefers replica e mod fleet.Size() and fails over through
// the others under the ClientConfig backoff/retry policy, degrading to
// stale cached replies when every replica is unreachable.
func NewFleetPool(clock *sim.Simulator, fleet *Fleet, reg *telemetry.Registry, cfg ClientConfig) (*Pool, error) {
	if fleet == nil || fleet.Size() == 0 {
		return nil, fmt.Errorf("pathsrv: fleet pool needs a fleet")
	}
	return newPool(clock, fleet.proto, fleet, reg, cfg)
}

func newPool(clock *sim.Simulator, svc *Service, fleet *Fleet, reg *telemetry.Registry, cfg ClientConfig) (*Pool, error) {
	if cfg.Endpoints <= 0 {
		return nil, fmt.Errorf("pathsrv: pool needs endpoints, got %d", cfg.Endpoints)
	}
	if len(cfg.Sources) == 0 || len(cfg.Dests) == 0 {
		return nil, fmt.Errorf("pathsrv: pool needs sources and dests")
	}
	if cfg.Actors <= 0 {
		cfg.Actors = 64
	}
	if cfg.Actors > cfg.Endpoints {
		cfg.Actors = cfg.Endpoints
	}
	if cfg.Tick <= 0 {
		cfg.Tick = 10 * time.Millisecond
	}
	if cfg.End <= cfg.Start {
		return nil, fmt.Errorf("pathsrv: pool needs Start < End")
	}
	if cfg.RetryBudget == 0 {
		cfg.RetryBudget = 4
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 50 * time.Millisecond
	}
	if cfg.BackoffMax < cfg.BackoffBase {
		cfg.BackoffMax = 800 * time.Millisecond
		if cfg.BackoffMax < cfg.BackoffBase {
			cfg.BackoffMax = cfg.BackoffBase
		}
	}

	cLook := reg.Counter("pathsrv_lookups_total")
	cHit := reg.Counter("pathsrv_cache_hits_total")
	cEmpty := reg.Counter("pathsrv_empty_replies_total")
	hCost := reg.Histogram("pathsrv_lookup_cost_ns", telemetry.ExpBuckets(250, 2, 16))
	hSegs := reg.Histogram("pathsrv_reply_segments", telemetry.ExpBuckets(1, 2, 8))
	var cTimeout, cRetry, cRetryDenied, cStale, cFail *telemetry.Counter
	if fleet != nil {
		cTimeout = reg.Counter("pathsrv_client_timeouts_total")
		cRetry = reg.Counter("pathsrv_client_retries_total")
		cRetryDenied = reg.Counter("pathsrv_client_retries_denied_total")
		cStale = reg.Counter("pathsrv_client_stale_serves_total")
		cFail = reg.Counter("pathsrv_client_failures_total")
	}

	p := &Pool{cfg: cfg, svc: svc, fleet: fleet, actors: make([]*clientActor, cfg.Actors)}
	for i := range p.actors {
		shard := clock.NewShard()
		a := &clientActor{
			pool:     p,
			shard:    shard,
			ranks:    metrics.NewZipfRanks(len(cfg.Dests), cfg.ZipfS, cfg.Seed+int64(i)*7919),
			think:    metrics.NewThinkTimes(cfg.MeanThink, cfg.MinThink, cfg.Seed+104729+int64(i)),
			buckets:  map[int64][]int32{},
			perShard: make([]uint64, svc.NumShards()),
			cLook:    cLook.Cell(shard),
			cHit:     cHit.Cell(shard),
			cEmpty:   cEmpty.Cell(shard),
			hCost:    hCost.Cell(shard),
			hSegs:    hSegs.Cell(shard),
		}
		if cfg.CacheTTL > 0 {
			if fleet != nil {
				// Fleet caches are adopted by every replica so each
				// incarnation of each service invalidates them precisely.
				a.cache = NewLocalCache(cfg.CacheTTL, cfg.CacheCap)
				for _, r := range fleet.Replicas() {
					r.adoptCache(a.cache)
				}
			} else {
				a.cache = svc.NewCache(cfg.CacheTTL, cfg.CacheCap)
			}
		}
		if fleet != nil {
			a.rng = rand.New(rand.NewSource(cfg.Seed + 15485863*int64(i) + 31))
			a.failStreak = make([]int, fleet.Size())
			a.blockedUntil = make([]sim.Time, fleet.Size())
			a.cTimeout = cTimeout.Cell(shard)
			a.cRetry = cRetry.Cell(shard)
			a.cRetryDenied = cRetryDenied.Cell(shard)
			a.cStale = cStale.Cell(shard)
			a.cFail = cFail.Cell(shard)
		}
		p.actors[i] = a
	}

	// Seed every endpoint's first wakeup with one think-time draw so the
	// population ramps in smoothly instead of stampeding at Start.
	// Endpoints are dealt round-robin (e % Actors) in ascending order, so
	// each actor consumes its sampler in a deterministic sequence.
	for e := 0; e < cfg.Endpoints; e++ {
		a := p.actors[e%cfg.Actors]
		k := int64(a.think.Next() / cfg.Tick)
		a.buckets[k] = append(a.buckets[k], int32(e))
	}

	if reg != nil {
		for sh := 0; sh < svc.NumShards(); sh++ {
			sh := sh
			reg.GaugeFunc(fmt.Sprintf("pathsrv_shard_lookups{shard=%q}", fmt.Sprint(sh)), func() float64 {
				var sum uint64
				for _, a := range p.actors {
					sum += a.perShard[sh]
				}
				return float64(sum)
			})
		}
	}

	for _, a := range p.actors {
		a := a
		clock.EveryShard(a.shard, time.Duration(cfg.Start), cfg.Tick, cfg.End, a.tick)
	}
	return p, nil
}

// tick processes every endpoint due in this quantum and reschedules each
// after its think time.
func (a *clientActor) tick(now sim.Time) {
	cfg := &a.pool.cfg
	a.retryTokens = cfg.RetryBudget
	k := int64((now - cfg.Start) / sim.Time(cfg.Tick))
	due := a.buckets[k]
	if len(due) == 0 {
		return
	}
	delete(a.buckets, k)
	svc := a.pool.svc
	nsrc, ndst := len(cfg.Sources), len(cfg.Dests)
	for _, e := range due {
		src := cfg.Sources[int(e)%nsrc]
		rank := a.ranks.Next()
		dst := cfg.Dests[rank]
		if dst == src {
			dst = cfg.Dests[(rank+1)%ndst]
		}

		a.Lookups++
		a.cLook.Inc()
		a.perShard[svc.ShardOf(dst)]++

		var n, cost int
		var hit bool
		switch {
		case dst == src:
			// Degenerate workload (single destination colocated with the
			// endpoint): counts as an empty reply.
			a.Empties++
			a.cEmpty.Inc()
			cost = costEmptyNS
		case a.pool.fleet != nil:
			n, hit, cost = a.fleetLookup(now, e, src, dst)
		default:
			if a.cache != nil {
				r, h := a.cache.Lookup(now, svc, src, dst)
				n, hit = len(r), h
			} else {
				r, _ := svc.Lookup(now, src, dst)
				n = len(r)
			}
			switch {
			case hit:
				a.Hits++
				a.cHit.Inc()
				cost = costHitNS
			case n == 0:
				a.Empties++
				a.cEmpty.Inc()
				cost = costEmptyNS
			default:
				cost = costMissBaseNS + costMissPerSeg*n
			}
		}
		a.hCost.Observe(float64(cost))
		if n > 0 {
			a.hSegs.Observe(float64(n))
		}

		d := a.think.Next()
		dk := int64((d + cfg.Tick - 1) / cfg.Tick)
		if dk < 1 {
			dk = 1
		}
		a.buckets[k+dk] = append(a.buckets[k+dk], e)
	}
}

// fleetLookup answers one endpoint lookup against the replica fleet:
// fresh cache hit, else the preferred replica (endpoint mod fleet
// size), failing over through the remaining replicas under the retry
// budget and per-replica backoff, and finally degrading to a stale
// cached reply. Every timeout on a crashed replica adds to the modeled
// cost, so crash storms surface in the latency histogram's tail.
func (a *clientActor) fleetLookup(now sim.Time, e int32, src, dst addr.IA) (n int, hit bool, cost int) {
	key := pairKey{src: src, dst: dst}
	if a.cache != nil {
		if segs, ok := a.cache.probe(now, key); ok {
			a.Hits++
			a.cHit.Inc()
			return len(segs), true, costHitNS
		}
	}
	fl := a.pool.fleet
	nreps := fl.Size()
	pref := int(e) % nreps
	attempted := 0
	for i := 0; i < nreps; i++ {
		ri := (pref + i) % nreps
		if now < a.blockedUntil[ri] {
			continue // circuit open: recent timeouts, skip without cost
		}
		if attempted > 0 {
			if a.retryTokens <= 0 {
				a.RetriesDenied++
				a.cRetryDenied.Inc()
				break
			}
			a.retryTokens--
			a.Retries++
			a.cRetry.Inc()
		}
		attempted++
		segs, minExpiry, ok := fl.Replica(ri).Lookup(now, src, dst)
		if !ok {
			a.Timeouts++
			a.cTimeout.Inc()
			cost += costTimeoutNS
			a.failStreak[ri]++
			a.blockedUntil[ri] = now + a.backoff(ri)
			continue
		}
		if a.failStreak[ri] != 0 {
			a.failStreak[ri] = 0
			a.blockedUntil[ri] = 0
		}
		if len(segs) == 0 {
			a.Empties++
			a.cEmpty.Inc()
			return 0, false, cost + costEmptyNS
		}
		if a.cache != nil {
			a.cache.store(now, key, segs, minExpiry)
		}
		return len(segs), false, cost + costMissBaseNS + costMissPerSeg*len(segs)
	}
	if a.cache != nil {
		if segs := a.cache.LookupStale(now, src, dst); len(segs) > 0 {
			a.StaleServes++
			a.cStale.Inc()
			return len(segs), false, cost + costStaleNS
		}
	}
	a.Failures++
	a.cFail.Inc()
	return 0, false, cost + costFailNS
}

// backoff returns the jittered circuit-open duration for replica ri
// after its current timeout streak: min(base<<(streak-1), max), drawn
// down to [d/2, d) with the actor's seeded RNG so retry storms
// desynchronize deterministically.
func (a *clientActor) backoff(ri int) sim.Time {
	cfg := &a.pool.cfg
	shift := a.failStreak[ri] - 1
	if shift > 16 {
		shift = 16
	}
	d := sim.Time(cfg.BackoffBase) << uint(shift)
	if m := sim.Time(cfg.BackoffMax); d > m || d <= 0 {
		d = m
	}
	half := d / 2
	if half <= 0 {
		return d
	}
	return half + sim.Time(a.rng.Int63n(int64(half)+1))
}

// PoolTotals aggregates the population's results. Serial context only.
type PoolTotals struct {
	Lookups, Hits, Empties, CacheEvictions, CacheInvalidations uint64
	// Fleet-mode outcomes (zero for single-service pools).
	Timeouts, Retries, RetriesDenied uint64
	StaleServes, Failures            uint64
	CacheSweeps, StaleCacheHits      uint64
	// PerShard counts lookups by destination service shard.
	PerShard []uint64
}

// HitRate returns cache hits over lookups.
func (t PoolTotals) HitRate() float64 {
	if t.Lookups == 0 {
		return 0
	}
	return float64(t.Hits) / float64(t.Lookups)
}

// SuccessRate returns the fraction of lookups that produced any answer
// at all — fresh, empty-but-authoritative, or stale (everything except
// Failures).
func (t PoolTotals) SuccessRate() float64 {
	if t.Lookups == 0 {
		return 0
	}
	return float64(t.Lookups-t.Failures) / float64(t.Lookups)
}

// StaleRate returns the fraction of lookups degraded to stale replies.
func (t PoolTotals) StaleRate() float64 {
	if t.Lookups == 0 {
		return 0
	}
	return float64(t.StaleServes) / float64(t.Lookups)
}

// Imbalance returns max-over-mean of the per-shard lookup counts (1.0 =
// perfectly even; 0 when no lookups happened).
func (t PoolTotals) Imbalance() float64 {
	var max, sum uint64
	for _, v := range t.PerShard {
		sum += v
		if v > max {
			max = v
		}
	}
	if sum == 0 || len(t.PerShard) == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(t.PerShard))
	return float64(max) / mean
}

// Totals sums across actors. Serial context only (after the run).
func (p *Pool) Totals() PoolTotals {
	t := PoolTotals{PerShard: make([]uint64, p.svc.NumShards())}
	for _, a := range p.actors {
		t.Lookups += a.Lookups
		t.Hits += a.Hits
		t.Empties += a.Empties
		t.Timeouts += a.Timeouts
		t.Retries += a.Retries
		t.RetriesDenied += a.RetriesDenied
		t.StaleServes += a.StaleServes
		t.Failures += a.Failures
		if a.cache != nil {
			t.CacheEvictions += a.cache.Evictions
			t.CacheInvalidations += a.cache.Invalidations
			t.CacheSweeps += a.cache.Sweeps
			t.StaleCacheHits += a.cache.StaleHits
		}
		for i, v := range a.perShard {
			t.PerShard[i] += v
		}
	}
	return t
}
