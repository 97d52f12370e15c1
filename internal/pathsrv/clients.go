package pathsrv

import (
	"fmt"
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

	Lookups, Hits, Empties uint64

	cLook, cHit, cEmpty *telemetry.Cell
	hCost, hSegs        *telemetry.HistCell
}

// Pool is the client population. Create with NewPool before the
// simulation runs; it registers its own recurring events.
type Pool struct {
	cfg    ClientConfig
	svc    *Service
	actors []*clientActor
}

// Modeled lookup service costs in nanoseconds. The simulation does not
// execute a real RPC stack, so tail latency comes from a cost model:
// cache hits are cheap, misses pay the snapshot probe plus per-segment
// reply marshalling, empty replies pay the probe without the reply.
const (
	costHitNS      = 800
	costEmptyNS    = 2000
	costMissBaseNS = 2500
	costMissPerSeg = 150
)

// NewPool builds the endpoint population against a single path server
// and schedules its load between cfg.Start and cfg.End. Call from
// serial context before clock.Run.
func NewPool(clock *sim.Simulator, svc *Service, reg *telemetry.Registry, cfg ClientConfig) (*Pool, error) {
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

	cLook := reg.Counter("pathsrv_lookups_total")
	cHit := reg.Counter("pathsrv_cache_hits_total")
	cEmpty := reg.Counter("pathsrv_empty_replies_total")
	hCost := reg.Histogram("pathsrv_lookup_cost_ns", telemetry.ExpBuckets(250, 2, 16))
	hSegs := reg.Histogram("pathsrv_reply_segments", telemetry.ExpBuckets(1, 2, 8))

	p := &Pool{cfg: cfg, svc: svc, actors: make([]*clientActor, cfg.Actors)}
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
			a.cache = svc.NewCache(cfg.CacheTTL, cfg.CacheCap)
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
		// A degenerate workload (single destination colocated with the
		// endpoint) looks nothing up: it counts as an empty reply.
		if dst != src {
			if a.cache != nil {
				r, h := a.cache.Lookup(now, svc, src, dst)
				n, hit = len(r), h
			} else {
				r, _ := svc.Lookup(now, src, dst)
				n = len(r)
			}
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

// PoolTotals aggregates the population's results. Serial context only.
type PoolTotals struct {
	Lookups, Hits, Empties, CacheEvictions, CacheInvalidations uint64
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
		if a.cache != nil {
			t.CacheEvictions += a.cache.Evictions
			t.CacheInvalidations += a.cache.Invalidations
		}
		for i, v := range a.perShard {
			t.PerShard[i] += v
		}
	}
	return t
}
