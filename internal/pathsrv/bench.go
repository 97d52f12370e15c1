package pathsrv

import (
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"scionmpr/internal/addr"
	"scionmpr/internal/metrics"
	"scionmpr/internal/sim"
)

// BenchConfig parameterizes ReadBench, the wall-clock concurrent read
// benchmark. Unlike the simulated client pool, ReadBench measures the
// real data structure: G goroutines hammering Service.Lookup through
// local caches while (optionally) a writer mutates and republishes
// underneath. Results are volatile by construction — report them as
// volatile metrics, never fold them into fingerprints.
type BenchConfig struct {
	// Readers is the goroutine count (default GOMAXPROCS-ish callers
	// should pick; <= 0 means 4).
	Readers int
	// Ops is the lookup count per reader (default 100k).
	Ops int
	// Sources and Dests are the query population; destinations are drawn
	// Zipf(ZipfS)-skewed.
	Sources, Dests []addr.IA
	ZipfS          float64
	Seed           int64
	// CacheTTL/CacheCap configure each reader's local cache; TTL <= 0
	// disables caching so every op hits the snapshots.
	CacheTTL sim.Time
	CacheCap int
	// Now is the virtual timestamp presented to lookups (pick one well
	// before the registered segments expire).
	Now sim.Time
	// Mutate, if non-nil, runs in a dedicated writer goroutine in a loop
	// until the readers finish — e.g. a closure re-registering segments
	// and publishing, to measure reads under snapshot churn. It must not
	// touch registered caches (use only writer-side Service methods).
	Mutate func(i int)
}

// BenchResult is a ReadBench measurement.
type BenchResult struct {
	Readers   int
	Ops       uint64
	Hits      uint64
	Empties   uint64
	Mutations uint64
	Elapsed   time.Duration
	QPS       float64
	P50       time.Duration
	P99       time.Duration
	P999      time.Duration
}

// Print writes the result as one aligned block.
func (r BenchResult) Print(w io.Writer) {
	fmt.Fprintf(w, "readers=%d ops=%d qps=%.0f hit=%.3f empty=%.4f mutations=%d p50=%v p99=%v p999=%v elapsed=%v\n",
		r.Readers, r.Ops, r.QPS, float64(r.Hits)/float64(max(r.Ops, 1)),
		float64(r.Empties)/float64(max(r.Ops, 1)), r.Mutations,
		r.P50, r.P99, r.P999, r.Elapsed.Round(time.Millisecond))
}

// RecoveryBenchResult is a RecoveryBench measurement: wall-clock cost
// of rebuilding a service from a WAL image. Volatile by construction —
// never fold into fingerprints.
type RecoveryBenchResult struct {
	Iters       int
	WALBytes    int
	Records     uint64
	Checkpoints uint64
	// Best/Mean are per-recovery wall times across the iterations.
	Best, Mean time.Duration
	// MBps is throughput at the mean: WAL bytes consumed per second.
	MBps float64
}

// Print writes the result as one aligned block.
func (r RecoveryBenchResult) Print(w io.Writer) {
	fmt.Fprintf(w, "iters=%d wal=%dB records=%d checkpoints=%d best=%v mean=%v replay=%.1fMB/s\n",
		r.Iters, r.WALBytes, r.Records, r.Checkpoints, r.Best, r.Mean, r.MBps)
}

// RecoveryBench measures crash recovery: it repeatedly rebuilds a
// service from the same WAL image (checkpoint load + log replay) and
// reports wall-clock replay cost. The WAL is read-only throughout, so
// iterations are independent.
func RecoveryBench(w *WAL, cfg Config, iters int) RecoveryBenchResult {
	if iters <= 0 {
		iters = 5
	}
	data := w.Bytes()
	res := RecoveryBenchResult{Iters: iters, WALBytes: len(data)}
	var total time.Duration
	for i := 0; i < iters; i++ {
		t0 := time.Now()
		_, st := Recover(data, cfg)
		d := time.Since(t0)
		total += d
		if i == 0 || d < res.Best {
			res.Best = d
		}
		res.Records = st.Records
		res.Checkpoints = st.Checkpoints
	}
	res.Mean = total / time.Duration(iters)
	if res.Mean > 0 {
		res.MBps = float64(len(data)) / res.Mean.Seconds() / (1 << 20)
	}
	return res
}

// ReadBench runs the concurrent wall-clock read benchmark against a
// pre-populated, pre-published service.
func ReadBench(svc *Service, cfg BenchConfig) BenchResult {
	if cfg.Readers <= 0 {
		cfg.Readers = 4
	}
	if cfg.Ops <= 0 {
		cfg.Ops = 100_000
	}
	type readerStats struct {
		hits, empties uint64
		lat           []time.Duration
	}
	stats := make([]readerStats, cfg.Readers)
	var wg sync.WaitGroup
	var stop atomic.Bool
	var mutations uint64
	if cfg.Mutate != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				cfg.Mutate(i)
				mutations++
				time.Sleep(100 * time.Microsecond)
			}
		}()
	}
	start := time.Now()
	var readers sync.WaitGroup
	for g := 0; g < cfg.Readers; g++ {
		g := g
		readers.Add(1)
		go func() {
			defer readers.Done()
			var cache *Cache
			if cfg.CacheTTL > 0 {
				cache = NewLocalCache(cfg.CacheTTL, cfg.CacheCap)
			}
			ranks := metrics.NewZipfRanks(len(cfg.Dests), cfg.ZipfS, cfg.Seed+int64(g)*6151)
			st := &stats[g]
			st.lat = make([]time.Duration, 0, cfg.Ops)
			nsrc := len(cfg.Sources)
			for i := 0; i < cfg.Ops; i++ {
				src := cfg.Sources[i%nsrc]
				rank := ranks.Next()
				dst := cfg.Dests[rank]
				if dst == src {
					dst = cfg.Dests[(rank+1)%len(cfg.Dests)]
				}
				t0 := time.Now()
				var n int
				var hit bool
				if cache != nil {
					r, h := cache.Lookup(cfg.Now, svc, src, dst)
					n, hit = len(r), h
				} else {
					r, _ := svc.Lookup(cfg.Now, src, dst)
					n = len(r)
				}
				st.lat = append(st.lat, time.Since(t0))
				if hit {
					st.hits++
				}
				if n == 0 && dst != src {
					st.empties++
				}
			}
		}()
	}
	readers.Wait()
	elapsed := time.Since(start)
	stop.Store(true)
	wg.Wait()

	res := BenchResult{Readers: cfg.Readers, Elapsed: elapsed, Mutations: mutations}
	var all []time.Duration
	for i := range stats {
		res.Ops += uint64(len(stats[i].lat))
		res.Hits += stats[i].hits
		res.Empties += stats[i].empties
		all = append(all, stats[i].lat...)
	}
	if elapsed > 0 {
		res.QPS = float64(res.Ops) / elapsed.Seconds()
	}
	if len(all) > 0 {
		slices.Sort(all)
		q := func(p float64) time.Duration {
			i := int(p * float64(len(all)-1))
			return all[i]
		}
		res.P50, res.P99, res.P999 = q(0.50), q(0.99), q(0.999)
	}
	return res
}
