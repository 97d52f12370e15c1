package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
	"time"

	"scionmpr/internal/beacon"
	"scionmpr/internal/chaos"
	"scionmpr/internal/core"
	"scionmpr/internal/metrics"
	"scionmpr/internal/pathsrv"
	"scionmpr/internal/sim"
	"scionmpr/internal/telemetry"
	"scionmpr/internal/topology"
)

// Serve timeline (compressed virtual time, same convention as the churn
// experiment): beaconing from t=0, the registration feed and snapshot
// publisher come up once stores have content, clients start at
// serveClientStart, and a flap storm covers the middle of the client
// window so revocation-aware invalidation is measured under load.
const (
	serveBeaconInterval   = 1 * time.Second
	serveRegisterStart    = 1200 * time.Millisecond
	serveRegisterInterval = 1 * time.Second
	servePublishStart     = 1500 * time.Millisecond
	servePublishInterval  = 250 * time.Millisecond
	serveClientStart      = 2 * time.Second
	serveFlapDown         = 1 * time.Second
	serveFlapPeriod       = 3 * time.Second
)

// ServeConfig parameterizes the serving-layer experiment on top of a
// Scale (which provides topology and beaconing parameters).
type ServeConfig struct {
	// Endpoints is the closed-loop client population size.
	Endpoints int
	// Actors is the simulator-shard count the endpoints multiplex onto.
	Actors int
	// Shards is the service's destination shard count.
	Shards int
	// ZipfS skews destination popularity.
	ZipfS float64
	// MeanThink/MinThink shape the think-time distribution.
	MeanThink, MinThink time.Duration
	// Tick is the client scheduling quantum.
	Tick time.Duration
	// Duration is the total virtual run length (clients run from
	// serveClientStart to Duration).
	Duration time.Duration
	// CacheTTL/CacheCap configure the per-actor reply caches.
	CacheTTL time.Duration
	CacheCap int
	// RevTTL is the serving layer's revocation TTL.
	RevTTL time.Duration
}

// DefaultServeConfig is the CI-friendly setup: a hundred thousand
// endpoints for ten virtual seconds. `go run ./cmd/scionmpr pathserve`
// raises Endpoints to the paper-motivated million.
func DefaultServeConfig() ServeConfig {
	return ServeConfig{
		Endpoints: 100_000,
		Actors:    64,
		Shards:    16,
		ZipfS:     1.2,
		MeanThink: 250 * time.Millisecond,
		MinThink:  10 * time.Millisecond,
		Tick:      10 * time.Millisecond,
		Duration:  10 * time.Second,
		CacheTTL:  2 * time.Second,
		CacheCap:  4096,
		RevTTL:    1500 * time.Millisecond,
	}
}

// ServeResult is one serving-layer run: closed-loop load totals, the
// modeled latency profile, cache behavior, and the control-plane
// counters underneath.
type ServeResult struct {
	Scale  Scale
	Config ServeConfig

	Totals pathsrv.PoolTotals
	// VirtualQPS is lookups per virtual second of the client window —
	// deterministic, unlike wall-clock rates.
	VirtualQPS float64
	// P50/P99/P999 are modeled lookup costs in nanoseconds from the
	// deterministic cost histogram.
	P50, P99, P999 float64
	HitRate        float64
	Imbalance      float64

	Epoch                                      uint64
	Registrations, Refreshes, Publishes        uint64
	Revocations, Reinstatements, Invalidations uint64
	FlapInjections                             uint64
	Executed                                   uint64

	// Snapshot is the deterministic telemetry snapshot; TraceJSONL the
	// structured event log. Both are part of the fingerprint.
	Snapshot   string
	TraceJSONL string
	Digest     [sha256.Size]byte

	// Elapsed is wall-clock and therefore volatile: excluded from the
	// fingerprint.
	Elapsed time.Duration
}

// Fingerprint digests every deterministic observable of the run; equal
// scales, configs and seeds must produce equal fingerprints for every
// worker count.
func (r *ServeResult) Fingerprint() [sha256.Size]byte {
	h := sha256.New()
	h.Write(r.Digest[:])
	h.Write([]byte(r.Snapshot))
	h.Write([]byte(r.TraceJSONL))
	var b [8]byte
	w64 := func(v uint64) {
		binary.BigEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	w64(r.Totals.Lookups)
	w64(r.Totals.Hits)
	w64(r.Totals.Empties)
	w64(r.Totals.CacheEvictions)
	w64(r.Totals.CacheInvalidations)
	for _, v := range r.Totals.PerShard {
		w64(v)
	}
	w64(r.Epoch)
	w64(r.Registrations)
	w64(r.Publishes)
	w64(r.Revocations)
	w64(r.Reinstatements)
	w64(r.Invalidations)
	w64(r.FlapInjections)
	w64(r.Executed)
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// RunServe runs the serving-layer experiment: live beaconing feeds the
// path service through a batching registration pipeline, a publisher
// swaps epoch snapshots every interval, a chaos storm flaps core links
// mid-run (revoking and reinstating served paths), and the closed-loop
// client population drives lookups throughout.
func RunServe(s Scale, sc ServeConfig) (*ServeResult, error) {
	if sc.Endpoints <= 0 || sc.Duration <= 0 {
		return nil, fmt.Errorf("experiments: serve needs endpoints and a duration")
	}
	if sim.Time(sc.Duration) <= sim.Time(serveClientStart) {
		return nil, fmt.Errorf("experiments: serve duration %v must exceed the client start %v",
			sc.Duration, serveClientStart)
	}
	e, err := newEnv(s)
	if err != nil {
		return nil, err
	}

	reg := s.Telemetry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	tracer := s.Tracer
	if tracer == nil {
		tracer = telemetry.NewTracer(1 << 16)
	}
	end := sim.Time(sc.Duration)
	plane, err := e.livePlane(core.NewDiversity(core.DefaultParams(s.DissemLimit)),
		serveBeaconInterval, end, reg, tracer)
	if err != nil {
		return nil, err
	}
	clock, ias := plane.Sim, e.core.IAs()

	svc := pathsrv.New(pathsrv.Config{
		Shards:        sc.Shards,
		RevocationTTL: sim.Time(sc.RevTTL),
		Clock:         clock,
		Telemetry:     reg,
	})
	registerFeed(plane, svc)
	// Publisher: batch registrations into epoch snapshot swaps.
	clock.Every(servePublishStart, servePublishInterval, end, func(now sim.Time) {
		svc.Publish(now)
	})

	// Chaos storm across the middle of the client window. Beacon servers
	// learn of failures instantly (as in the churn experiment); the
	// serving layer revokes and reinstates through WireChaos.
	flaps := serveStorm(e, end)
	eng := plane.NewChaos()
	pathsrv.WireChaos(clock, eng, e.core, svc, sim.Time(sc.RevTTL))
	if err := eng.Apply(flaps); err != nil {
		return nil, err
	}

	// The closed-loop clients: the core ASes query each other from
	// serveClientStart to the end of the run.
	pool, err := pathsrv.NewPool(clock, svc, reg, pathsrv.ClientConfig{
		Endpoints: sc.Endpoints,
		Actors:    sc.Actors,
		Sources:   ias,
		Dests:     ias,
		ZipfS:     sc.ZipfS,
		MeanThink: sc.MeanThink,
		MinThink:  sc.MinThink,
		Tick:      sc.Tick,
		Start:     sim.Time(serveClientStart),
		End:       end,
		Seed:      s.Seed,
		CacheTTL:  sim.Time(sc.CacheTTL),
		CacheCap:  sc.CacheCap,
	})
	if err != nil {
		return nil, err
	}

	wall := time.Now()
	clock.Run()
	elapsed := time.Since(wall)
	reg.VolatileGauge("serve_wall_seconds").Set(elapsed.Seconds())

	res := &ServeResult{
		Scale:          s,
		Config:         sc,
		Totals:         pool.Totals(),
		Epoch:          svc.Epoch(),
		Registrations:  svc.Registrations,
		Refreshes:      svc.Refreshes,
		Publishes:      svc.Publishes,
		Revocations:    svc.Revocations,
		Reinstatements: svc.Reinstatements,
		Invalidations:  svc.Invalidations,
		FlapInjections: eng.Injections[chaos.Flap],
		Executed:       clock.Executed,
		Digest:         svc.Digest(),
		Elapsed:        elapsed,
	}
	loadSeconds := (time.Duration(end) - serveClientStart).Seconds()
	res.VirtualQPS = float64(res.Totals.Lookups) / loadSeconds
	res.HitRate = res.Totals.HitRate()
	res.Imbalance = res.Totals.Imbalance()
	// The modeled lookup-cost quantiles, in nanoseconds.
	h := reg.Histogram("pathsrv_lookup_cost_ns", nil)
	res.P50, res.P99, res.P999 = h.Quantile(0.50), h.Quantile(0.99), h.Quantile(0.999)
	var snap, tr strings.Builder
	if err := reg.WriteSnapshot(&snap); err != nil {
		return nil, err
	}
	if err := tracer.WriteJSONL(&tr); err != nil {
		return nil, err
	}
	res.Snapshot, res.TraceJSONL = snap.String(), tr.String()
	return res, nil
}

// registerFeed schedules the serve experiment's registration feed: every
// interval, sweep the beacon stores and register every live PCB under its
// (origin, leaf) pair. Re-seen paths are cheap refreshes; genuinely new
// ones dirty their shard.
func registerFeed(plane *beacon.Plane, svc *pathsrv.Service) {
	ias := plane.Cfg.Topo.IAs()
	end := sim.Time(plane.Cfg.Duration)
	plane.Sim.Every(serveRegisterStart, serveRegisterInterval, end, func(now sim.Time) {
		for _, ia := range ias {
			st := plane.Servers[ia].Store()
			for _, origin := range st.Origins() {
				for _, p := range st.PCBs(now, origin) {
					if p.Leaf() != origin {
						// Errors mean expired-in-flight segments; the
						// service counts them and they are safe to skip.
						_ = svc.Register(now, p)
					}
				}
			}
		}
	})
}

// serveStorm is the serve experiment's flap storm: a quarter of the core
// links (at least two) flap across the middle fifth of the client window,
// [2/5, 4/5).
func serveStorm(e *env, end sim.Time) *chaos.Schedule {
	clients := sim.Time(serveClientStart)
	start := clients + (end-clients)*2/5
	stop := clients + (end-clients)*4/5
	var cands []topology.LinkID
	for _, l := range e.core.Links {
		cands = append(cands, l.ID)
	}
	return chaos.FlapChurn(e.scale.Seed, cands, stormSize(len(cands), 4, 2), start, stop,
		serveFlapDown, serveFlapPeriod)
}

// Print renders the run deterministically (wall-clock values are marked
// volatile and kept out of comparisons).
func (r *ServeResult) Print(w io.Writer) {
	fmt.Fprintf(w, "== Path-lookup serving layer under closed-loop load (§4.1 at scale) ==\n")
	fmt.Fprintf(w, "%d endpoints on %d actors, Zipf s=%.2f over %d dests; think %v (min %v)\n",
		r.Config.Endpoints, r.Config.Actors, r.Config.ZipfS, r.destCount(),
		r.Config.MeanThink, r.Config.MinThink)
	fmt.Fprintf(w, "service: %d shards, publish every %v, cache TTL %v, revocation TTL %v\n",
		len(r.Totals.PerShard), servePublishInterval, r.Config.CacheTTL, r.Config.RevTTL)
	fmt.Fprintf(w, "clients [%v, %v] of %v; %d link flaps mid-run\n\n",
		serveClientStart, r.Config.Duration, r.Config.Duration, r.FlapInjections)
	tbl := metrics.Table{
		Header: []string{"metric", "value"},
		Rows: [][]string{
			{"lookups", fmt.Sprintf("%d", r.Totals.Lookups)},
			{"virtual QPS", fmt.Sprintf("%.0f", r.VirtualQPS)},
			{"cache hit rate", fmt.Sprintf("%.4f", r.HitRate)},
			{"empty replies", fmt.Sprintf("%d", r.Totals.Empties)},
			{"lookup cost p50", fmtNanos(r.P50)},
			{"lookup cost p99", fmtNanos(r.P99)},
			{"lookup cost p999", fmtNanos(r.P999)},
			{"shard imbalance", fmt.Sprintf("%.3f", r.Imbalance)},
			{"epochs published", fmt.Sprintf("%d", r.Epoch)},
			{"segments registered", fmt.Sprintf("%d (+%d refreshes)", r.Registrations, r.Refreshes)},
			{"revocations", fmt.Sprintf("%d (%d reinstated)", r.Revocations, r.Reinstatements)},
			{"cache invalidations", fmt.Sprintf("%d", r.Invalidations)},
		},
	}
	tbl.Fprint(w)
	fmt.Fprintf(w, "\nepoch snapshots keep lookups lock-free through %d publications and a\nflap storm: revocation-aware invalidation evicts only the affected\npairs, so the hit rate survives the churn.\n", r.Epoch)
}

// destCount recovers the destination count (the pool uses the core IAs).
func (r *ServeResult) destCount() int {
	return r.Scale.CoreSize
}

// fmtNanos prints a nanosecond quantity with stable precision.
func fmtNanos(ns float64) string {
	return fmt.Sprintf("%.0fns", ns)
}
