package traffic

// The traffic engine as it was before the fabric kept one revocation
// memory per source AS, verbatim but for its type names, the shared
// head-packet helpers and the Run/RunUntil drivers (the test drives the
// clock), its reads of topology and link delay (they go through the
// fabric, which no longer has a sim.Network), its paths' build-time
// delays (kept in delay, since flowPath no longer has the field), and for the path signals no kept policy reads (loss, RTT,
// shared links and revocation recency, with the revocation history that
// fed it), removed from both engines: each engine kept its own
// SCMP-learned revocations, with their TTL and expiry events, and the
// retry knobs were Config fields. TestEngineMatchesReference runs it
// beside Engine on the same flap schedule.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"scionmpr/internal/addr"
	"scionmpr/internal/dataplane"
	"scionmpr/internal/sim"
	"scionmpr/internal/strategy"
	"scionmpr/internal/telemetry"
	"scionmpr/internal/topology"
	"scionmpr/scion"
)

// refConfig wires an refEngine to a simulated network.
type refConfig struct {
	// Fabric forwards head packets and produces SCMP revocations; its
	// network is the engine's clock and link-delay source.
	Fabric *dataplane.Fabric
	// Provider supplies path sets.
	Provider PathProvider
	// Links is the capacity model (NewLinkModel(nil) if unset).
	Links *LinkModel
	// Scheduler builds each flow's scheduler (weighted if unset).
	Scheduler func() strategy.Policy
	// ChunkSize is the fluid admission quantum (default 64 KiB).
	ChunkSize int64
	// MinGrant is the smallest admission the engine accepts from the
	// link model (0 = any). Under path contention partial grants shrink
	// toward single bytes, each carrying a MAC-verified head packet; a
	// floor trades a bounded wait for chunk-sized admissions instead.
	MinGrant int64
	// MaxPaths caps the per-flow path set (default 8).
	MaxPaths int
	// RetryDelay is the base spacing of path re-queries when none are
	// usable (default 50ms).
	RetryDelay time.Duration
	// RetryBackoff multiplies the re-query delay after every consecutive
	// empty lookup (capped exponential backoff, default 2; 1 keeps the
	// delay constant).
	RetryBackoff float64
	// RetryDelayMax caps the backed-off re-query delay (default 2s).
	RetryDelayMax time.Duration
	// RetryJitter adds a seeded random extra delay of up to this
	// fraction of the backed-off delay, de-synchronizing re-queries of
	// flows that lost their paths simultaneously (default 0.2; negative
	// disables jitter).
	RetryJitter float64
	// MaxRetries bounds consecutive empty re-queries before a flow fails
	// (default 5).
	MaxRetries int
	// RevocationTTL bounds how long an SCMP-learned link failure keeps
	// filtering paths at the source (default 10s). When it lapses the
	// engine re-probes affected flows, readopting restored paths
	// mid-flow; if the link is still down the next head packet re-learns
	// the failure within one RTT.
	RevocationTTL time.Duration
	// Seed drives the re-query jitter (default 1).
	Seed int64
	// Telemetry, if set, receives the engine's counters and the
	// flow-duration histogram (virtual-time observations, deterministic).
	// Trace events (flow retries and failover switches) go to the
	// Clock's tracer when one is attached.
	Telemetry *telemetry.Registry
}

// refEngine runs flows over the fabric. Create with NewEngine, Add flows,
// then Run (sized flows) or RunUntil (open-ended workloads).
type refEngine struct {
	cfg refConfig
	// clock is the fabric's event loop, fab the fabric.
	clock *sim.Simulator
	fab   *dataplane.Fabric

	flows []*Flow
	byID  map[int]*Flow
	bySrc map[addr.IA][]*Flow
	// revoked is each source AS's accumulated link-failure knowledge,
	// learned from SCMP messages and used to filter re-queried paths
	// (path servers may lag behind the data plane). Entries map to the
	// expiry of the knowledge: failure state is soft and lapses after
	// RevocationTTL, at which point affected flows re-probe and readopt
	// restored paths.
	revoked map[addr.IA]map[topology.LinkID]sim.Time
	hooked  map[addr.IA]bool
	delay   map[*flowPath]time.Duration
	// rng drives re-query jitter; the event loop is single-threaded, so
	// a seeded source keeps runs reproducible.
	rng *rand.Rand

	// OnRevocation, if set, observes every SCMP revocation the engine
	// attributes to one of its flows.
	OnRevocation func(f *Flow, link topology.LinkID)

	// Revocations counts SCMP revoked-link messages processed; Requeries
	// counts path re-queries; Reprobes counts opportunistic re-lookups
	// after revocation state expired.
	Revocations uint64
	Requeries   uint64
	Reprobes    uint64

	// Telemetry cells and the flow-duration histogram (nil no-ops). The
	// engine is serial, so everything lives on the serial shard.
	cStarted, cCompleted, cFailed         *telemetry.Cell
	cRequery, cReprobe, cSwitch, cRevoked *telemetry.Cell
	hDuration                             *telemetry.HistCell
}

// newRefEngine validates the config and applies defaults.
func newRefEngine(cfg refConfig) (*refEngine, error) {
	if cfg.Fabric == nil || cfg.Provider == nil {
		return nil, fmt.Errorf("traffic: Fabric and Provider are required")
	}
	if cfg.Links == nil {
		cfg.Links = NewLinkModel(nil)
	}
	if cfg.Scheduler == nil {
		// Default confirmed by the strategy tournament (-exp tournament,
		// EXPERIMENTS.md): weighted wins or ties every grid cell on
		// goodput.
		cfg.Scheduler = func() strategy.Policy { return &strategy.WeightedBottleneck{} }
	}
	if cfg.ChunkSize <= 0 {
		cfg.ChunkSize = 64 << 10
	}
	if cfg.MaxPaths <= 0 {
		cfg.MaxPaths = 8
	}
	if cfg.RetryDelay <= 0 {
		cfg.RetryDelay = 50 * time.Millisecond
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 2
	}
	if cfg.RetryDelayMax <= 0 {
		cfg.RetryDelayMax = 2 * time.Second
	}
	if cfg.RetryJitter == 0 {
		cfg.RetryJitter = 0.2
	} else if cfg.RetryJitter < 0 {
		cfg.RetryJitter = 0
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 5
	}
	if cfg.RevocationTTL <= 0 {
		cfg.RevocationTTL = 10 * time.Second
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	e := &refEngine{
		cfg:     cfg,
		clock:   cfg.Fabric.Clock(),
		fab:     cfg.Fabric,
		byID:    map[int]*Flow{},
		bySrc:   map[addr.IA][]*Flow{},
		revoked: map[addr.IA]map[topology.LinkID]sim.Time{},
		hooked:  map[addr.IA]bool{},
		delay:   map[*flowPath]time.Duration{},
		rng:     rand.New(rand.NewSource(cfg.Seed)),
	}
	if reg := cfg.Telemetry; reg != nil {
		e.cStarted = reg.Counter("traffic_flows_started_total").Cell(0)
		e.cCompleted = reg.Counter("traffic_flows_completed_total").Cell(0)
		e.cFailed = reg.Counter("traffic_flows_failed_total").Cell(0)
		e.cRequery = reg.Counter("traffic_requeries_total").Cell(0)
		e.cReprobe = reg.Counter("traffic_reprobes_total").Cell(0)
		e.cSwitch = reg.Counter("traffic_path_switches_total").Cell(0)
		e.cRevoked = reg.Counter("traffic_revocations_total").Cell(0)
		// Completed-flow duration in virtual seconds: 1ms .. ~17min.
		e.hDuration = reg.Histogram("traffic_flow_duration_seconds",
			telemetry.ExpBuckets(0.001, 4, 10)).Cell(0)
	}
	return e, nil
}

// trace emits a flow lifecycle event via the clock's tracer (serial
// context; no-op when no tracer is attached).
func (e *refEngine) trace(kind telemetry.EventKind, f *Flow, aux uint64, reason string) {
	e.clock.Trace(sim.SerialShard, telemetry.Event{
		Kind:    kind,
		Actor:   f.spec.Src.Uint64(),
		Subject: uint64(uint32(f.spec.ID)),
		Aux:     aux,
		Reason:  reason,
	})
}

// Add registers a flow and schedules its arrival.
func (e *refEngine) Add(spec FlowSpec) *Flow {
	f := &Flow{spec: spec, sched: e.cfg.Scheduler(), lastPath: -1}
	e.flows = append(e.flows, f)
	e.byID[spec.ID] = f
	e.bySrc[spec.Src] = append(e.bySrc[spec.Src], f)
	if !e.hooked[spec.Src] {
		e.hooked[spec.Src] = true
		src := spec.Src
		e.cfg.Fabric.AddSCMP(src, func(msg *dataplane.SCMP) { e.handleSCMP(src, msg) })
	}
	e.clock.Schedule(spec.Start, func() { e.start(f) })
	return f
}

// start performs the flow's initial path lookup.
func (e *refEngine) start(f *Flow) {
	f.state = flowActive
	f.started = e.clock.Now()
	e.cStarted.Inc()
	e.requery(f)
}

// requery fetches a fresh path set, filters links the source knows to be
// revoked, and resumes the pump. Counting: a forced mid-transfer switch is
// recorded when data already flowed.
func (e *refEngine) requery(f *Flow) {
	if f.state != flowActive {
		return
	}
	f.lookups++
	if f.lookups > 1 {
		// The initial lookup is not a re-query.
		f.requeries++
		e.Requeries++
		e.cRequery.Inc()
	}
	fps, err := e.cfg.Provider(f.spec.Src, f.spec.Dst)
	var paths []*flowPath
	if err == nil {
		paths = e.buildPaths(f.spec.Src, fps)
	}
	if len(paths) == 0 {
		f.retries++
		e.noteConnectivity(f)
		if f.retries >= e.cfg.MaxRetries {
			f.state = flowFailed
			f.finished = e.clock.Now()
			e.cFailed.Inc()
			e.trace(telemetry.FlowRetry, f, uint64(f.retries), "exhausted")
			return
		}
		e.trace(telemetry.FlowRetry, f, uint64(f.retries), "empty")
		e.clock.Schedule(e.retryDelay(f.retries), func() { e.requery(f) })
		return
	}
	f.retries = 0
	if f.sent > 0 {
		// A mid-transfer re-query is a forced path switch.
		f.switches++
		e.cSwitch.Inc()
		e.trace(telemetry.FlowSwitch, f, uint64(len(paths)), "requery")
	}
	f.paths = paths
	f.infos = f.infos[:0]
	f.lastPath = -1
	e.noteConnectivity(f)
	e.wakeAt(f, e.clock.Now())
}

// retryDelay computes the spacing before the attempt-th consecutive
// empty re-query: capped exponential backoff plus seeded jitter, so a
// flow with zero healthy paths does not hot-loop the path server and
// flows cut off together do not re-query in lockstep.
func (e *refEngine) retryDelay(attempt int) time.Duration {
	d := float64(e.cfg.RetryDelay) * math.Pow(e.cfg.RetryBackoff, float64(attempt-1))
	if max := float64(e.cfg.RetryDelayMax); d > max {
		d = max
	}
	if e.cfg.RetryJitter > 0 {
		d += d * e.cfg.RetryJitter * e.rng.Float64()
	}
	return time.Duration(d)
}

// reprobe refreshes a flow's path set opportunistically after
// revocation knowledge lapsed: a successful lookup replaces the set, so
// restored paths are readopted mid-flow. Unlike requery, a fruitless
// lookup keeps the current paths and never counts toward the retry
// limit — the flow keeps sending on whatever it has.
func (e *refEngine) reprobe(f *Flow) {
	if f.state != flowActive {
		return
	}
	fps, err := e.cfg.Provider(f.spec.Src, f.spec.Dst)
	if err != nil {
		return
	}
	paths := e.buildPaths(f.spec.Src, fps)
	if len(paths) == 0 {
		return
	}
	f.lookups++
	f.reprobes++
	e.Reprobes++
	e.cReprobe.Inc()
	f.retries = 0
	f.paths = paths
	f.infos = f.infos[:0]
	f.lastPath = -1
	e.noteConnectivity(f)
	e.wakeAt(f, e.clock.Now())
}

// noteConnectivity tracks disconnection windows: an outage opens when a
// previously connected flow reaches zero usable paths and closes when
// it regains one. Closed windows are the flow's time-to-reconnect
// samples.
func (e *refEngine) noteConnectivity(f *Flow) {
	now := e.clock.Now()
	if f.usablePaths() > 0 {
		if f.inOutage {
			f.inOutage = false
			f.outages = append(f.outages, time.Duration(now-f.outageStart))
		}
		f.everConnected = true
		return
	}
	if f.everConnected && !f.inOutage {
		f.inOutage = true
		f.outageStart = now
	}
}

// buildPaths resolves forwarding paths against topology and capacity,
// dropping paths that cross links src knows to be revoked.
func (e *refEngine) buildPaths(src addr.IA, fps []*dataplane.FwdPath) []*flowPath {
	known := e.revoked[src]
	out := make([]*flowPath, 0, e.cfg.MaxPaths)
	for _, fp := range fps {
		if len(out) >= e.cfg.MaxPaths {
			break
		}
		links, err := fp.LinkRefs(e.fab.Topo())
		if err != nil || len(links) == 0 {
			continue
		}
		bad := false
		var delay time.Duration
		for _, ref := range links {
			if _, revoked := known[ref.Link.ID]; revoked {
				bad = true
				break
			}
			delay += e.fab.Latency(ref.Link.ID)
		}
		if bad {
			continue
		}
		out = append(out, &flowPath{
			fp:         fp,
			links:      links,
			bottleneck: e.cfg.Links.Bottleneck(links),
		})
		e.delay[out[len(out)-1]] = delay
	}
	return out
}

// wakeAt schedules a pump step at t, deduping against an earlier or equal
// pending wake-up.
func (e *refEngine) wakeAt(f *Flow, t sim.Time) {
	now := e.clock.Now()
	if t < now {
		t = now
	}
	if f.wakePending && f.wakeAt <= t {
		return
	}
	f.wakePending = true
	f.wakeAt = t
	at := t
	e.clock.At(t, func() {
		if f.wakePending && f.wakeAt == at {
			f.wakePending = false
		}
		e.pump(f)
	})
}

// pump is the per-flow transmission loop body: one scheduler decision and
// at most one admitted chunk per invocation, then self-rescheduling.
func (e *refEngine) pump(f *Flow) {
	if f.state != flowActive {
		return
	}
	now := e.clock.Now()
	rem := f.remaining(e.cfg.ChunkSize)
	if rem == 0 {
		e.maybeFinish(f)
		return
	}
	if f.usablePaths() == 0 {
		e.requery(f)
		return
	}
	f.infos = f.infos[:0]
	for _, p := range f.paths {
		f.infos = append(f.infos, strategy.PathView{
			Hops:       len(p.fp.Hops),
			Delay:      e.delay[p],
			Bottleneck: p.bottleneck,
			Busy:       p.busyUntil > now,
			Revoked:    p.revoked,
		})
	}
	idx := f.sched.Pick(f.infos)
	if idx < 0 || idx >= len(f.paths) || f.paths[idx].revoked {
		// Wait for the earliest busy usable path to drain.
		wake := sim.Time(-1)
		for _, p := range f.paths {
			if p.revoked || p.busyUntil <= now {
				continue
			}
			if wake < 0 || p.busyUntil < wake {
				wake = p.busyUntil
			}
		}
		if wake < 0 {
			wake = now + sim.Time(e.cfg.RetryDelay)
		}
		e.wakeAt(f, wake)
		return
	}
	p := f.paths[idx]
	want := rem
	if want > e.cfg.ChunkSize {
		want = e.cfg.ChunkSize
	}
	granted, wait := e.cfg.Links.AdmitAtLeast(now, p.links, want, e.cfg.MinGrant)
	if granted == 0 {
		e.wakeAt(f, now+sim.Time(wait))
		return
	}
	p.sent += granted
	f.sent += granted
	tx := time.Duration(float64(granted) / p.bottleneck * float64(time.Second))
	if tx < time.Microsecond {
		tx = time.Microsecond
	}
	p.busyUntil = now + sim.Time(tx)
	if f.lastPath >= 0 && f.lastPath != idx {
		f.switches++
		e.cSwitch.Inc()
		if f.paths[f.lastPath].revoked {
			// Only failovers away from a revoked path are traced; the
			// scheduler's routine striping alternation would flood the ring.
			e.trace(telemetry.FlowSwitch, f, uint64(idx), "failover")
		}
	}
	f.lastPath = idx
	// The head packet may fail synchronously at the source border router,
	// rewinding this very chunk — check completion only afterwards.
	e.injectHead(f, p, granted)
	if f.spec.Size > 0 && f.sent >= f.spec.Size {
		e.maybeFinish(f)
		return
	}
	e.wakeAt(f, now)
}

// maybeFinish schedules the completion check for when all in-flight data
// has drained (serialization plus propagation); an SCMP rewind in the
// meantime reopens the flow instead.
func (e *refEngine) maybeFinish(f *Flow) {
	if f.state != flowActive || f.spec.Size <= 0 || f.sent < f.spec.Size {
		return
	}
	now := e.clock.Now()
	fin := now
	for _, p := range f.paths {
		t := p.busyUntil
		if t < now {
			t = now
		}
		t += sim.Time(e.delay[p])
		if p.sent > 0 && t > fin {
			fin = t
		}
	}
	e.clock.At(fin, func() {
		if f.state != flowActive {
			return
		}
		if f.sent >= f.spec.Size {
			f.state = flowDone
			f.finished = e.clock.Now()
			e.cCompleted.Inc()
			e.hDuration.Observe(time.Duration(f.finished - f.started).Seconds())
			return
		}
		e.pump(f)
	})
}

// injectHead sends the chunk's head packet through the fabric.
func (e *refEngine) injectHead(f *Flow, p *flowPath, granted int64) {
	pkt := &dataplane.Packet{
		Src:     addr.FlowHost(f.spec.Src, f.spec.ID),
		Dst:     addr.FlowHost(f.spec.Dst, f.spec.ID),
		Path:    p.fp,
		Payload: encodeHead(f.spec.ID, granted),
		// Flow identity on the wire (20-bit field), so traffic traces
		// can be replayed through the wire-format engine byte-for-byte.
		FlowID: uint32(f.spec.ID) & 0xfffff,
	}
	// Inject errors (and synchronous source-local SCMP) are reflected in
	// fabric counters and flow state; the pump carries on either way.
	_ = e.cfg.Fabric.Inject(pkt)
}

// handleSCMP processes control messages arriving at source AS src: a
// revoked-link message rewinds exactly the chunk its quoted head packet
// announced, marks the revoked link on every affected flow of this
// source, and kicks re-queries — the sub-RTT failover of paper §4.1.
func (e *refEngine) handleSCMP(src addr.IA, msg *dataplane.SCMP) {
	if msg.Type != dataplane.SCMPRevokedLink || msg.Orig == nil {
		return
	}
	id, bytes, ok := decodeHead(msg.Orig.Payload)
	if !ok {
		return
	}
	f := e.byID[id]
	if f == nil || f.spec.Src != src {
		return
	}
	e.Revocations++
	e.cRevoked.Inc()
	link := e.fab.Topo().LinkByIf(msg.Link.IA, msg.Link.If)
	if link != nil {
		known := e.revoked[src]
		if known == nil {
			known = map[topology.LinkID]sim.Time{}
			e.revoked[src] = known
		}
		// Failure knowledge is soft state: it expires after
		// RevocationTTL (each fresh SCMP refreshes it), and on expiry
		// the source re-probes so healed paths come back into use.
		exp := e.clock.Now() + sim.Time(e.cfg.RevocationTTL)
		known[link.ID] = exp
		id := link.ID
		e.clock.At(exp, func() { e.expireRevocation(src, id, exp) })
	}
	// Rewind the lost chunk on the path that carried the head packet.
	for _, p := range f.paths {
		if p.fp == msg.Orig.Path {
			p.revoked = true
			p.sent -= bytes
			if p.sent < 0 {
				p.sent = 0
			}
			f.sent -= bytes
			if f.sent < 0 {
				f.sent = 0
			}
			f.lost += bytes
			break
		}
	}
	// Share the link knowledge with every flow of this source AS: their
	// endpoint stack sees the same SCMP stream.
	if link != nil {
		if e.OnRevocation != nil {
			e.OnRevocation(f, link.ID)
		}
		for _, g := range e.bySrc[src] {
			if g.state != flowActive {
				continue
			}
			dirty := false
			for _, p := range g.paths {
				if p.revoked {
					continue
				}
				for _, ref := range p.links {
					if ref.Link.ID == link.ID {
						p.revoked = true
						dirty = true
						break
					}
				}
			}
			if dirty || g == f {
				e.noteConnectivity(g)
				e.wakeAt(g, e.clock.Now())
			}
		}
		return
	}
	e.noteConnectivity(f)
	e.wakeAt(f, e.clock.Now())
}

// expireRevocation lapses one piece of link-failure knowledge at src,
// unless a fresher SCMP refreshed it meanwhile, and re-probes the
// source's active flows so reinstated paths are readopted.
func (e *refEngine) expireRevocation(src addr.IA, id topology.LinkID, exp sim.Time) {
	known := e.revoked[src]
	if known == nil || known[id] != exp {
		return
	}
	delete(known, id)
	for _, f := range e.bySrc[src] {
		if f.state == flowActive {
			e.reprobe(f)
		}
	}
}

// flapWindow takes one link down at down and back up at up.
type flapWindow struct {
	link     int // index into the topology's link slice
	down, up time.Duration
}

// seededFlaps draws non-overlapping down windows per link of the demo
// topology over [0, end).
func seededFlaps(seed int64, links int, end time.Duration) []flapWindow {
	rng := rand.New(rand.NewSource(seed))
	var out []flapWindow
	for i := 0; i < links; i++ {
		at := time.Duration(rng.Int63n(int64(end / 2)))
		for at < end {
			down := 20*time.Millisecond + time.Duration(rng.Int63n(int64(300*time.Millisecond)))
			out = append(out, flapWindow{link: i, down: at, up: at + down})
			at += down + 100*time.Millisecond + time.Duration(rng.Int63n(int64(end/2)))
		}
	}
	return out
}

// flowOutcome is what TestEngineMatchesReference compares per flow.
type flowOutcome struct {
	Sent, Lost   int64
	Switches     int
	Outages      []time.Duration
	Done, Failed bool
}

func outcomeOf(f *Flow) flowOutcome {
	return flowOutcome{f.Sent(), f.Lost(), f.PathSwitches(), f.Outages(), f.Done(), f.Failed()}
}

// TestEngineMatchesReference runs the engine and the verbatim
// pre-memory engine, each in its own demo network, through one seeded
// flap schedule: flows of a shared source and of sources of their own,
// sized and open-ended, with revocations lapsing and flows re-probing.
// Every per-flow observable, the engine counters and the number of
// simulator events must agree.
func TestEngineMatchesReference(t *testing.T) {
	const (
		ttl = 150 * time.Millisecond
		end = 2 * time.Second
	)
	specs := []FlowSpec{
		{ID: 1, Src: b3, Dst: a6, Size: 0},
		{ID: 2, Src: b3, Dst: a1, Start: 5 * time.Millisecond, Size: 4 << 20},
		{ID: 3, Src: b3, Dst: a4, Start: 400 * time.Millisecond, Size: 0},
		{ID: 4, Src: a6, Dst: a4, Start: 2 * time.Millisecond, Size: 0},
		{ID: 5, Src: a1, Dst: b3, Start: 10 * time.Millisecond, Size: 8 << 20},
		{ID: 6, Src: a4, Dst: b3, Start: time.Second, Size: 0},
	}
	for _, seed := range []int64{1, 2, 3} {
		network := func() *scion.Network {
			opts := scion.DefaultOptions()
			opts.RevocationTTL = ttl
			n, err := scion.NewNetwork(topology.Demo(), opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range seededFlaps(seed, len(n.Topo.Links), end) {
				l := n.Topo.Links[w.link]
				n.Clock().Schedule(w.down, func() { toggleLink(t, n, l, false) })
				n.Clock().Schedule(w.up, func() { toggleLink(t, n, l, true) })
			}
			return n
		}
		links := func() *LinkModel { return NewLinkModel(UniformCapacity(1e7)) }
		const minGrant = 16 << 10

		n := network()
		eng, err := NewEngine(Config{Fabric: n.Fabric(), Provider: n.Paths, Links: links(),
			MinGrant: minGrant, MaxRetries: 8, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		rn := network()
		ref, err := newRefEngine(refConfig{Fabric: rn.Fabric(), Provider: rn.Paths, Links: links(),
			MinGrant: minGrant, MaxRetries: 8, RevocationTTL: ttl, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		var flows, refFlows []*Flow
		for _, s := range specs {
			flows = append(flows, eng.Add(s))
			refFlows = append(refFlows, ref.Add(s))
		}
		n.Clock().RunUntil(sim.Time(end))
		rn.Clock().RunUntil(sim.Time(end))

		for i := range flows {
			got, want := outcomeOf(flows[i]), outcomeOf(refFlows[i])
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("seed %d flow %d: got %+v, want %+v", seed, specs[i].ID, got, want)
			}
		}
		got := [3]uint64{eng.Revocations, eng.Requeries, eng.Reprobes}
		want := [3]uint64{ref.Revocations, ref.Requeries, ref.Reprobes}
		if got != want {
			t.Errorf("seed %d: revocations/requeries/reprobes = %v, want %v", seed, got, want)
		}
		if want[0] == 0 || want[2] == 0 {
			t.Errorf("seed %d: schedule exercised no revocation or no lapse (%v)", seed, want)
		}
		if g, w := n.Clock().Executed, rn.Clock().Executed; g != w {
			t.Errorf("seed %d: executed %d events, want %d", seed, g, w)
		}
	}
}
