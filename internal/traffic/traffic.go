// Package traffic is a flow-level multipath workload engine over the
// simulated SCION fabric. It models what the paper's data-plane evaluation
// measures end to end: many concurrent flows obtain path sets from the
// control plane, stripe chunks across paths under a pluggable multipath
// scheduler, contend for per-link capacity in token buckets, and fail over
// within one RTT when SCMP revocations arrive (paper §4.1, §6.2).
//
// Capacity is fluid — chunks (64 KiB by default) are admitted against the
// token buckets of every link direction on the path — but each chunk also
// sends one small "head packet" through the real dataplane.Fabric, so hop
// field MACs are verified and link failures produce genuine SCMP messages
// carrying the original packet. The SCMP handler rewinds exactly the chunk
// the head packet announced, giving exact loss accounting without
// simulating every wire packet of multi-gigabyte transfers.
package traffic

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"time"

	"scionmpr/internal/addr"
	"scionmpr/internal/dataplane"
	"scionmpr/internal/sim"
	"scionmpr/internal/strategy"
	"scionmpr/internal/telemetry"
	"scionmpr/internal/topology"
)

// PathProvider returns the authorized forwarding paths from src to dst —
// typically scion.Host.Paths or scion.Network.Paths.
type PathProvider func(src, dst addr.IA) ([]*dataplane.FwdPath, error)

// Config wires an Engine to a simulated network.
type Config struct {
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
	// RetryDelayMax caps the backed-off re-query delay (default 2s).
	RetryDelayMax time.Duration
	// MaxRetries bounds consecutive empty re-queries before a flow fails
	// (default 5).
	MaxRetries int
	// Seed drives the re-query jitter (default 1).
	Seed int64
	// Telemetry, if set, receives the engine's counters and the
	// flow-duration histogram (virtual-time observations, deterministic).
	// Trace events (flow retries and failover switches) go to the
	// Clock's tracer when one is attached.
	Telemetry *telemetry.Registry
}

// Re-query spacing when a lookup yields no usable path: the first retry
// waits retryDelay, each further one retryBackoff times longer (capped at
// Config.RetryDelayMax), plus a seeded jitter of up to retryJitter of the
// delay, so flows cut off together do not re-query in lockstep.
const (
	retryDelay   = 50 * time.Millisecond
	retryBackoff = 2
	retryJitter  = 0.2
)

// Engine runs flows over the fabric. Create with NewEngine, Add flows,
// then Run (sized flows) or RunUntil (open-ended workloads).
type Engine struct {
	cfg Config
	// clock and net are the fabric's event loop and transport.
	clock *sim.Simulator
	net   *sim.Network

	flows []*Flow
	byID  map[int]*Flow
	// bySrc groups flows by source AS, whose fabric SourceMemory filters
	// their looked-up paths (path servers may lag behind the data plane);
	// when a revocation there lapses, they re-probe.
	bySrc map[addr.IA][]*Flow
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

// NewEngine validates the config and applies defaults.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.Fabric == nil || cfg.Provider == nil {
		return nil, fmt.Errorf("traffic: Fabric and Provider are required")
	}
	if cfg.Links == nil {
		cfg.Links = NewLinkModel(nil)
	}
	if cfg.Scheduler == nil {
		// Striping by bottleneck is the multipath endpoint -exp capacity
		// measures against single-best (EXPERIMENTS.md, Figure 6b under
		// load).
		cfg.Scheduler = func() strategy.Policy { return &strategy.WeightedBottleneck{} }
	}
	if cfg.ChunkSize <= 0 {
		cfg.ChunkSize = 64 << 10
	}
	if cfg.MaxPaths <= 0 {
		cfg.MaxPaths = 8
	}
	if cfg.RetryDelayMax <= 0 {
		cfg.RetryDelayMax = 2 * time.Second
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 5
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	e := &Engine{
		cfg:   cfg,
		clock: cfg.Fabric.Net.Sim,
		net:   cfg.Fabric.Net,
		byID:  map[int]*Flow{},
		bySrc: map[addr.IA][]*Flow{},
		rng:   rand.New(rand.NewSource(cfg.Seed)),
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
func (e *Engine) trace(kind telemetry.EventKind, f *Flow, aux uint64, reason string) {
	e.clock.Trace(sim.SerialShard, telemetry.Event{
		Kind:    kind,
		Actor:   f.spec.Src.Uint64(),
		Subject: uint64(uint32(f.spec.ID)),
		Aux:     aux,
		Reason:  reason,
	})
}

// Add registers a flow and schedules its arrival.
func (e *Engine) Add(spec FlowSpec) *Flow {
	src := spec.Src
	mem := e.cfg.Fabric.Source(src)
	f := &Flow{spec: spec, sched: e.cfg.Scheduler(), mem: mem, lastPath: -1}
	e.flows = append(e.flows, f)
	e.byID[spec.ID] = f
	if len(e.bySrc[src]) == 0 {
		e.cfg.Fabric.AddSCMP(src, func(msg *dataplane.SCMP) { e.handleSCMP(src, msg) })
		mem.OnLapse(func(topology.LinkID) {
			for _, g := range e.bySrc[src] {
				e.reprobe(g)
			}
		})
	}
	e.bySrc[src] = append(e.bySrc[src], f)
	e.clock.Schedule(spec.Start, func() { e.start(f) })
	return f
}

// Run drives the event loop until it drains and returns the summary. Use
// only with sized flows — open-ended flows never drain the loop.
func (e *Engine) Run() *Summary {
	e.clock.Run()
	return e.Summarize()
}

// RunUntil drives the event loop up to the deadline and returns the
// summary at that instant.
func (e *Engine) RunUntil(d time.Duration) *Summary {
	e.clock.RunUntil(sim.Time(d))
	return e.Summarize()
}

// start performs the flow's initial path lookup.
func (e *Engine) start(f *Flow) {
	f.state = flowActive
	f.started = e.clock.Now()
	e.cStarted.Inc()
	e.requery(f)
}

// requery fetches a fresh path set, filters links the source knows to be
// revoked, and resumes the pump. Counting: a forced mid-transfer switch is
// recorded when data already flowed.
func (e *Engine) requery(f *Flow) {
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
		paths = e.buildPaths(f.mem, fps)
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
	if f.sent > 0 {
		// A mid-transfer re-query is a forced path switch.
		f.switches++
		e.cSwitch.Inc()
		e.trace(telemetry.FlowSwitch, f, uint64(len(paths)), "requery")
	}
	e.adopt(f, paths)
}

// adopt replaces a flow's path set and resumes its pump.
func (e *Engine) adopt(f *Flow, paths []*flowPath) {
	f.retries = 0
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
func (e *Engine) retryDelay(attempt int) time.Duration {
	d := min(float64(retryDelay)*math.Pow(retryBackoff, float64(attempt-1)), float64(e.cfg.RetryDelayMax))
	d += d * retryJitter * e.rng.Float64()
	return time.Duration(d)
}

// reprobe refreshes a flow's path set opportunistically after
// revocation knowledge lapsed: a successful lookup replaces the set, so
// restored paths are readopted mid-flow. Unlike requery, a fruitless
// lookup keeps the current paths and never counts toward the retry
// limit — the flow keeps sending on whatever it has.
func (e *Engine) reprobe(f *Flow) {
	if f.state != flowActive {
		return
	}
	fps, err := e.cfg.Provider(f.spec.Src, f.spec.Dst)
	if err != nil {
		return
	}
	paths := e.buildPaths(f.mem, fps)
	if len(paths) == 0 {
		return
	}
	f.lookups++
	f.reprobes++
	e.Reprobes++
	e.cReprobe.Inc()
	e.trace(telemetry.FlowSwitch, f, uint64(len(paths)), "reprobe")
	e.adopt(f, paths)
}

// noteConnectivity tracks disconnection windows: an outage opens when a
// previously connected flow reaches zero usable paths and closes when
// it regains one. Closed windows are the flow's time-to-reconnect
// samples.
func (e *Engine) noteConnectivity(f *Flow) {
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
// dropping paths that cross links the source memory holds revoked.
func (e *Engine) buildPaths(mem *dataplane.SourceMemory, fps []*dataplane.FwdPath) []*flowPath {
	out := make([]*flowPath, 0, e.cfg.MaxPaths)
	for _, fp := range fps {
		if len(out) >= e.cfg.MaxPaths {
			break
		}
		links, err := fp.LinkRefs(e.net.Topo)
		if err != nil || len(links) == 0 || mem.Crosses(links, 0) {
			continue
		}
		var delay time.Duration
		for _, ref := range links {
			delay += e.net.LinkDelay(ref.Link.ID)
		}
		out = append(out, &flowPath{
			fp:         fp,
			links:      links,
			delay:      delay,
			bottleneck: e.cfg.Links.Bottleneck(links),
		})
	}
	return out
}

// wakeAt schedules a pump step at t, deduping against an earlier or equal
// pending wake-up.
func (e *Engine) wakeAt(f *Flow, t sim.Time) {
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
func (e *Engine) pump(f *Flow) {
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
			wake = now + sim.Time(retryDelay)
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
func (e *Engine) maybeFinish(f *Flow) {
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
		t += sim.Time(p.delay)
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

// headMagic tags traffic head-packet payloads.
const headMagic = 0x54

// encodeHead packs (flowID, chunkBytes) into a head-packet payload.
func encodeHead(id int, granted int64) []byte {
	buf := make([]byte, 9)
	buf[0] = headMagic
	binary.BigEndian.PutUint32(buf[1:5], uint32(id))
	binary.BigEndian.PutUint32(buf[5:9], uint32(granted))
	return buf
}

// decodeHead reverses encodeHead.
func decodeHead(payload []byte) (id int, granted int64, ok bool) {
	if len(payload) != 9 || payload[0] != headMagic {
		return 0, 0, false
	}
	return int(binary.BigEndian.Uint32(payload[1:5])),
		int64(binary.BigEndian.Uint32(payload[5:9])), true
}

// injectHead sends the chunk's head packet through the fabric.
func (e *Engine) injectHead(f *Flow, p *flowPath, granted int64) {
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

// handleSCMP processes control messages arriving at source AS src, after
// the fabric recorded them in the source memory: a revoked-link message
// rewinds exactly the chunk its quoted head packet announced, marks the
// revoked link on every affected flow of this source, and kicks
// re-queries — the sub-RTT failover of paper §4.1.
func (e *Engine) handleSCMP(src addr.IA, msg *dataplane.SCMP) {
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
	link := e.net.Topo.LinkByIf(msg.Link.IA, msg.Link.If)
	// Rewind the lost chunk on the path that carried the head packet.
	for _, p := range f.paths {
		if p.fp == msg.Orig.Path {
			p.revoked = true
			p.sent = max(p.sent-bytes, 0)
			f.sent = max(f.sent-bytes, 0)
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
				if !p.revoked && pathHasLink(p, link.ID) {
					p.revoked, dirty = true, true
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
