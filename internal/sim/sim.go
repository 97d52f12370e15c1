// Package sim is a deterministic discrete-event simulator, the stand-in
// for the paper's ns-3-based beaconing simulator. It provides a virtual
// clock with a bucketed event queue, message delivery across topology
// links with configurable latency, and per-interface byte and message
// counters — the exact observables the paper's overhead evaluation
// needs (§5.1, §5.2: "we observe the amount of PCB traffic sent on each
// inter-domain interface").
//
// # Parallel deterministic execution
//
// The simulator can execute events sharing a virtual timestamp in
// parallel while producing output byte-identical to a sequential run.
// Events carry an optional shard: a small integer identifying the actor
// (in practice one AS's control-plane process) whose private state the
// event touches. Same-timestamp events are batched, partitioned by
// shard, and run on a worker pool; shard 0 events are serial barriers
// that split a batch into independently parallelizable segments.
//
// Determinism rests on two rules enforced by this package:
//
//  1. A sharded event may mutate only its own shard's state directly.
//     Cross-shard side effects — scheduling new events, transmitting
//     messages — are deferred into a per-event effect list and replayed
//     after the segment in queue order, exactly the order a sequential
//     run would have produced them in. Queue order (FIFO per timestamp),
//     transmit counters, and the gray-loss decision count (which keys
//     each decision's coin) therefore come out identical for any worker
//     count. Receive counters are the one exception: each belongs to the
//     receiving AS's shard, which counts them on its own worker.
//  2. Serial (shard 0) events act as barriers: all effects of earlier
//     sharded events are committed before a serial event runs, and no
//     sharded event queued behind it at the same timestamp has started.
//
// Calling Schedule/At without a shard from inside parallel execution is
// a contract violation and panics; use the *Shard variants (or
// Network.Send, which routes itself) from sharded actors.
package sim

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"scionmpr/internal/telemetry"
	"scionmpr/internal/topology"
)

// Time is virtual simulation time measured as a duration since simulation
// start.
type Time time.Duration

func (t Time) String() string { return time.Duration(t).String() }

// SerialShard is the shard of events that must run alone: they may touch
// any state, and they barrier parallel execution within their timestamp.
const SerialShard uint32 = 0

type event struct {
	at    Time
	shard uint32 // SerialShard, or an actor shard from NewShard
	fn    func()
	// del, when non-nil, is a recycled network delivery executed instead of
	// fn — the bulk of large-run events, kept off the allocator entirely.
	del *delivery
}

// run executes the event's payload.
func (e *event) run() {
	if e.del != nil {
		e.del.net.deliver(e.del)
		return
	}
	e.fn()
}

// maxSpareBuckets bounds the emptied buckets eventQueue keeps for reuse:
// each holds on to the capacity of the largest batch it carried.
const maxSpareBuckets = 4

// bucket is the FIFO of events at one time.
type bucket struct {
	at  Time
	evs []event
}

// eventQueue is a two-level calendar queue: one FIFO bucket per distinct
// time and a binary min-heap over those times. Push order within a
// bucket is the order a single event heap needed sequence numbers for.
// A beaconing run schedules millions of events on a few dozen times.
type eventQueue struct {
	times   []Time // min-heap of the times that have a bucket
	buckets map[Time]*bucket
	spare   []*bucket
	n       int // queued events
}

func (q *eventQueue) push(e event) {
	b := q.buckets[e.at]
	if b == nil {
		if q.buckets == nil {
			q.buckets = map[Time]*bucket{}
		}
		if k := len(q.spare); k > 0 {
			b, q.spare = q.spare[k-1], q.spare[:k-1]
		} else {
			b = &bucket{}
		}
		b.at = e.at
		q.buckets[e.at] = b
		q.pushTime(e.at)
	}
	b.evs = append(b.evs, e)
	q.n++
}

// take detaches the earliest bucket as the next batch. Events pushed at
// its time meanwhile open a new bucket behind it. Hand it back with
// recycle once it has run.
func (q *eventQueue) take() *bucket {
	b := q.buckets[q.times[0]]
	delete(q.buckets, b.at)
	q.popTime()
	q.n -= len(b.evs)
	return b
}

// recycle keeps a bucket that has run for reuse, up to maxSpareBuckets.
func (q *eventQueue) recycle(b *bucket) {
	if len(q.spare) < maxSpareBuckets {
		clear(b.evs)
		b.evs = b.evs[:0]
		q.spare = append(q.spare, b)
	}
}

// pushTime and popTime sift the heap of distinct times.
func (q *eventQueue) pushTime(t Time) {
	h := append(q.times, t)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	q.times = h
}

func (q *eventQueue) popTime() {
	n := len(q.times) - 1
	h := q.times[:n]
	if n > 0 {
		h[0] = q.times[n]
	}
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1] < h[c] {
			c++
		}
		if h[i] <= h[c] {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	q.times = h
}

// shardGroup is the per-shard slice of a parallel segment: indices into
// the segment's event slice, in queue order.
type shardGroup struct {
	shard uint32
	evs   []int32
}

// op is one deferred cross-shard effect, recorded while a sharded event
// runs on a parallel worker and replayed at commit in queue order.
// The effects are typed so deferring one appends to a reused slice
// instead of allocating a closure per message. An op fits in 64 bytes
// (Simulator.ops keeps every event's list at its largest capacity): a
// send names its sender by link side.
type op struct {
	msg   Message        // opSend
	link  *topology.Link // opSend
	fn    func()         // opPush: payload
	net   *Network       // opSend, opDrop
	at    Time           // opPush: absolute time
	shard uint32         // opPush: target shard
	size  int32          // opSend: msg.WireLen()
	kind  uint8
	bSide bool // opSend: the sender is link.B
}

const (
	opPush uint8 = iota // schedule fn at (shard, at)
	opSend              // transmit msg over link
	opDrop              // count one no-handler drop
)

// apply replays the effect in serial context.
func (o *op) apply(s *Simulator) {
	switch o.kind {
	case opPush:
		s.push(event{at: o.at, shard: o.shard, fn: o.fn})
	case opSend:
		from := o.link.A
		if o.bSide {
			from = o.link.B
		}
		o.net.send(from, o.link, o.msg, o.size)
	case opDrop:
		o.net.Dropped++
	}
}

// Simulator owns the virtual clock and the pending event set. The zero
// value is ready to use (sequentially; see SetWorkers).
type Simulator struct {
	now    Time
	events eventQueue
	// Executed counts processed events, useful for run-away detection in
	// tests and experiment logs.
	Executed uint64

	// workers is the parallel worker count; <= 1 executes sequentially.
	workers int

	// inPar is true while a parallel segment's workers are running. It is
	// written only with no workers alive (happens-before via goroutine
	// start and WaitGroup.Wait), so worker reads are race-free.
	inPar bool
	// ops holds the deferred cross-shard effects of the segment currently
	// executing, one list per event (indexed like the segment slice).
	ops [][]op
	// frames maps shard -> index of that shard's currently executing
	// event in the segment (-1 outside segments). Each entry is written
	// only by the worker owning the shard. NewShard appends to it and to
	// weights, so len(frames)-1 is the last shard handed out.
	frames []int32
	// weights holds optional static per-shard costs (e.g. AS degree), set
	// via SetShardWeight. Parallel segments hand groups to workers in
	// descending (event count, weight) order — longest-processing-time
	// first — so one heavyweight actor shard no longer straggles behind
	// an otherwise idle pool.
	weights []uint32

	// tracer, when set, receives structured telemetry events via Trace.
	// traces stages parallel-phase emissions per event (indexed like the
	// segment slice) for flushing in queue-ordered commit.
	tracer *telemetry.Tracer
	traces [][]telemetry.Event

	// parSegments/parEvents count segments and events that actually ran
	// on the worker pool — a scheduler-shape observable that depends on
	// the worker count (volatile telemetry, never fingerprinted).
	parSegments, parEvents uint64
	// groupHist buckets per-shard event counts of parallel segments by
	// floor(log2(count)) — the shard-occupancy imbalance observable.
	// Scheduler-shape: volatile telemetry, never fingerprinted.
	groupHist *telemetry.Histogram
	// maxGroupEvents is the largest single-shard event count seen in any
	// parallel segment (volatile).
	maxGroupEvents uint64

	// beforeStep is the BeforeStep hook.
	beforeStep func(t Time)
	steppedAt  Time
	stepped    bool

	// groups is scratch reused across segments.
	groups []shardGroup
}

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// SetTracer attaches a trace-event ring. Call before Run. Events
// emitted through Trace land in the ring in deterministic queue order
// regardless of worker count.
func (s *Simulator) SetTracer(t *telemetry.Tracer) { s.tracer = t }

// Trace records a telemetry trace event, stamping ev.Time from the
// virtual clock. From serial context the event goes straight to the
// ring; from parallel execution it is staged on the calling actor's
// event frame and flushed during the queue-ordered commit, so ring
// contents are byte-identical for any worker count.
//
// Determinism rule: call Trace only while the actor's event function is
// on the stack — never from a deferred effect (an op committed after
// the segment, e.g. inside a Network send), where the sequential and
// parallel interleavings would differ. No-op when no tracer is set.
func (s *Simulator) Trace(shard uint32, ev telemetry.Event) {
	if s.tracer == nil {
		return
	}
	ev.Time = int64(s.now)
	if !s.inPar {
		s.tracer.Emit(ev)
		return
	}
	idx := int32(-1)
	if int(shard) < len(s.frames) {
		idx = s.frames[shard]
	}
	if idx < 0 {
		panic("sim: trace from parallel execution must come from the executing actor's shard")
	}
	s.traces[idx] = append(s.traces[idx], ev)
}

// SetTelemetry registers the simulator's own metrics. Executed and
// Pending are deterministic; the parallel scheduler shape (how many
// events actually ran inside parallel segments) depends on the worker
// count and is registered volatile.
func (s *Simulator) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.GaugeFunc("sim_events_executed", func() float64 { return float64(s.Executed) })
	reg.GaugeFunc("sim_events_pending", func() float64 { return float64(s.events.n) })
	reg.VolatileGaugeFunc("sim_parallel_segments", func() float64 { return float64(s.parSegments) })
	reg.VolatileGaugeFunc("sim_parallel_events", func() float64 { return float64(s.parEvents) })
	// Per-shard occupancy of parallel segments: how many events one shard
	// contributed to one segment. A long tail here is actor-shard
	// imbalance — a few high-degree ASes receiving most deliveries.
	s.groupHist = reg.VolatileHistogram("sim_shard_segment_events", []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024})
	reg.VolatileGaugeFunc("sim_shard_segment_events_max", func() float64 { return float64(s.maxGroupEvents) })
}

// SetShardWeight records a static cost estimate for a shard (e.g. the
// AS's link degree). Weights only order group pickup inside parallel
// segments (heaviest first); they never affect observables. Call during
// setup, after NewShard.
func (s *Simulator) SetShardWeight(shard uint32, w uint32) { s.weights[shard] = w }

// BeforeStep registers fn to run, in serial context, whenever the clock
// is about to advance to a new timestamp — before any event at that
// timestamp executes. The hook is not an event and does not count
// toward Executed, so it can observe (e.g. checkpoint) a run
// without changing any of its deterministic observables. One hook may be
// registered; nil clears it.
func (s *Simulator) BeforeStep(fn func(t Time)) {
	s.beforeStep = fn
	s.stepped = false
}

// step fires the BeforeStep hook once per distinct timestamp.
func (s *Simulator) step(t Time) {
	if s.beforeStep == nil || (s.stepped && s.steppedAt == t) {
		return
	}
	s.steppedAt, s.stepped = t, true
	s.beforeStep(t)
}

// Restore prepares a simulator to resume a checkpointed run: the clock
// opens at now and Executed continues from executed, so a resumed run
// finishes with the same Executed count as an uninterrupted one. Call
// before scheduling any events.
func (s *Simulator) Restore(now Time, executed uint64) {
	if s.events.n > 0 {
		panic("sim: Restore with events already scheduled")
	}
	s.now = now
	s.Executed = executed
}

// SetWorkers sets the parallel worker count: 1 forces sequential
// execution, n > 1 runs same-timestamp sharded events on up to n
// goroutines, and n <= 0 resolves the default (the SCIONMPR_WORKERS
// environment variable if set, else GOMAXPROCS). Call it before Run; the
// produced event order and all observables are identical for every
// setting.
func (s *Simulator) SetWorkers(n int) {
	if n <= 0 {
		n = DefaultWorkers()
	}
	s.workers = n
}

// WorkerCount reports the effective worker count (1 = sequential).
func (s *Simulator) WorkerCount() int {
	if s.workers <= 1 {
		return 1
	}
	return s.workers
}

// DefaultWorkers resolves the default parallelism: the SCIONMPR_WORKERS
// environment variable when set to a positive integer, else GOMAXPROCS.
func DefaultWorkers() int {
	if v := os.Getenv("SCIONMPR_WORKERS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return runtime.GOMAXPROCS(0)
}

// NewShard allocates a fresh actor shard identifier. Shards are cheap
// integers; allocate one per independent actor (per AS) during setup,
// before the simulation runs. Not safe for concurrent use.
func (s *Simulator) NewShard() uint32 {
	if s.frames == nil {
		s.frames, s.weights = []int32{-1}, []uint32{0} // SerialShard
	}
	s.frames = append(s.frames, -1)
	s.weights = append(s.weights, 0)
	return uint32(len(s.frames) - 1)
}

// Schedule queues fn to run after delay d. Negative delays run "now"
// (still in timestamp order with other now-events).
func (s *Simulator) Schedule(d time.Duration, fn func()) {
	s.ScheduleShard(SerialShard, d, fn)
}

// ScheduleShard is Schedule for an event owned by the given actor shard.
func (s *Simulator) ScheduleShard(shard uint32, d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	s.AtShard(shard, s.now+Time(d), fn)
}

// At queues fn at absolute virtual time t. Scheduling in the past is an
// error that would break causality; it panics to surface the bug.
func (s *Simulator) At(t Time, fn func()) { s.AtShard(SerialShard, t, fn) }

// AtShard is At for an event owned by the given actor shard. Within one
// shard, events retain FIFO order among equal timestamps; events of
// different shards at the same timestamp may execute in parallel.
func (s *Simulator) AtShard(shard uint32, t Time, fn func()) {
	if s.inPar {
		// Called from inside a parallel segment: defer the push so the
		// event joins its bucket in deterministic commit order.
		s.deferOp(shard, op{kind: opPush, shard: shard, at: t, fn: fn})
		return
	}
	s.push(event{at: t, shard: shard, fn: fn})
}

// push queues e; it must run in serial context.
func (s *Simulator) push(e event) {
	if e.at < s.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", e.at, s.now))
	}
	s.events.push(e)
}

// deferOp appends o to the effect list of the event currently executing
// on the caller's shard. It panics when the shard has no executing event
// in this segment — i.e. when code running as one actor tries to produce
// side effects attributed to another, which would be a nondeterministic
// cross-shard mutation.
func (s *Simulator) deferOp(shard uint32, o op) {
	idx := int32(-1)
	if int(shard) < len(s.frames) {
		idx = s.frames[shard]
	}
	if idx < 0 {
		panic("sim: cross-shard side effect from parallel execution: " +
			"schedule and send only as the executing actor (shard-aware APIs), or from serial events")
	}
	s.ops[idx] = append(s.ops[idx], o)
}

// Every schedules fn at start and then every interval until the end time
// passes (end <= 0 means no end). fn also receives the firing time.
func (s *Simulator) Every(start, interval time.Duration, end Time, fn func(Time)) {
	s.EveryShard(SerialShard, start, interval, end, fn)
}

// EveryShard is Every for a repeating event owned by an actor shard (the
// per-AS beaconing tick). The self-rescheduling honors the parallel
// effect-ordering contract automatically.
func (s *Simulator) EveryShard(shard uint32, start, interval time.Duration, end Time, fn func(Time)) {
	var tick func()
	tick = func() {
		if end > 0 && s.now > end {
			return
		}
		fn(s.now)
		next := s.now + Time(interval)
		if end > 0 && next > end {
			return
		}
		s.AtShard(shard, next, tick)
	}
	next := s.now + Time(start)
	if end > 0 && next > end {
		return
	}
	s.AtShard(shard, next, tick)
}

// Run executes events until the queue drains. It returns the final
// virtual time.
func (s *Simulator) Run() Time { return s.run(math.MaxInt64) }

// RunUntil executes events with timestamps <= deadline and then advances
// the clock to the deadline. Remaining events stay queued.
func (s *Simulator) RunUntil(deadline Time) Time {
	s.now = max(s.run(deadline), deadline)
	return s.now
}

// run executes events with timestamps <= deadline, one bucket per batch,
// and returns the virtual time. Events a batch schedules at its own time
// (e.g. over zero-latency links) open a bucket that runs as the next one.
func (s *Simulator) run(deadline Time) Time {
	q := &s.events
	for q.n > 0 && q.times[0] <= deadline {
		s.step(q.times[0])
		s.now = q.times[0]
		b := q.take()
		s.runSegments(b.evs)
		q.recycle(b)
	}
	return s.now
}

// runSegments executes one same-timestamp batch: maximal runs of sharded
// events execute in parallel, serial events barrier between them; with
// one worker every event runs alone, in queue order.
func (s *Simulator) runSegments(batch []event) {
	i := 0
	for i < len(batch) {
		if batch[i].shard == SerialShard || s.WorkerCount() == 1 {
			s.Executed++
			batch[i].run()
			i++
			continue
		}
		j := i + 1
		for j < len(batch) && batch[j].shard != SerialShard {
			j++
		}
		s.runParallel(batch[i:j])
		i = j
	}
}

// runParallel executes one segment of sharded events and commits their
// deferred effects in queue order.
func (s *Simulator) runParallel(evs []event) {
	// Group events by shard, preserving queue order within each group.
	// Until the workers start, frames holds each shard's group index.
	groups := s.groups[:0]
	for idx := range evs {
		sh := evs[idx].shard
		gi := s.frames[sh]
		if gi < 0 {
			gi = int32(len(groups))
			s.frames[sh] = gi
			if cap(groups) > len(groups) {
				groups = groups[:gi+1]
				groups[gi].shard, groups[gi].evs = sh, groups[gi].evs[:0]
			} else {
				groups = append(groups, shardGroup{shard: sh})
			}
		}
		groups[gi].evs = append(groups[gi].evs, int32(idx))
	}
	for gi := range groups {
		s.frames[groups[gi].shard] = -1
	}
	s.groups = groups

	workers := min(s.WorkerCount(), len(groups))
	if workers <= 1 {
		// One partition: direct execution in queue order is equivalent —
		// effects apply inline in exactly the same order.
		for k := range evs {
			s.Executed++
			evs[k].run()
		}
		return
	}

	// Observe shard occupancy (volatile): the histogram of per-shard
	// event counts in this segment exposes actor imbalance.
	if s.groupHist != nil {
		for gi := range groups {
			n := uint64(len(groups[gi].evs))
			s.groupHist.Observe(float64(n))
			if n > s.maxGroupEvents {
				s.maxGroupEvents = n
			}
		}
	}

	// Hand groups to workers heaviest-first (longest processing time
	// first): primary key is the group's event count, tie-broken by the
	// shard's static weight (AS degree — a one-event tick of a hub AS
	// costs more than a stub's). Group order never affects observables;
	// commits below replay effects in queue order regardless.
	OrderGroups(groups, func(sh uint32) uint32 { return s.weights[sh] })

	// Per-event effect and staged-trace lists.
	if cap(s.ops) < len(evs) {
		s.ops = make([][]op, len(evs))
	}
	s.ops = s.ops[:len(evs)]
	if cap(s.traces) < len(evs) {
		s.traces = make([][]telemetry.Event, len(evs))
	}
	s.traces = s.traces[:len(evs)]
	s.parSegments++
	s.parEvents += uint64(len(evs))

	s.inPar = true
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicVal interface{}
	)
	next.Store(-1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if panicVal == nil {
						panicVal = fmt.Sprintf("sim: worker panic: %v\n%s", r, debug.Stack())
					}
					panicMu.Unlock()
				}
			}()
			for {
				gi := next.Add(1)
				if gi >= int64(len(groups)) {
					return
				}
				g := &groups[gi]
				for _, idx := range g.evs {
					s.frames[g.shard] = idx
					evs[idx].run()
				}
			}
		}()
	}
	wg.Wait()
	s.inPar = false
	if panicVal != nil {
		panic(panicVal)
	}

	// Commit deferred effects in queue order: this replays schedules
	// (appending to their buckets), transmissions, and loss decisions in
	// exactly the order a sequential run would have produced. Staged
	// traces flush first — sequentially they were emitted while the event
	// function ran, i.e. before any of its deferred effects applied.
	for idx := range evs {
		s.Executed++
		if d := evs[idx].del; d != nil {
			d.net.release(d)
		}
		for _, ev := range s.traces[idx] {
			s.tracer.Emit(ev)
		}
		clear(s.traces[idx])
		s.traces[idx] = s.traces[idx][:0]
		l := s.ops[idx]
		for i := range l {
			l[i].apply(s)
		}
		clear(l)
		s.ops[idx] = l[:0]
	}

	// Reset shard frames for the next segment.
	for gi := range groups {
		s.frames[groups[gi].shard] = -1
	}
}

// OrderGroups arranges a segment's shard groups in worker pickup order:
// descending event count, then descending static shard weight, then
// ascending shard id (a deterministic tiebreak). This is the classic LPT
// (longest processing time first) heuristic for minimizing makespan on
// identical workers; weight supplies the cost estimate when event counts
// tie, which they almost always do in tick segments (one tick per AS).
func OrderGroups(groups []shardGroup, weight func(uint32) uint32) {
	slices.SortFunc(groups, func(a, b shardGroup) int {
		if len(a.evs) != len(b.evs) {
			return len(b.evs) - len(a.evs)
		}
		wa, wb := weight(a.shard), weight(b.shard)
		if wa != wb {
			if wb > wa {
				return 1
			}
			return -1
		}
		if a.shard < b.shard {
			return -1
		}
		if a.shard > b.shard {
			return 1
		}
		return 0
	})
}

// PendingDeliveries counts queued events that are in-flight network
// deliveries. Deliveries are the one event class a checkpoint cannot
// reconstruct from configuration (their payloads are live messages), so
// checkpointing layers assert this is zero at their capture points —
// which it is at beaconing-interval boundaries, where every delivery of
// the previous interval has long landed.
func (s *Simulator) PendingDeliveries() int {
	n := 0
	for _, b := range s.events.buckets {
		for i := range b.evs {
			if b.evs[i].del != nil {
				n++
			}
		}
	}
	return n
}

// Pending returns the number of queued events.
func (s *Simulator) Pending() int { return s.events.n }
