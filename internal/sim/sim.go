// Package sim is a deterministic discrete-event simulator, the stand-in
// for the paper's ns-3-based beaconing simulator. It provides a virtual
// clock with an event heap, message delivery across topology links with
// configurable latency, and per-interface byte and message counters — the
// exact observables the paper's overhead evaluation needs (§5.1, §5.2:
// "we observe the amount of PCB traffic sent on each inter-domain
// interface").
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
//     after the segment in (time, seq) order, exactly the order a
//     sequential run would have produced them in. Sequence numbers,
//     traffic counters, and the gray-loss decision count (which keys
//     each decision's coin) therefore come out identical for any worker
//     count.
//  2. Serial (shard 0) events act as barriers: all effects of earlier
//     sharded events are committed before a serial event runs, and no
//     sharded event of the same timestamp with a later sequence number
//     has started.
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

	"scionmpr/internal/addr"
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
	seq   uint64 // tie-breaker: FIFO among same-time events
	shard uint32 // SerialShard, or an actor shard from NewShard
	fn    func()
	// del, when non-nil, is a pooled network delivery executed instead of
	// fn — the bulk of large-run events, kept off the allocator entirely.
	del *delivery
}

// run executes the event's payload.
func (e *event) run() {
	if e.del != nil {
		d := e.del
		e.del = nil
		d.net.runDelivery(d)
		return
	}
	e.fn()
}

// eventHeap is a hand-rolled binary min-heap over (at, seq). The
// container/heap interface boxes every pushed event into an interface
// value — one heap allocation per scheduled event, the second-largest
// allocator in beaconing profiles — so the sift loops live here instead.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	q := *h
	// Sift up.
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	q := *h
	n := len(q) - 1
	top := q[0]
	q[0] = q[n]
	q[n] = event{} // release fn/del references
	q = q[:n]
	*h = q
	// Sift down.
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		if l >= n {
			break
		}
		child := l
		if r < n && q.less(r, l) {
			child = r
		}
		if !q.less(child, i) {
			break
		}
		q[i], q[child] = q[child], q[i]
		i = child
	}
	return top
}

// shardGroup is the per-shard slice of a parallel segment: indices into
// the segment's event slice, in sequence order.
type shardGroup struct {
	shard uint32
	evs   []int32
}

// op is one deferred cross-shard effect, recorded while a sharded event
// runs on a parallel worker and replayed at commit in sequence order.
// The hot effects — network sends, RX accounting, drop counts — are
// typed so deferring them appends to a reused slice instead of
// allocating a closure per message; everything else goes through fn.
type op struct {
	kind  uint8
	shard uint32         // opPush: target shard
	at    Time           // opPush: absolute time
	fn    func()         // opPush, opFunc: payload
	net   *Network       // opSend, opRx, opDrop
	from  addr.IA        // opSend
	link  *topology.Link // opSend
	msg   Message        // opSend
	key   IfKey          // opRx
	size  int32          // opRx
}

const (
	opFunc uint8 = iota // run fn
	opPush              // schedule fn at (shard, at)
	opSend              // transmit msg from from over link
	opRx                // count size received bytes on key
	opDrop              // count one no-handler drop
)

// apply replays the effect in serial context.
func (o *op) apply(s *Simulator) {
	switch o.kind {
	case opFunc:
		o.fn()
	case opPush:
		s.push(o.shard, o.at, o.fn)
	case opSend:
		o.net.send(o.from, o.link, o.msg)
	case opRx:
		c := o.net.counter(o.key)
		c.RxBytes += uint64(o.size)
		c.RxMsgs++
	case opDrop:
		o.net.Dropped++
	}
}

// Simulator owns the virtual clock and the pending event set. The zero
// value is ready to use (sequentially; see SetWorkers).
type Simulator struct {
	now     Time
	seq     uint64
	events  eventHeap
	stopped atomic.Bool
	// Executed counts processed events, useful for run-away detection in
	// tests and experiment logs.
	Executed uint64

	// workers is the parallel worker count; <= 1 executes sequentially.
	workers   int
	nextShard uint32

	// inPar is true while a parallel segment's workers are running. It is
	// written only with no workers alive (happens-before via goroutine
	// start and WaitGroup.Wait), so worker reads are race-free.
	inPar bool
	// ops holds the deferred cross-shard effects of the segment currently
	// executing, one list per event (indexed like the segment slice).
	ops [][]op
	// frames maps shard -> index of that shard's currently executing
	// event in the segment (-1 outside segments). Each entry is written
	// only by the worker owning the shard.
	frames []int32
	// weights holds optional static per-shard costs (e.g. AS degree), set
	// via SetShardWeight. Parallel segments hand groups to workers in
	// descending (event count, weight) order — longest-processing-time
	// first — so one heavyweight actor shard no longer straggles behind
	// an otherwise idle pool.
	weights []uint32

	// tracer, when set, receives structured telemetry events via Trace.
	// traces stages parallel-phase emissions per event (indexed like the
	// segment slice) for flushing in sequence-ordered commit.
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

	// beforeStep, when set, runs in serial context every time the clock
	// is about to advance to a new timestamp, before any event at that
	// timestamp executes. It consumes no sequence numbers and is not
	// counted in Executed, so hooking a run (e.g. to checkpoint it) does
	// not perturb its observables.
	beforeStep func(t Time)
	steppedAt  Time
	stepped    bool

	// Scratch buffers reused across batches to keep the hot loop
	// allocation-free.
	batch   []event
	groups  []shardGroup
	groupOf map[uint32]int32
}

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// SetTracer attaches a trace-event ring. Call before Run. Events
// emitted through Trace land in the ring in deterministic (time, seq)
// order regardless of worker count.
func (s *Simulator) SetTracer(t *telemetry.Tracer) { s.tracer = t }

// Trace records a telemetry trace event, stamping ev.Time from the
// virtual clock. From serial context the event goes straight to the
// ring; from parallel execution it is staged on the calling actor's
// event frame and flushed during the sequence-ordered commit, so ring
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
	reg.GaugeFunc("sim_events_pending", func() float64 { return float64(len(s.events)) })
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
func (s *Simulator) SetShardWeight(shard uint32, w uint32) {
	if int(shard) >= len(s.weights) {
		grown := make([]uint32, shard+1)
		copy(grown, s.weights)
		s.weights = grown
	}
	s.weights[shard] = w
}

// shardWeight returns the static weight of a shard (0 when unset).
func (s *Simulator) shardWeight(shard uint32) uint32 {
	if int(shard) < len(s.weights) {
		return s.weights[shard]
	}
	return 0
}

// BeforeStep registers fn to run, in serial context, whenever the clock
// is about to advance to a new timestamp — before any event at that
// timestamp executes. The hook consumes no sequence numbers and does not
// count toward Executed, so it can observe (e.g. checkpoint) a run
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
	if len(s.events) > 0 {
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
	s.nextShard++
	return s.nextShard
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
		// sequence number is assigned in deterministic commit order.
		s.deferOp(shard, op{kind: opPush, shard: shard, at: t, fn: fn})
		return
	}
	s.push(shard, t, fn)
}

func (s *Simulator) push(shard uint32, t Time, fn func()) {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, s.now))
	}
	s.seq++
	s.events.push(event{at: t, seq: s.seq, shard: shard, fn: fn})
}

// pushDelivery schedules a pooled network delivery (see Network.send).
func (s *Simulator) pushDelivery(shard uint32, t Time, d *delivery) {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, s.now))
	}
	s.seq++
	s.events.push(event{at: t, seq: s.seq, shard: shard, del: d})
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

// Every schedules fn at start and then every interval until the simulator
// stops or the end time passes (end <= 0 means no end). fn also receives
// the firing time.
func (s *Simulator) Every(start, interval time.Duration, end Time, fn func(Time)) {
	s.EveryShard(SerialShard, start, interval, end, fn)
}

// EveryShard is Every for a repeating event owned by an actor shard (the
// per-AS beaconing tick). The self-rescheduling honors the parallel
// effect-ordering contract automatically.
func (s *Simulator) EveryShard(shard uint32, start, interval time.Duration, end Time, fn func(Time)) {
	var tick func()
	tick = func() {
		if s.stopped.Load() || (end > 0 && s.now > end) {
			return
		}
		fn(s.now)
		// fn may have stopped the run mid-tick; without this re-check a
		// stopped simulator is left with one extra self-rescheduled
		// event pending.
		if s.stopped.Load() {
			return
		}
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

// Run executes events until the queue drains or Stop is called. It
// returns the final virtual time.
func (s *Simulator) Run() Time { return s.run(math.MaxInt64) }

// RunUntil executes events with timestamps <= deadline and then advances
// the clock to the deadline. Remaining events stay queued.
func (s *Simulator) RunUntil(deadline Time) Time {
	s.now = max(s.run(deadline), deadline)
	return s.now
}

// run executes events with timestamps <= deadline, in batches with more
// than one worker and one by one otherwise, and returns the virtual time.
func (s *Simulator) run(deadline Time) Time {
	if s.WorkerCount() > 1 {
		s.runBatches(deadline)
		return s.now
	}
	for len(s.events) > 0 && !s.stopped.Load() && s.events[0].at <= deadline {
		s.step(s.events[0].at)
		e := s.events.pop()
		s.now = e.at
		s.Executed++
		e.run()
	}
	return s.now
}

// runBatches drives the parallel execution loop: repeatedly extract all
// events sharing the earliest timestamp (<= deadline) and run them as a
// batch. Commits may schedule new events at the same timestamp (e.g.
// zero-latency links); the outer loop picks them up as a fresh batch,
// preserving global (time, seq) order because sequence numbers only grow.
func (s *Simulator) runBatches(deadline Time) {
	for len(s.events) > 0 && !s.stopped.Load() {
		t := s.events[0].at
		if t > deadline {
			return
		}
		s.step(t)
		s.now = t
		batch := s.batch[:0]
		for len(s.events) > 0 && s.events[0].at == t {
			batch = append(batch, s.events.pop())
		}
		s.runSegments(batch)
		clear(batch) // release fn references
		s.batch = batch[:0]
	}
}

// runSegments executes one same-timestamp batch: maximal runs of sharded
// events execute in parallel, serial events barrier between them. If the
// simulator is stopped partway (only a serial event or a committed
// effect can observe this deterministically), unexecuted events return
// to the heap, matching sequential Stop semantics at segment
// granularity.
func (s *Simulator) runSegments(batch []event) {
	i := 0
	for i < len(batch) {
		if s.stopped.Load() {
			for _, e := range batch[i:] {
				s.events.push(e)
			}
			return
		}
		if batch[i].shard == SerialShard {
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
// deferred effects in sequence order.
func (s *Simulator) runParallel(evs []event) {
	// Group events by shard, preserving sequence order within each group.
	if s.groupOf == nil {
		s.groupOf = map[uint32]int32{}
	}
	groups := s.groups[:0]
	for idx := range evs {
		sh := evs[idx].shard
		gi, ok := s.groupOf[sh]
		if !ok {
			gi = int32(len(groups))
			if cap(groups) > len(groups) {
				groups = groups[:len(groups)+1]
				groups[gi].shard = sh
				groups[gi].evs = groups[gi].evs[:0]
			} else {
				groups = append(groups, shardGroup{shard: sh})
			}
			s.groupOf[sh] = gi
		}
		groups[gi].evs = append(groups[gi].evs, int32(idx))
	}
	s.groups = groups

	workers := s.WorkerCount()
	if workers > len(groups) {
		workers = len(groups)
	}
	if workers <= 1 {
		// One partition (or sequential): direct execution in seq order is
		// equivalent — effects apply inline in exactly the same order.
		for gi := range groups {
			delete(s.groupOf, groups[gi].shard)
		}
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
	// commits below replay effects in sequence order regardless.
	OrderGroups(groups, s.shardWeight)

	// Per-event effect and staged-trace lists, and shard execution frames.
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
	if len(s.frames) < int(s.nextShard)+1 {
		old := s.frames
		s.frames = make([]int32, s.nextShard+1)
		for k := range s.frames {
			s.frames[k] = -1
		}
		copy(s.frames, old)
	}

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

	// Commit deferred effects in sequence order: this replays schedules
	// (assigning sequence numbers), traffic accounting, and loss decisions in
	// exactly the order a sequential run would have produced. Staged
	// traces flush first — sequentially they were emitted while the event
	// function ran, i.e. before any of its deferred effects applied.
	for idx := range evs {
		s.Executed++
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

	// Reset shard frames and group scratch for the next segment.
	for gi := range groups {
		s.frames[groups[gi].shard] = -1
		delete(s.groupOf, groups[gi].shard)
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
	for i := range s.events {
		if s.events[i].del != nil {
			n++
		}
	}
	return n
}

// Stop halts Run/RunUntil after the current event (sequential mode) or
// the current segment (parallel mode). Safe to call from sharded events.
func (s *Simulator) Stop() { s.stopped.Store(true) }

// Pending returns the number of queued events.
func (s *Simulator) Pending() int { return len(s.events) }
