package sim

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"scionmpr/internal/telemetry"
)

// refEvent is an event with the sequence number the single heap ordered
// same-time events by.
type refEvent struct {
	event
	seq uint64
}

// eventHeap is the binary heap the bucketed eventQueue replaced, kept
// verbatim as the test oracle but for its element type, which carries the
// sequence number the queue no longer needs.
type eventHeap []refEvent

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(e refEvent) {
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

func (h *eventHeap) pop() refEvent {
	q := *h
	n := len(q) - 1
	top := q[0]
	q[0] = q[n]
	q[n] = refEvent{} // release fn/del references
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

// refSim is the sequential Simulator loop as it ran on eventHeap.
type refSim struct {
	now      Time
	seq      uint64
	events   eventHeap
	executed uint64
}

func (r *refSim) at(t Time, fn func()) {
	if t < r.now {
		panic(fmt.Sprintf("ref: scheduling at %v before now %v", t, r.now))
	}
	r.seq++
	r.events.push(refEvent{event: event{at: t, fn: fn}, seq: r.seq})
}

func (r *refSim) runUntil(deadline Time) {
	for len(r.events) > 0 && r.events[0].at <= deadline {
		e := r.events.pop()
		r.now = e.at
		r.executed++
		e.run()
	}
}

// scriptNode is one event of a random schedule: when it runs it schedules
// its children, each at its delay after the node's own time.
type scriptNode struct {
	delay    Time // roots: absolute time
	shard    uint32
	children []int
}

type script struct {
	nodes     []scriptNode
	roots     []int
	deadlines []Time // RunUntil calls before the final Run
}

// randomScript draws a schedule with few distinct times, so most pushes
// share a bucket: roots at 0–4 s, children mostly at their parent's own
// time. A sharded node's children stay on its shard (the only cross-actor
// push the contract allows is from a serial node).
func randomScript(seed uint64, shards uint32) script {
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	var sc script
	var grow func(shard uint32, depth int, root bool) int
	grow = func(shard uint32, depth int, root bool) int {
		id := len(sc.nodes)
		sc.nodes = append(sc.nodes, scriptNode{shard: shard})
		if root {
			sc.nodes[id].delay = Time(rng.IntN(5)) * Time(time.Second)
		} else if rng.IntN(2) == 1 {
			sc.nodes[id].delay = Time(1+rng.IntN(3)) * Time(time.Second)
		}
		if depth < 4 {
			for k := rng.IntN(4 - depth); k > 0; k-- {
				child := shard
				if shard == SerialShard {
					child = uint32(rng.IntN(int(shards) + 1))
				}
				c := grow(child, depth+1, false)
				sc.nodes[id].children = append(sc.nodes[id].children, c)
			}
		}
		return id
	}
	for k := 10 + rng.IntN(30); k > 0; k-- {
		shard := SerialShard
		if rng.IntN(4) != 0 {
			shard = 1 + uint32(rng.IntN(int(shards)))
		}
		sc.roots = append(sc.roots, grow(shard, 0, true))
	}
	for k := rng.IntN(3); k > 0; k-- {
		sc.deadlines = append(sc.deadlines, Time(rng.IntN(6))*Time(time.Second))
	}
	slices.Sort(sc.deadlines)
	return sc
}

// queueRun is what a driver observes: the order events ran in, and after
// every RunUntil/Run call the clock, the pending count and Executed.
type queueRun struct {
	order []uint64
	marks []string
}

// runRef drives the oracle.
func runRef(sc script) queueRun {
	var r refSim
	var out queueRun
	var fn func(id int) func()
	fn = func(id int) func() {
		return func() {
			out.order = append(out.order, uint64(id))
			for _, c := range sc.nodes[id].children {
				r.at(r.now+sc.nodes[c].delay, fn(c))
			}
		}
	}
	for _, id := range sc.roots {
		r.at(sc.nodes[id].delay, fn(id))
	}
	for _, d := range append(sc.deadlines, math.MaxInt64) {
		r.runUntil(d)
		if d != math.MaxInt64 {
			r.now = max(r.now, d)
		}
		out.marks = append(out.marks, fmt.Sprint(r.now, len(r.events), r.executed))
	}
	return out
}

// runQueue drives the Simulator through the same calls, each with the
// next worker count of the cycle: 1 takes the sequential pop path, more
// run whole buckets as batches. The order comes from the trace ring,
// which parallel segments fill in commit order.
func runQueue(sc script, shards uint32, workers []int) queueRun {
	var s Simulator
	tr := telemetry.NewTracer(1 << 16)
	s.SetTracer(tr)
	for range shards {
		s.NewShard()
	}
	var fn func(id int) func()
	fn = func(id int) func() {
		n := sc.nodes[id]
		return func() {
			s.Trace(n.shard, telemetry.Event{Actor: uint64(id)})
			for _, c := range n.children {
				s.AtShard(sc.nodes[c].shard, s.Now()+sc.nodes[c].delay, fn(c))
			}
		}
	}
	for _, id := range sc.roots {
		s.AtShard(sc.nodes[id].shard, sc.nodes[id].delay, fn(id))
	}
	var out queueRun
	for call, d := range append(sc.deadlines, math.MaxInt64) {
		s.SetWorkers(workers[call%len(workers)])
		if d == math.MaxInt64 {
			s.Run()
		} else {
			s.RunUntil(d)
		}
		out.marks = append(out.marks, fmt.Sprint(s.Now(), s.Pending(), s.Executed))
	}
	for _, ev := range tr.Events() {
		out.order = append(out.order, ev.Actor)
	}
	return out
}

// TestQueueMatchesHeap runs seeded random schedules — same-time pushes,
// pushes committed from parallel segments at the current time and
// RunUntil deadlines — on the bucketed queue and on the verbatim heap, and
// requires the same event order, clock, pending count and Executed after
// every call, sequentially, in batches, and switching between the two.
func TestQueueMatchesHeap(t *testing.T) {
	const shards = 4
	for seed := uint64(1); seed <= 100; seed++ {
		sc := randomScript(seed, shards)
		want := runRef(sc)
		for _, workers := range [][]int{{1}, {2}, {4}, {1, 2}, {2, 1, 4}} {
			got := runQueue(sc, shards, workers)
			if !slices.Equal(got.order, want.order) {
				t.Fatalf("seed %d workers %v: order\n%v\nwant\n%v", seed, workers, got.order, want.order)
			}
			if !slices.Equal(got.marks, want.marks) {
				t.Fatalf("seed %d workers %v: (now pending executed) per call %v, want %v", seed, workers, got.marks, want.marks)
			}
		}
	}
}
