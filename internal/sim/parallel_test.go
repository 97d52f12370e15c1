package sim

import (
	"reflect"
	"slices"
	"testing"
	"time"
	"unsafe"

	"scionmpr/internal/addr"
	"scionmpr/internal/topology"
)

// TestEveryStopMidTick: when the tick callback itself stops the
// simulator, Every must not self-reschedule — a stopped run previously
// left one extra pending event behind.
func TestEveryStopMidTick(t *testing.T) {
	var s Simulator
	n := 0
	s.Every(0, time.Second, 0, func(Time) {
		n++
		if n == 3 {
			s.Stop()
		}
	})
	s.Run()
	if n != 3 {
		t.Fatalf("fired %d times, want 3", n)
	}
	if p := s.Pending(); p != 0 {
		t.Errorf("stopped run left %d pending events, want 0", p)
	}
}

// TestShardFIFOAndSerialBarrier: events of one shard keep FIFO order
// among themselves, and a serial event between sharded ones acts as a
// barrier — everything queued before it commits first. Each event
// schedules a follow-up one second later; the follow-ups run
// sequentially in the order those pushes were committed.
func TestShardFIFOAndSerialBarrier(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var s Simulator
		s.SetWorkers(workers)
		sh1, sh2 := s.NewShard(), s.NewShard()
		var order []int
		push := func(id int, shard uint32) func() {
			return func() {
				s.AtShard(shard, s.Now()+Time(time.Second), func() { order = append(order, id) })
			}
		}
		// Interleave two shards plus a serial barrier, all at t=1s.
		at := Time(time.Second)
		s.AtShard(sh1, at, push(1, sh1))
		s.AtShard(sh2, at, push(2, sh2))
		s.AtShard(sh1, at, push(3, sh1))
		s.At(at, push(4, SerialShard)) // serial barrier
		s.AtShard(sh2, at, push(5, sh2))
		s.RunUntil(at)
		s.SetWorkers(1)
		s.Run()
		if want := []int{1, 2, 3, 4, 5}; !slices.Equal(order, want) {
			t.Fatalf("workers=%d: order = %v, want %v", workers, order, want)
		}
	}
}

// TestParallelZeroDelayReschedule: a sharded event rescheduling itself
// with zero delay (the legal own-shard pattern, like a tick) must run
// again within the same timestamp — parallel batching may not skip the
// follow-up events sequential execution would have run.
func TestParallelZeroDelayReschedule(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var s Simulator
		s.SetWorkers(workers)
		sh1, sh2 := s.NewShard(), s.NewShard()
		// Per-shard counters are own-shard state: direct mutation is fine.
		counts := make([]int, 2)
		chain := func(slot int, shard uint32) func() {
			var self func()
			self = func() {
				counts[slot]++
				if counts[slot] < 5 {
					s.ScheduleShard(shard, 0, self)
				}
			}
			return self
		}
		s.AtShard(sh1, Time(time.Second), chain(0, sh1))
		s.AtShard(sh2, Time(time.Second), chain(1, sh2))
		end := s.Run()
		if end != Time(time.Second) {
			t.Errorf("workers=%d: zero-delay chain advanced the clock to %v", workers, end)
		}
		if counts[0] != 5 || counts[1] != 5 {
			t.Errorf("workers=%d: chains fired %v times, want [5 5]", workers, counts)
		}
		if s.Executed != 10 {
			t.Errorf("workers=%d: Executed = %d, want 10", workers, s.Executed)
		}
	}
}

// TestCrossShardSchedulePanics: plain Schedule/At from inside a parallel
// segment is a contract violation and must panic rather than silently
// break determinism.
func TestCrossShardSchedulePanics(t *testing.T) {
	var s Simulator
	s.SetWorkers(4)
	sh1, sh2 := s.NewShard(), s.NewShard()
	at := Time(time.Second)
	// Two groups so the segment actually runs on workers.
	s.AtShard(sh1, at, func() {
		if s.inPar {
			s.Schedule(time.Second, func() {}) // must panic
		}
	})
	s.AtShard(sh2, at, func() {})
	defer func() {
		if recover() == nil {
			t.Error("cross-shard Schedule from parallel execution must panic")
		}
	}()
	s.Run()
}

// TestParallelNetworkMatchesSequential: a two-AS network with sharding
// produces identical traffic counters for any worker count.
func TestParallelNetworkMatchesSequential(t *testing.T) {
	run := func(workers int) (uint64, uint64) {
		var s Simulator
		s.SetWorkers(workers)
		g := pairTopo()
		a, b := addr.MustIA(1, 1), addr.MustIA(1, 2)
		n := NewNetwork(&s, g, 10*time.Millisecond)
		n.EnableSharding()
		link := g.LinksBetween(a, b)[0]
		// Each AS echoes back smaller messages until size reaches 1.
		mk := func(local addr.IA) Handler {
			return HandlerFunc(func(from addr.IA, l *topology.Link, msg Message) {
				if sz := msg.WireLen(); sz > 1 {
					n.Send(local, l, testMsg(sz-1))
				}
			})
		}
		n.Register(a, mk(a))
		n.Register(b, mk(b))
		s.Schedule(0, func() { n.Send(a, link, testMsg(16)) })
		s.Run()
		return n.GrandTotalTx(), n.TotalRx(b)
	}
	seqTx, seqRx := run(1)
	if seqTx == 0 {
		t.Fatal("no traffic in sequential run")
	}
	for _, w := range []int{2, 4} {
		if tx, rx := run(w); tx != seqTx || rx != seqRx {
			t.Errorf("workers=%d: counters tx=%d rx=%d, want tx=%d rx=%d", w, tx, rx, seqTx, seqRx)
		}
	}
}

// TestParallelStopRequeuesRemainder: a serial event stopping the
// simulator mid-batch leaves the not-yet-executed events queued, like a
// sequential Stop.
func TestParallelStopRequeuesRemainder(t *testing.T) {
	var s Simulator
	s.SetWorkers(4)
	sh := s.NewShard()
	at := Time(time.Second)
	ran := 0
	s.At(at, func() { s.Stop() })
	s.AtShard(sh, at, func() { ran++ })
	s.AtShard(sh, at, func() { ran++ })
	s.Run()
	if ran != 0 {
		t.Errorf("events after Stop executed: %d", ran)
	}
	if p := s.Pending(); p != 2 {
		t.Errorf("pending = %d, want 2 requeued events", p)
	}
}

// TestDefaultWorkersEnv: SCIONMPR_WORKERS overrides GOMAXPROCS.
func TestDefaultWorkersEnv(t *testing.T) {
	t.Setenv("SCIONMPR_WORKERS", "3")
	if n := DefaultWorkers(); n != 3 {
		t.Errorf("DefaultWorkers with env = %d, want 3", n)
	}
	t.Setenv("SCIONMPR_WORKERS", "bogus")
	if n := DefaultWorkers(); n < 1 {
		t.Errorf("DefaultWorkers fallback = %d", n)
	}
	var s Simulator
	s.SetWorkers(0)
	if s.WorkerCount() < 1 {
		t.Error("SetWorkers(0) must resolve to >= 1")
	}
}

// TestOpFitsOneCacheLine pins the commit record's size: Simulator.ops
// keeps every event's list at its largest capacity, so each byte of an
// op is held once per deferred effect of the busiest segment.
func TestOpFitsOneCacheLine(t *testing.T) {
	if n := unsafe.Sizeof(op{}); n > 64 {
		t.Errorf("op is %d bytes, want <= 64", n)
	}
}

// TestCountersSameAtEveryWorkerCount: on a sharded network with a
// gray-lossy link, a failed link, an AS without a handler and a counter
// reset partway through, the per-interface counters (RX counted on the
// receiving shard's worker, TX at commit) and every drop count come out
// the same at any worker count.
func TestCountersSameAtEveryWorkerCount(t *testing.T) {
	g := topology.New()
	var ias []addr.IA
	for i := 1; i <= 7; i++ {
		ias = append(ias, addr.MustIA(1, addr.AS(i)))
		g.AddAS(ias[i-1], true)
	}
	for i := range ias {
		g.MustConnect(ias[i], ias[(i+1)%len(ias)], topology.Core)
		g.MustConnect(ias[i], ias[(i+3)%len(ias)], topology.Core)
	}
	g.MustConnect(ias[0], ias[1], topology.Core) // parallel link
	lossy, failed := g.Links[2].ID, g.Links[5].ID
	mute := ias[6] // registers no handler: its deliveries are dropped

	type result struct {
		state  NetworkState
		ifs    []IfKey
		tx     []uint64
		drops  [3]uint64
		events uint64
	}
	run := func(workers int) result {
		var s Simulator
		s.SetWorkers(workers)
		n := NewNetwork(&s, g, 10*time.Millisecond)
		n.EnableSharding()
		n.SetLinkLoss(lossy, 0.3)
		n.FailLink(failed)
		for _, ia := range ias[:6] {
			as := g.AS(ia)
			n.Register(ia, HandlerFunc(func(_ addr.IA, l *topology.Link, msg Message) {
				if sz := msg.WireLen(); sz > 1 {
					n.Send(as.IA, as.Links[sz%len(as.Links)], testMsg(sz-1))
				}
			}))
			s.EveryShard(n.Shard(ia), 0, time.Second, Time(10*time.Second), func(Time) {
				for _, l := range as.Links {
					n.Send(as.IA, l, testMsg(8))
				}
			})
		}
		s.At(Time(5500*time.Millisecond), n.ResetCounters)
		s.Run()
		return result{
			state:  n.CheckpointState(),
			ifs:    n.Interfaces(),
			tx:     n.PerInterfaceTxBytes(),
			drops:  [3]uint64{n.Dropped, n.DroppedOnFailedLinks, n.DroppedByLoss},
			events: s.Executed,
		}
	}
	want := run(1)
	for i, d := range want.drops {
		if d == 0 {
			t.Fatalf("drop count %d is 0 in the sequential run; the test needs every kind", i)
		}
	}
	if len(want.ifs) == 0 || len(want.state.Counters) != len(want.ifs) {
		t.Fatalf("sequential run: %d interfaces, %d checkpointed counters", len(want.ifs), len(want.state.Counters))
	}
	if c := want.state.Counters[IfKey{IA: mute, If: 1}]; c.RxMsgs == 0 || c.TxMsgs != 0 {
		t.Fatalf("mute AS interface counter = %+v, want RX only", c)
	}
	for _, w := range []int{2, 4, 8} {
		if got := run(w); !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d:\n got %+v\nwant %+v", w, got, want)
		}
	}
}
