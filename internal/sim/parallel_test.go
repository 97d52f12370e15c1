package sim

import (
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
// barrier — everything before it (in seq order) commits first.
func TestShardFIFOAndSerialBarrier(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var s Simulator
		s.SetWorkers(workers)
		sh1, sh2 := s.NewShard(), s.NewShard()
		var order []int
		// Interleave two shards plus a serial barrier, all at t=1s.
		at := Time(time.Second)
		s.AtShard(sh1, at, func() { s.appendOrdered(&order, 1, sh1) })
		s.AtShard(sh2, at, func() { s.appendOrdered(&order, 2, sh2) })
		s.AtShard(sh1, at, func() { s.appendOrdered(&order, 3, sh1) })
		s.At(at, func() { order = append(order, 4) }) // serial barrier
		s.AtShard(sh2, at, func() { s.appendOrdered(&order, 5, sh2) })
		s.Run()
		want := []int{1, 2, 3, 4, 5}
		if len(order) != len(want) {
			t.Fatalf("workers=%d: order = %v, want %v", workers, order, want)
		}
		for i := range want {
			if order[i] != want[i] {
				t.Fatalf("workers=%d: order = %v, want %v", workers, order, want)
			}
		}
	}
}

// appendOrdered records id into order at commit time, from a sharded
// event: directly when running inline, deferred when in a parallel
// segment.
func (s *Simulator) appendOrdered(order *[]int, id int, shard uint32) {
	if s.inPar {
		s.deferOp(shard, op{kind: opFunc, fn: func() { *order = append(*order, id) }})
		return
	}
	*order = append(*order, id)
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
