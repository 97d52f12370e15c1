package sim

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"scionmpr/internal/telemetry"
)

// TestTraceParallelMatchesSequential: trace events emitted from inside
// parallel segments (staged on the actor's frame, flushed at commit)
// land in the ring in exactly the order a sequential run emits them,
// for any worker count — byte-identical JSONL.
func TestTraceParallelMatchesSequential(t *testing.T) {
	run := func(workers int) string {
		var s Simulator
		s.SetWorkers(workers)
		tr := telemetry.NewTracer(1 << 10)
		s.SetTracer(tr)
		if s.tracer != tr {
			t.Fatal("SetTracer did not attach the tracer")
		}
		sh1, sh2 := s.NewShard(), s.NewShard()
		at := Time(time.Second)
		// Each event emits a trace while running and schedules a sharded
		// follow-up (a deferred effect) that traces again one second later.
		emit := func(shard uint32, id uint64) func() {
			return func() {
				s.Trace(shard, telemetry.Event{Kind: telemetry.FlowRetry, Actor: id})
				s.Trace(shard, telemetry.Event{Kind: telemetry.FlowSwitch, Actor: id, Aux: 1})
				s.AtShard(shard, s.Now()+Time(time.Second), func() {
					s.Trace(shard, telemetry.Event{Kind: telemetry.PathRevoked, Actor: id})
				})
			}
		}
		s.AtShard(sh1, at, emit(sh1, 1))
		s.AtShard(sh2, at, emit(sh2, 2))
		s.AtShard(sh1, at, emit(sh1, 3))
		// Serial barrier in the middle of the batch traces directly.
		s.At(at, func() { s.Trace(SerialShard, telemetry.Event{Kind: telemetry.FaultApplied, Actor: 4}) })
		s.AtShard(sh2, at, emit(sh2, 5))
		s.Run()
		var buf bytes.Buffer
		if err := tr.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	seq := run(1)
	// 4 sharded events × 2 traces + 1 serial + 4 follow-ups = 13 lines.
	if got := strings.Count(seq, "\n"); got != 13 {
		t.Fatalf("sequential run emitted %d traces, want 13:\n%s", got, seq)
	}
	for _, w := range []int{2, 4, 8} {
		if got := run(w); got != seq {
			t.Errorf("workers=%d: trace stream differs from sequential:\n%s\nwant:\n%s", w, got, seq)
		}
	}
}

// TestTraceStampsVirtualTime: Trace overwrites Event.Time with the
// virtual clock, not wall time.
func TestTraceStampsVirtualTime(t *testing.T) {
	var s Simulator
	tr := telemetry.NewTracer(8)
	s.SetTracer(tr)
	s.At(Time(5*time.Second), func() {
		s.Trace(SerialShard, telemetry.Event{Kind: telemetry.BeaconOriginated, Time: 999})
	})
	s.Run()
	evs := tr.Events()
	if len(evs) != 1 || evs[0].Time != int64(5*time.Second) {
		t.Fatalf("events = %+v, want one event at t=5s", evs)
	}
}

// TestTraceWithoutTracerIsNoop: Trace with no tracer attached must not
// touch frames or panic, in serial or parallel context.
func TestTraceWithoutTracerIsNoop(t *testing.T) {
	var s Simulator
	s.SetWorkers(4)
	sh1, sh2 := s.NewShard(), s.NewShard()
	at := Time(time.Second)
	s.AtShard(sh1, at, func() { s.Trace(sh1, telemetry.Event{Kind: telemetry.FlowRetry}) })
	s.AtShard(sh2, at, func() { s.Trace(sh2, telemetry.Event{Kind: telemetry.FlowRetry}) })
	s.Run()
}

// TestTraceForeignShardPanics: tracing as a shard that is not currently
// executing is the trace analogue of a cross-shard side effect and must
// panic rather than silently break determinism.
func TestTraceForeignShardPanics(t *testing.T) {
	var s Simulator
	s.SetWorkers(4)
	s.SetTracer(telemetry.NewTracer(8))
	sh1, sh2 := s.NewShard(), s.NewShard()
	foreign := s.NewShard() // never scheduled, so never executing
	at := Time(time.Second)
	s.AtShard(sh1, at, func() {
		if s.inPar {
			s.Trace(foreign, telemetry.Event{Kind: telemetry.FlowRetry})
		}
	})
	s.AtShard(sh2, at, func() {})
	defer func() {
		if recover() == nil {
			t.Error("trace as a non-executing shard from parallel execution must panic")
		}
	}()
	s.Run()
}

// TestSimTelemetryGauges: SetTelemetry exposes executed/pending as
// deterministic gauges and the parallel scheduler shape as volatile.
func TestSimTelemetryGauges(t *testing.T) {
	var s Simulator
	s.SetWorkers(4)
	reg := telemetry.NewRegistry()
	s.SetTelemetry(reg)
	sh1, sh2 := s.NewShard(), s.NewShard()
	at := Time(time.Second)
	s.AtShard(sh1, at, func() {})
	s.AtShard(sh2, at, func() {})
	s.Run()

	var snap bytes.Buffer
	if err := reg.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	if want := "sim_events_executed 2\nsim_events_pending 0\n"; snap.String() != want {
		t.Fatalf("snapshot = %q, want %q", snap.String(), want)
	}
	var prom bytes.Buffer
	if err := reg.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prom.String(), "sim_parallel_segments 1") {
		t.Fatalf("prom output missing parallel segment count:\n%s", prom.String())
	}
}
