package chaos

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"testing"
	"time"

	"scionmpr/internal/addr"
	"scionmpr/internal/sim"
	"scionmpr/internal/telemetry"
	"scionmpr/internal/topology"
)

// midStormState is an engine's state 2.5 s into overlapping faults of
// every kind, so each section of the blob is populated.
func midStormState(t *testing.T) []byte {
	t.Helper()
	s := &sim.Simulator{}
	e := NewEngine(s, newRecorder(s))
	sched := &Schedule{End: sim.Time(10 * time.Second), Events: []Event{
		{Kind: Flap, Link: 3, At: 0, Down: 5 * time.Second},
		{Kind: Flap, Link: 3, At: sim.Time(time.Second), Down: 5 * time.Second},
		{Kind: Flap, Link: 1, At: sim.Time(time.Second), Down: 5 * time.Second},
		{Kind: Gray, Link: 2, At: 0, Down: 6 * time.Second, Rate: 0.1},
		{Kind: Gray, Link: 2, At: sim.Time(time.Second), Down: 4 * time.Second, Rate: 0.5},
		{Kind: Spike, Link: 2, At: 0, Down: 4 * time.Second, Delay: 50 * time.Millisecond},
		{Kind: CrashAS, IA: addr.MustIA(1, 7), At: sim.Time(2 * time.Second), Down: 3 * time.Second},
	}}
	if err := e.Apply(sched); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(sim.Time(2500 * time.Millisecond))
	return e.AppendState(nil)
}

func restore(b []byte) (*Engine, error) {
	e := NewEngine(&sim.Simulator{}, nil)
	return e, e.RestoreState(b)
}

func TestEngineStateRoundTrip(t *testing.T) {
	blob := midStormState(t)
	e, err := restore(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(e.AppendState(nil), blob) {
		t.Error("restored engine appends different bytes")
	}
	if e.failDepth[3] != 2 || len(e.grayRates[2]) != 2 || len(e.spikes[2]) != 1 ||
		e.crashDepth[addr.MustIA(1, 7)] != 1 || e.Injections[Flap] != 3 {
		t.Errorf("restored %+v", e)
	}
}

func TestEngineStateRejectsBadInput(t *testing.T) {
	blob := midStormState(t)
	for cut := 0; cut < len(blob); cut++ {
		if _, err := restore(blob[:cut]); err == nil {
			t.Fatalf("prefix of %d bytes accepted", cut)
		}
	}
	if _, err := restore(append(append([]byte(nil), blob...), 0)); err == nil {
		t.Error("trailing byte accepted")
	}
	// failDepth holds links 1 and 3 in that order; swapped, every field
	// still decodes but the blob is not what AppendState writes.
	swapped := append([]byte(nil), blob...)
	copy(swapped[4:12], blob[12:20])
	copy(swapped[12:20], blob[4:12])
	if _, err := restore(swapped); err == nil {
		t.Error("unsorted failDepth accepted")
	}
	repeated := append([]byte(nil), blob...)
	copy(repeated[12:20], blob[4:12])
	if _, err := restore(repeated); err == nil {
		t.Error("repeated failDepth key accepted")
	}
}

// TestEngineStateReinstalls: a restored engine installs the faults it
// holds on its targets — the links held down, the strongest gray rate and
// the largest spike per link, the crashed ASes — and nothing else: no
// hook fires, no trace is emitted, no injection is counted.
func TestEngineStateReinstalls(t *testing.T) {
	blob := midStormState(t)
	s := &sim.Simulator{}
	tracer := telemetry.NewTracer(16)
	s.SetTracer(tracer)
	rec := newRecorder(s)
	e := NewEngine(s, rec)
	e.AddCrashTarget(rec)
	hooks := 0
	e.OnFail = func(topology.LinkID) { hooks++ }
	if err := e.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	if !rec.failed[1] || !rec.failed[3] || len(rec.failed) != 2 {
		t.Errorf("failed links %v, want 1 and 3", rec.failed)
	}
	if rec.loss[2] != 0.5 || len(rec.loss) != 1 {
		t.Errorf("gray rates %v, want link 2 at the stronger 0.5", rec.loss)
	}
	if rec.delay[2] != 50*time.Millisecond || len(rec.delay) != 1 {
		t.Errorf("spikes %v, want link 2 at 50ms", rec.delay)
	}
	if !rec.downAS[addr.MustIA(1, 7)] || len(rec.downAS) != 1 {
		t.Errorf("crashed %v, want 1-7", rec.downAS)
	}
	if hooks != 0 || len(tracer.Events()) != 0 {
		t.Errorf("re-install fired %d hooks and %d trace events", hooks, len(tracer.Events()))
	}
	if !bytes.Equal(e.AppendState(nil), blob) {
		t.Error("re-install changed the engine's state")
	}
}

// TestEngineStateRejectsUnwrittenValues: RestoreState installs what it
// reads, so it accepts no value AppendState never writes — a zero depth,
// an empty stack, a rate outside (0, 1], a delay that is not positive.
func TestEngineStateRejectsUnwrittenValues(t *testing.T) {
	u32 := binary.BigEndian.AppendUint32
	u64 := binary.BigEndian.AppendUint64
	none := func(b []byte, sections int) []byte {
		for i := 0; i < sections; i++ {
			b = u32(b, 0)
		}
		return b
	}
	gray := func(rate float64) []byte {
		b := u32(u32(u32(u32(nil, 0), 1), 2), 1) // no links down; link 2, one rate
		return none(u64(b, math.Float64bits(rate)), 3)
	}
	spike := func(d int64) []byte {
		b := u32(u32(u32(none(nil, 2), 1), 2), 1) // link 2, one delay
		return none(u64(b, uint64(d)), 2)
	}
	for name, blob := range map[string][]byte{
		"zero link depth":  none(u32(u32(u32(nil, 1), 5), 0), 4),
		"zero crash depth": none(u32(u64(u32(none(nil, 3), 1), addr.MustIA(1, 7).Uint64()), 0), 1),
		"empty gray stack": none(u32(u32(u32(none(nil, 1), 1), 2), 0), 3),
		"empty spike":      none(u32(u32(u32(none(nil, 2), 1), 2), 0), 2),
		"rate 0":           gray(0),
		"rate above 1":     gray(1.5),
		"rate NaN":         gray(math.NaN()),
		"negative rate":    gray(-0.25),
		"delay 0":          spike(0),
		"negative delay":   spike(-int64(time.Millisecond)),
	} {
		if _, err := restore(blob); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// The blob helpers are sound: the same shapes with written values pass.
	for name, blob := range map[string][]byte{"rate 1": gray(1), "delay 1ns": spike(1)} {
		if _, err := restore(blob); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// 16 bytes claiming 1<<28 gray rates allocated 2 GB before counts were
// checked against the bytes behind them.
func TestEngineStateUnbackedCountAllocatesNothing(t *testing.T) {
	var blob []byte
	for _, v := range []uint32{0, 1, 9, 1 << 28} { // no failDepth, one gray link, its id, m
		blob = binary.BigEndian.AppendUint32(blob, v)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := restore(blob)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Error("unbacked count accepted")
	}
	if d := after.TotalAlloc - before.TotalAlloc; d > 1<<20 {
		t.Errorf("RestoreState allocated %d bytes for a 16-byte blob", d)
	}
}
