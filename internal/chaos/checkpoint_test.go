package chaos

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
	"time"

	"scionmpr/internal/addr"
	"scionmpr/internal/sim"
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
	e := NewEngine(&sim.Simulator{})
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
