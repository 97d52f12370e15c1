package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestEventJSONLGolden(t *testing.T) {
	cases := []struct {
		ev   Event
		want string
	}{
		{
			Event{Time: 1000, Kind: BeaconOriginated, Actor: 7, Subject: 2, Aux: 9},
			`{"t":1000,"kind":"beacon_originated","actor":7,"subject":2,"aux":9}` + "\n",
		},
		{
			Event{Time: -5, Kind: BeaconFiltered, Actor: 1, Reason: "loop"},
			`{"t":-5,"kind":"beacon_filtered","actor":1,"subject":0,"aux":0,"reason":"loop"}` + "\n",
		},
		{
			Event{Kind: FaultApplied, Reason: "a\"b\\c\nd"},
			`{"t":0,"kind":"fault_applied","actor":0,"subject":0,"aux":0,"reason":"a\"b\\c\nd"}` + "\n",
		},
	}
	for _, c := range cases {
		got := string(c.ev.AppendJSONL(nil))
		if got != c.want {
			t.Errorf("AppendJSONL(%+v) = %q, want %q", c.ev, got, c.want)
		}
		// Each line must be valid JSON by the stdlib's definition.
		var m map[string]any
		if err := json.Unmarshal([]byte(got), &m); err != nil {
			t.Errorf("invalid JSON %q: %v", got, err)
		}
		// And decode back to the original event.
		dec, err := DecodeEvent([]byte(got))
		if err != nil {
			t.Errorf("DecodeEvent(%q): %v", got, err)
		} else if dec != c.ev {
			t.Errorf("round trip %+v != %+v", dec, c.ev)
		}
	}
}

func TestDecodeEventRejectsGarbage(t *testing.T) {
	bad := []string{
		"",
		"{}",
		`{"t":1}`,
		`{"t":x,"kind":"beacon_originated","actor":0,"subject":0,"aux":0}`,
		`{"t":1,"kind":"nope","actor":0,"subject":0,"aux":0}`,
		`{"t":1,"kind":"beacon_originated","actor":0,"subject":0,"aux":0}trailing`,
		`{"t":1,"kind":"beacon_originated","actor":0,"subject":0,"aux":0,"reason":"unterminated}`,
	}
	for _, line := range bad {
		if _, err := DecodeEvent([]byte(line)); err == nil {
			t.Errorf("DecodeEvent(%q) accepted garbage", line)
		}
	}
}

func TestDecodeEventEscapes(t *testing.T) {
	// The strict decoder accepts any valid JSON escape in strings, even
	// ones our encoder never produces.
	line := `{"t":1,"kind":"beacon_originated","actor":0,"subject":0,"aux":0,"reason":"A\/\b\fé😀"}`
	ev, err := DecodeEvent([]byte(line))
	if err != nil {
		t.Fatal(err)
	}
	if want := "A/\b\fé😀"; ev.Reason != want {
		t.Fatalf("reason = %q, want %q", ev.Reason, want)
	}
	// Lone surrogates decode to U+FFFD, matching encoding/json.
	line = `{"t":1,"kind":"beacon_originated","actor":0,"subject":0,"aux":0,"reason":"\ud800x"}`
	ev, err = DecodeEvent([]byte(line))
	if err != nil {
		t.Fatal(err)
	}
	if want := "�x"; ev.Reason != want {
		t.Fatalf("lone surrogate reason = %q, want %q", ev.Reason, want)
	}
}

func TestAppendJSONStringInvalidUTF8(t *testing.T) {
	got := string(appendJSONString(nil, "a\xffb"))
	var s string
	if err := json.Unmarshal([]byte(got), &s); err != nil {
		t.Fatalf("invalid JSON %q: %v", got, err)
	}
	if s != "a�b" {
		t.Fatalf("decoded %q, want replacement char", s)
	}
}

func TestTracerRingWrap(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Emit(Event{Time: int64(i), Kind: FlowRetry})
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := int64(6 + i); ev.Time != want {
			t.Fatalf("event %d has time %d, want %d (oldest-first order)", i, ev.Time, want)
		}
	}
	if tr.Dropped != 6 {
		t.Fatalf("Dropped = %d, want 6", tr.Dropped)
	}
}

func TestNilTracer(t *testing.T) {
	var tr *Tracer
	tr.Emit(Event{Kind: BeaconOriginated})
	if evs := tr.Events(); evs != nil {
		t.Fatalf("nil tracer events = %v", evs)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil tracer WriteJSONL = %q, %v", buf.String(), err)
	}
}

func TestTracerWriteFormats(t *testing.T) {
	tr := NewTracer(8)
	tr.Emit(Event{Time: 10, Kind: PathRevoked, Actor: 1, Subject: 2, Aux: 3, Reason: "soft"})
	var jl, txt bytes.Buffer
	if err := tr.WriteJSONL(&jl); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	if want := `{"t":10,"kind":"path_revoked","actor":1,"subject":2,"aux":3,"reason":"soft"}` + "\n"; jl.String() != want {
		t.Fatalf("JSONL = %q, want %q", jl.String(), want)
	}
	if want := "10 path_revoked actor=1 subject=2 aux=3 reason=soft\n"; txt.String() != want {
		t.Fatalf("text = %q, want %q", txt.String(), want)
	}
}

func TestKindNamesComplete(t *testing.T) {
	for k := EventKind(0); k < numEventKinds; k++ {
		name := k.String()
		if name == "" || strings.HasPrefix(name, "kind(") {
			t.Fatalf("kind %d has no name", k)
		}
		if kindByName[name] != k {
			t.Fatalf("kindByName[%q] = %v, want %v", name, kindByName[name], k)
		}
	}
}

// FuzzTraceDecode checks the decoder never panics and that every line it
// accepts round-trips: decode → encode → decode must reproduce the same
// event and the same bytes.
func FuzzTraceDecode(f *testing.F) {
	seed := [][]byte{
		Event{Time: 1, Kind: BeaconOriginated, Actor: 2, Subject: 3, Aux: 4}.AppendJSONL(nil),
		Event{Time: -9, Kind: BeaconFiltered, Reason: "loop"}.AppendJSONL(nil),
		Event{Kind: FaultApplied, Reason: "a\"\\\n\t\x01é😀"}.AppendJSONL(nil),
		[]byte(`{"t":1,"kind":"flow_retry","actor":0,"subject":0,"aux":0,"reason":"😀"}`),
		[]byte(`{"t":0,"kind":"x","actor":0,"subject":0,"aux":0}`),
		[]byte("{}"),
		[]byte(""),
	}
	for _, s := range seed {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		ev, err := DecodeEvent(line)
		if err != nil {
			return // rejected input: only requirement is no panic
		}
		enc := ev.AppendJSONL(nil)
		ev2, err := DecodeEvent(enc)
		if err != nil {
			t.Fatalf("re-decode of %q (from %q): %v", enc, line, err)
		}
		if ev2 != ev {
			t.Fatalf("round trip mismatch: %+v != %+v (line %q)", ev2, ev, line)
		}
		if enc2 := ev2.AppendJSONL(nil); !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding not canonical: %q != %q", enc, enc2)
		}
	})
}
