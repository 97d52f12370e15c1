package telemetry

import (
	"fmt"
	"io"
	"strconv"
	"unicode/utf8"
)

// EventKind classifies a trace event.
type EventKind uint8

const (
	// Beaconing.
	BeaconOriginated EventKind = iota
	BeaconPropagated
	BeaconFiltered // Reason: verify | loop | policy | store | down
	// Path revocation lifecycle.
	PathRevoked
	PathReinstated
	// Flow-level traffic.
	FlowRetry
	FlowSwitch
	// Chaos faults. Reason carries the fault kind (flap | gray | ...).
	FaultApplied
	FaultHealed
	// Path server: one immutable shard snapshot published (Actor:
	// shard, Subject: epoch, Aux: pair count; Reason: publish | revoke |
	// reinstate).
	SnapshotPublished

	numEventKinds
)

var kindNames = [numEventKinds]string{
	"beacon_originated",
	"beacon_propagated",
	"beacon_filtered",
	"path_revoked",
	"path_reinstated",
	"flow_retry",
	"flow_switch",
	"fault_applied",
	"fault_healed",
	"snapshot_published",
}

func (k EventKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// kindByName is the inverse of kindNames, built at init.
var kindByName = func() map[string]EventKind {
	m := make(map[string]EventKind, len(kindNames))
	for i, n := range kindNames {
		m[n] = EventKind(i)
	}
	return m
}()

// Event is one structured trace record. Time is virtual simulation time
// (sim.Time, nanoseconds); Actor is the acting entity (an AS in
// uint64 IA encoding, or a flow ID); Subject is the object acted on
// (neighbor AS, interface ID, link hash — kind-dependent); Aux is a
// kind-dependent extra (hop count, segment count, retry number); Reason
// is a short static string (rejection reason, fault kind) or "".
type Event struct {
	Time    int64
	Kind    EventKind
	Actor   uint64
	Subject uint64
	Aux     uint64
	Reason  string
}

// appendJSONString appends s as a JSON string literal (including the
// quotes). Unlike strconv.AppendQuote it emits only escapes valid in
// JSON (\uXXXX, never \x).
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			switch {
			case b == '"' || b == '\\':
				dst = append(dst, '\\', b)
			case b == '\n':
				dst = append(dst, '\\', 'n')
			case b == '\r':
				dst = append(dst, '\\', 'r')
			case b == '\t':
				dst = append(dst, '\\', 't')
			case b < 0x20:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xf])
			default:
				dst = append(dst, b)
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			// Invalid UTF-8 byte: escape as replacement character so the
			// output stays valid JSON (round-trips as U+FFFD).
			dst = append(dst, `�`...)
			i++
			continue
		}
		dst = append(dst, s[i:i+size]...)
		i += size
	}
	return append(dst, '"')
}

// AppendJSONL appends the event's single-line JSON encoding (with
// trailing newline). The field order and formatting are fixed, so equal
// events encode to equal bytes.
func (e Event) AppendJSONL(dst []byte) []byte {
	dst = append(dst, `{"t":`...)
	dst = strconv.AppendInt(dst, e.Time, 10)
	dst = append(dst, `,"kind":`...)
	dst = appendJSONString(dst, e.Kind.String())
	dst = append(dst, `,"actor":`...)
	dst = strconv.AppendUint(dst, e.Actor, 10)
	dst = append(dst, `,"subject":`...)
	dst = strconv.AppendUint(dst, e.Subject, 10)
	dst = append(dst, `,"aux":`...)
	dst = strconv.AppendUint(dst, e.Aux, 10)
	if e.Reason != "" {
		dst = append(dst, `,"reason":`...)
		dst = appendJSONString(dst, e.Reason)
	}
	return append(dst, '}', '\n')
}

// Text returns a human-oriented one-line rendering.
func (e Event) Text() string {
	s := fmt.Sprintf("%d %s actor=%d subject=%d aux=%d", e.Time, e.Kind, e.Actor, e.Subject, e.Aux)
	if e.Reason != "" {
		s += " reason=" + e.Reason
	}
	return s
}

// DecodeEvent parses one JSONL line produced by AppendJSONL (trailing
// newline optional). It is a strict parser for the fixed encoding — the
// fields must appear in encoding order — but accepts any valid JSON
// string escapes in the kind and reason values.
func DecodeEvent(line []byte) (Event, error) {
	var e Event
	p := &lineParser{buf: line}
	p.lit(`{"t":`)
	e.Time = p.int()
	p.lit(`,"kind":`)
	kind := p.str()
	p.lit(`,"actor":`)
	e.Actor = p.uint()
	p.lit(`,"subject":`)
	e.Subject = p.uint()
	p.lit(`,"aux":`)
	e.Aux = p.uint()
	if p.peek(`,"reason":`) {
		p.lit(`,"reason":`)
		e.Reason = p.str()
	}
	p.lit(`}`)
	p.end()
	if p.err != nil {
		return Event{}, p.err
	}
	k, ok := kindByName[kind]
	if !ok {
		return Event{}, fmt.Errorf("telemetry: unknown event kind %q", kind)
	}
	e.Kind = k
	return e, nil
}

type lineParser struct {
	buf []byte
	pos int
	err error
}

func (p *lineParser) fail(format string, args ...any) {
	if p.err == nil {
		p.err = fmt.Errorf("telemetry: decode at %d: %s", p.pos, fmt.Sprintf(format, args...))
	}
}

func (p *lineParser) peek(lit string) bool {
	return p.err == nil && len(p.buf)-p.pos >= len(lit) && string(p.buf[p.pos:p.pos+len(lit)]) == lit
}

func (p *lineParser) lit(lit string) {
	if p.err != nil {
		return
	}
	if !p.peek(lit) {
		p.fail("expected %q", lit)
		return
	}
	p.pos += len(lit)
}

func (p *lineParser) digits() []byte {
	start := p.pos
	if p.pos < len(p.buf) && p.buf[p.pos] == '-' {
		p.pos++
	}
	for p.pos < len(p.buf) && p.buf[p.pos] >= '0' && p.buf[p.pos] <= '9' {
		p.pos++
	}
	return p.buf[start:p.pos]
}

func (p *lineParser) int() int64 {
	if p.err != nil {
		return 0
	}
	v, err := strconv.ParseInt(string(p.digits()), 10, 64)
	if err != nil {
		p.fail("bad int: %v", err)
	}
	return v
}

func (p *lineParser) uint() uint64 {
	if p.err != nil {
		return 0
	}
	v, err := strconv.ParseUint(string(p.digits()), 10, 64)
	if err != nil {
		p.fail("bad uint: %v", err)
	}
	return v
}

// str parses a JSON string literal.
func (p *lineParser) str() string {
	if p.err != nil {
		return ""
	}
	if p.pos >= len(p.buf) || p.buf[p.pos] != '"' {
		p.fail("expected string")
		return ""
	}
	p.pos++
	var out []byte
	for {
		if p.pos >= len(p.buf) {
			p.fail("unterminated string")
			return ""
		}
		b := p.buf[p.pos]
		switch {
		case b == '"':
			p.pos++
			return string(out)
		case b == '\\':
			p.pos++
			if p.pos >= len(p.buf) {
				p.fail("truncated escape")
				return ""
			}
			esc := p.buf[p.pos]
			p.pos++
			switch esc {
			case '"', '\\', '/':
				out = append(out, esc)
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'u':
				if len(p.buf)-p.pos < 4 {
					p.fail("truncated \\u escape")
					return ""
				}
				v, err := strconv.ParseUint(string(p.buf[p.pos:p.pos+4]), 16, 32)
				if err != nil {
					p.fail("bad \\u escape: %v", err)
					return ""
				}
				p.pos += 4
				r := rune(v)
				if r >= 0xD800 && r < 0xDC00 { // high surrogate: need a pair
					if len(p.buf)-p.pos >= 6 && p.buf[p.pos] == '\\' && p.buf[p.pos+1] == 'u' {
						lo, err := strconv.ParseUint(string(p.buf[p.pos+2:p.pos+6]), 16, 32)
						if err == nil && rune(lo) >= 0xDC00 && rune(lo) < 0xE000 {
							r = 0x10000 + (r-0xD800)<<10 + (rune(lo) - 0xDC00)
							p.pos += 6
						} else {
							r = utf8.RuneError
						}
					} else {
						r = utf8.RuneError
					}
				} else if r >= 0xDC00 && r < 0xE000 { // lone low surrogate
					r = utf8.RuneError
				}
				out = utf8.AppendRune(out, r)
			default:
				p.fail("bad escape %q", esc)
				return ""
			}
		case b < 0x20:
			p.fail("raw control byte in string")
			return ""
		case b < utf8.RuneSelf:
			out = append(out, b)
			p.pos++
		default:
			// JSON text must be valid UTF-8 (RFC 8259 §8.1); rejecting
			// invalid bytes keeps decode∘encode the identity on accepted
			// input (the encoder never emits them).
			r, size := utf8.DecodeRune(p.buf[p.pos:])
			if r == utf8.RuneError && size == 1 {
				p.fail("invalid UTF-8 in string")
				return ""
			}
			out = append(out, p.buf[p.pos:p.pos+size]...)
			p.pos += size
		}
	}
}

func (p *lineParser) end() {
	if p.err != nil {
		return
	}
	if p.pos < len(p.buf) && p.buf[p.pos] == '\n' {
		p.pos++
	}
	if p.pos != len(p.buf) {
		p.fail("trailing data")
	}
}

// Tracer is a bounded ring of trace events. Emit must only be called
// from serial (or sequence-ordered commit) context — internal/sim's
// Trace method stages parallel-phase emissions and flushes them in
// commit order, so ring contents are byte-identical for any worker
// count. A nil *Tracer drops everything.
type Tracer struct {
	ring    []Event
	next    int
	wrapped bool
	// Dropped counts events discarded after the ring wrapped. Total
	// emitted is Dropped + len(Events()).
	Dropped uint64
}

// NewTracer creates a tracer retaining the most recent capacity events.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 1
	}
	return &Tracer{ring: make([]Event, 0, capacity)}
}

// Emit records an event. Serial context only; no-op on a nil tracer.
func (t *Tracer) Emit(e Event) {
	if t == nil {
		return
	}
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, e)
		return
	}
	t.Dropped++ // overwrote the oldest retained event
	t.wrapped = true
	t.ring[t.next] = e
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
	}
}

// Events returns the retained events, oldest first. The returned slice
// aliases the ring; do not Emit while holding it.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	if !t.wrapped {
		return t.ring
	}
	out := make([]Event, 0, len(t.ring))
	out = append(out, t.ring[t.next:]...)
	out = append(out, t.ring[:t.next]...)
	return out
}

// WriteJSONL writes the retained events as JSON lines, oldest first.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	var buf []byte
	for _, e := range t.Events() {
		buf = e.AppendJSONL(buf[:0])
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// WriteText writes the retained events in the human-oriented text form.
func (t *Tracer) WriteText(w io.Writer) error {
	for _, e := range t.Events() {
		if _, err := fmt.Fprintln(w, e.Text()); err != nil {
			return err
		}
	}
	return nil
}
