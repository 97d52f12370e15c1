package wire

import (
	"bytes"
	"strings"
	"testing"
)

// sample is one of every field kind, in the order walk reads them.
var sample = []byte{
	0x01,       // U8
	0x02, 0x03, // U16
	0x04, 0x05, 0x06, 0x07, // U32
	0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f, // U64
	0xaa, 0xbb, 0xcc, // Bytes(3)
	0xdd, 0xee, // Copy into [2]byte
	0, 0, 0, 2, 'h', 'i', // Str
	0, 0, 0, 2, 0, 1, 0, 2, // Count(U32, 2) and two U16 elements
}

type walked struct {
	u8    uint8
	u16   uint16
	u32   uint32
	u64   uint64
	bytes []byte
	copy  [2]byte
	str   string
	elems [2]uint16
}

func walk(r *Reader) (w walked) {
	w.u8, w.u16, w.u32, w.u64 = r.U8(), r.U16(), r.U32(), r.U64()
	w.bytes = r.Bytes(3)
	r.Copy(w.copy[:])
	w.str = r.Str()
	for i, n := 0, r.Count(r.U32(), 2); i < n && r.Err() == nil; i++ {
		w.elems[i] = r.U16()
	}
	return w
}

func TestReaderWalk(t *testing.T) {
	r := NewReader("test: sample", sample)
	w := walk(&r)
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	if w.u8 != 1 || w.u16 != 0x0203 || w.u32 != 0x04050607 || w.u64 != 0x08090a0b0c0d0e0f ||
		!bytes.Equal(w.bytes, []byte{0xaa, 0xbb, 0xcc}) || w.copy != [2]byte{0xdd, 0xee} ||
		w.str != "hi" || w.elems != [2]uint16{1, 2} {
		t.Errorf("walked %+v", w)
	}
}

// Every proper prefix is a truncation at some width, every extension
// has trailing bytes, and both name the prefix.
func TestReaderTruncationAndTrailing(t *testing.T) {
	for cut := 0; cut < len(sample); cut++ {
		r := NewReader("test: sample", sample[:cut])
		walk(&r)
		err := r.Done()
		if err == nil || !strings.HasPrefix(err.Error(), "test: sample ") {
			t.Errorf("prefix of %d bytes: error %v", cut, err)
		}
	}
	r := NewReader("test: sample", append(append([]byte(nil), sample...), 7, 7))
	walk(&r)
	if r.Err() != nil {
		t.Fatalf("Err before Done: %v", r.Err())
	}
	if err := r.Done(); err == nil || err.Error() != "test: sample has 2 trailing bytes" {
		t.Errorf("trailing bytes: error %v", err)
	}
}

func TestReaderWidths(t *testing.T) {
	reads := []struct {
		name  string
		width int
		read  func(*Reader)
	}{
		{"U8", 1, func(r *Reader) { r.U8() }},
		{"U16", 2, func(r *Reader) { r.U16() }},
		{"U32", 4, func(r *Reader) { r.U32() }},
		{"U64", 8, func(r *Reader) { r.U64() }},
		{"Bytes", 5, func(r *Reader) { r.Bytes(5) }},
		{"Copy", 3, func(r *Reader) { r.Copy(make([]byte, 3)) }},
		{"Str", 6, func(r *Reader) { r.Str() }},
	}
	full := []byte{0, 0, 0, 2, 'o', 'k', 9, 9}
	for _, tc := range reads {
		r := NewReader("w", full[:tc.width])
		if tc.read(&r); r.Done() != nil {
			t.Errorf("%s over exactly %d bytes: %v", tc.name, tc.width, r.Err())
		}
		r = NewReader("w", full[:tc.width-1])
		if tc.read(&r); r.Err() == nil {
			t.Errorf("%s over %d bytes: no error", tc.name, tc.width-1)
		}
	}
	r := NewReader("w", full)
	if r.Bytes(-1); r.Err() == nil {
		t.Error("Bytes(-1): no error")
	}
}

func TestReaderStickyFirstError(t *testing.T) {
	r := NewReader("sticky", []byte{1, 2, 3})
	r.U8()
	r.U32() // fails at offset 1
	first := r.Err()
	if first == nil || !strings.Contains(first.Error(), "truncated at offset 1 (need 4 of 3)") {
		t.Fatalf("first error %v", first)
	}
	if r.U8() != 0 || r.U16() != 0 || r.Bytes(1) != nil || r.Str() != "" || r.Count(1, 1) != 0 || r.Rest() != nil {
		t.Error("reads after the first error must return zero")
	}
	r.Failf("second")
	if r.Err() != first || r.Done() != first {
		t.Errorf("error replaced: %v", r.Err())
	}
	r = NewReader("sticky", []byte{1})
	r.Failf("bad tag %d", 7)
	if err := r.Done(); err == nil || err.Error() != "sticky bad tag 7" {
		t.Errorf("Failf error %v", err)
	}
}

func TestReaderCount(t *testing.T) {
	for _, tc := range []struct {
		name    string
		n       uint32
		minSize int
		left    int
		ok      bool
	}{
		{"exactly fits", 4, 6, 24, true},
		{"one over", 5, 6, 24, false},
		{"one byte short", 4, 6, 23, false},
		{"zero of nothing", 0, 6, 0, true},
		{"max count", 0xFFFFFFFF, 1, 1 << 10, false},
		{"max count, wide elements", 0xFFFFFFFF, 1 << 20, 1 << 10, false},
	} {
		r := NewReader("count", make([]byte, tc.left))
		got := r.Count(tc.n, tc.minSize)
		if tc.ok && (got != int(tc.n) || r.Err() != nil) {
			t.Errorf("%s: got %d, %v", tc.name, got, r.Err())
		}
		if !tc.ok && (got != 0 || r.Err() == nil) {
			t.Errorf("%s: got %d, %v", tc.name, got, r.Err())
		}
	}
}

func TestReaderCanonical(t *testing.T) {
	in := []byte{0, 2, 0, 1}
	read := func() Reader {
		r := NewReader("canon", in)
		r.U16()
		r.U16()
		return r
	}
	if r := read(); r.Canonical([]byte{0, 2, 0, 1}) != nil {
		t.Errorf("same bytes: %v", r.Err())
	}
	if r := read(); r.Canonical([]byte{0, 1, 0, 2}) == nil || r.Err().Error() != "canon is not in canonical form" {
		t.Errorf("different bytes: %v", r.Err())
	}
	r := NewReader("canon", in)
	r.U16()
	if err := r.Canonical(in); err == nil || err.Error() != "canon has 2 trailing bytes" {
		t.Errorf("unread bytes: %v", err)
	}
}

func TestReaderRest(t *testing.T) {
	r := NewReader("rest", []byte{1, 2, 3})
	r.U8()
	if got := r.Rest(); !bytes.Equal(got, []byte{2, 3}) || r.Done() != nil {
		t.Errorf("Rest = %v, %v", got, r.Err())
	}
}

func TestReaderAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() {
		r := NewReader("test: sample", sample)
		walk(&r)
		if r.Done() != nil {
			t.Fatal(r.Err())
		}
	}); n != 1 { // the one string Str returns
		t.Errorf("successful walk: %v allocs, want 1 (Str's string)", n)
	}
	fixed := sample[:20]
	if n := testing.AllocsPerRun(100, func() {
		r := NewReader("test: fixed", fixed)
		var c [2]byte
		_, _, _, _ = r.U8(), r.U16(), r.U32(), r.U64()
		r.Bytes(3)
		r.Copy(c[:])
		if r.Done() != nil {
			t.Fatal(r.Err())
		}
	}); n != 0 {
		t.Errorf("fixed-width walk: %v allocs, want 0", n)
	}
}

func TestFrames(t *testing.T) {
	payloads := [][]byte{[]byte("header"), {}, bytes.Repeat([]byte{0x5a}, 300)}
	var log []byte
	for _, p := range payloads {
		log = AppendFrame(log, p)
	}
	rest := log
	for i, want := range payloads {
		var got []byte
		var ok bool
		if got, rest, ok = NextFrame(rest); !ok || !bytes.Equal(got, want) {
			t.Fatalf("frame %d: %q, %v", i, got, ok)
		}
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes after the last frame", len(rest))
	}
	if _, _, ok := NextFrame(rest); ok {
		t.Error("NextFrame on nothing: ok")
	}

	one := AppendFrame(nil, []byte("payload"))
	for name, b := range map[string][]byte{
		"torn header":  one[:frameHeader-1],
		"torn payload": one[:len(one)-1],
		"CRC bit":      flip(one, 4, 0x01),
		"payload bit":  flip(one, frameHeader+2, 0x80),
		"length grown": flip(one, 3, 0x10),
		"length max":   append([]byte{0xff, 0xff, 0xff, 0xff}, one[4:]...),
	} {
		if payload, rest, ok := NextFrame(b); ok || payload != nil || len(rest) != len(b) {
			t.Errorf("%s: ok=%v payload=%v rest=%d of %d", name, ok, payload, len(rest), len(b))
		}
	}
}

func flip(b []byte, at int, mask byte) []byte {
	out := append([]byte(nil), b...)
	out[at] ^= mask
	return out
}
