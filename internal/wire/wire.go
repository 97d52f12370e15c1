// Package wire is the byte-level codec under every control-plane and
// checkpoint format here: PCBs (seg), beaconing snapshots (beacon),
// selector and fault-engine state (core, chaos), the path-server WAL and
// its checkpoints (pathsrv), the segment lookup messages (scion). Writers
// append big-endian fields with encoding/binary; everything read back
// goes through Reader, everything checksummed through AppendFrame and
// NextFrame.
//
// The contract, stated once: a decoder on Reader rejects truncated input
// and trailing bytes (Done), never sizes an allocation from a count the
// remaining bytes cannot back (Count), and stops at the first error. The
// data-plane header codec (slayers) stays separate: its offsets are the
// SCION specification's, not ours.
package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Reader is a cursor over a byte slice with a sticky error: after the
// first failure every read returns zero and the cursor stays put, so a
// decoder reads a whole record and checks Err or Done once — but a loop
// whose bound came from the input must test Err, or take its bound from
// Count. The zero Reader is empty; use NewReader.
type Reader struct {
	b      []byte
	off    int
	err    error
	prefix string
}

// NewReader reads b. prefix names what is decoded ("pathsrv:
// checkpoint") and starts every error message.
func NewReader(prefix string, b []byte) Reader { return Reader{b: b, prefix: prefix} }

// Failf latches an error, unless one is latched already.
func (r *Reader) Failf(format string, args ...interface{}) {
	if r.err == nil {
		r.err = fmt.Errorf(r.prefix+" "+format, args...)
	}
}

// Err is the first error, or nil.
func (r *Reader) Err() error { return r.err }

// Done is Err, or an error naming the bytes left unread.
func (r *Reader) Done() error {
	if r.err == nil && r.off != len(r.b) {
		r.Failf("has %d trailing bytes", len(r.b)-r.off)
	}
	return r.err
}

// Canonical is Done for formats with one encoding per value: it also
// fails unless again, the decoded value encoded anew, is the input, which
// rules out repeated keys and unsorted entries without per-loop checks.
func (r *Reader) Canonical(again []byte) error {
	if r.Done() == nil && !bytes.Equal(again, r.b) {
		r.Failf("is not in canonical form")
	}
	return r.err
}

// Bytes returns the next n bytes, aliasing the input, or nil.
func (r *Reader) Bytes(n int) []byte {
	if r.err != nil || n < 0 || len(r.b)-r.off < n {
		r.Failf("truncated at offset %d (need %d of %d)", r.off, n, len(r.b))
		return nil
	}
	out := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return out
}

// Rest returns every byte not yet read.
func (r *Reader) Rest() []byte { return r.Bytes(len(r.b) - r.off) }

// Copy fills dst with the next len(dst) bytes.
func (r *Reader) Copy(dst []byte) { copy(dst, r.Bytes(len(dst))) }

func (r *Reader) U8() uint8 {
	if b := r.Bytes(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *Reader) U16() uint16 {
	if b := r.Bytes(2); b != nil {
		return binary.BigEndian.Uint16(b)
	}
	return 0
}

func (r *Reader) U32() uint32 {
	if b := r.Bytes(4); b != nil {
		return binary.BigEndian.Uint32(b)
	}
	return 0
}

func (r *Reader) U64() uint64 {
	if b := r.Bytes(8); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

// Str reads a u32 length and that many bytes.
func (r *Reader) Str() string { return string(r.Bytes(int(r.U32()))) }

// Count turns an element count just read (r.Count(r.U32(), 18)) into a
// loop bound and allocation size: it fails unless the bytes left can
// hold n elements of at least minSize (> 0) bytes each, and returns 0
// once the reader has failed.
func (r *Reader) Count(n uint32, minSize int) int {
	if r.err == nil && uint64(n)*uint64(minSize) > uint64(len(r.b)-r.off) {
		r.Failf("count %d at offset %d needs %d bytes, %d left", n, r.off, uint64(n)*uint64(minSize), len(r.b)-r.off)
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

// frameHeader is u32 payload length + u32 CRC-32 (IEEE) of the payload.
const frameHeader = 8

// AppendFrame appends payload to dst as one frame.
func AppendFrame(dst, payload []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...)
}

// NextFrame splits the frame at the head of b into its payload and what
// follows it. ok is false when the header or the payload is torn or the
// checksum does not match; callers decide whether that ends a replay
// (pathsrv.Recover) or is an error (beacon.Resume).
func NextFrame(b []byte) (payload, rest []byte, ok bool) {
	if len(b) < frameHeader {
		return nil, b, false
	}
	n := uint64(binary.BigEndian.Uint32(b))
	if n > uint64(len(b)-frameHeader) {
		return nil, b, false
	}
	payload = b[frameHeader : frameHeader+n : frameHeader+n]
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(b[4:]) {
		return nil, b, false
	}
	return payload, b[frameHeader+n:], true
}
