// Package slayers defines the SCION packet wire format: the common
// header, the address header, and the standard one-segment SCION path
// header with InfoField/HopField layouts, following the reference
// layout of the SCION header specification (and the shape of the
// reference implementation's slayers package) closely enough that a
// byte-level forwarding engine can run on real packet buffers.
//
// Both directions are allocation-free over caller-owned buffers:
// SerializeTo writes into a caller slice, DecodeFromBytes parses by
// aliasing the input (decoded host addresses and the payload share the
// input buffer's backing array). The decoder is total: arbitrary input
// bytes either decode successfully or return an error — it never
// panics and never reads past len(data) (FuzzPacketDecode enforces
// this).
//
// A border router decodes strictly once: the first router to see a
// packet runs DecodeFromBytes (or takes what SerializeTo wrote), and
// every later one reads the path through RawPath, or an SCMP's walk
// through RawWalk, straight from the raw bytes, decoding in full again
// only where it needs the whole header (delivery, SCMP).
//
// Layout (all fields big-endian):
//
//	common header (12 bytes)
//	  0      Version(4) | TrafficClass(8) | FlowID(20)
//	  4      NextHdr
//	  5      HdrLen            header length in 4-byte units
//	  6      PayloadLen
//	  8      PathType          0 = empty, 1 = SCION
//	  9      DT(2) DL(2) ST(2) SL(2)
//	  10     reserved (2 bytes)
//	address header
//	  12     DstIA (8 bytes)
//	  20     SrcIA (8 bytes)
//	  28     DstHost, zero-padded to a 4-byte multiple
//	  ..     SrcHost, zero-padded to a 4-byte multiple
//	path header (PathType = 1)
//	  ..     PathMeta (4 bytes): CurrINF(2) CurrHF(6) RSV(6)
//	         Seg0Len(6) Seg1Len(6) Seg2Len(6)
//	  ..     InfoField (8 bytes): Flags(1) RSV(1) SegID(2) Timestamp(4)
//	  ..     HopField (12 bytes) x Seg0Len:
//	         Flags(1) ExpTime(1) ConsIngress(2) ConsEgress(2) MAC(6)
//
// The 6-byte hop field MAC covers the tuple (AS, ConsIngress,
// ConsEgress): the AS identity enters through the forwarding key the
// verifying border router uses, the interface pair through the MAC
// input, so a hop field moved to another AS or rewritten to different
// interfaces fails verification (internal/dataplane computes the MACs
// and checks each hop against one expected MAC per interface pair of
// its AS; this package only carries the bytes).
package slayers

import (
	"encoding/binary"
	"fmt"

	"scionmpr/internal/addr"
)

// Header geometry constants.
const (
	CmnHdrLen = 12 // common header bytes
	IALen     = 8  // one ISD-AS on the wire
	MetaLen   = 4  // path meta field
	InfoLen   = 8  // one info field
	HopLen    = 12 // one hop field
	MACLen    = 6  // hop field MAC bytes

	// MaxHops is the largest hop count a 6-bit segment length encodes.
	MaxHops = 63
	// MaxPayloadLen is the largest payload the 16-bit length carries.
	MaxPayloadLen = 1<<16 - 1
)

// Path types.
const (
	PathTypeEmpty uint8 = 0 // no path header (AS-local / walked SCMP)
	PathTypeSCION uint8 = 1 // one-segment standard SCION path
)

// Next-header protocol numbers.
const (
	NextHdrUDP  uint8 = 17  // data packets (payload is opaque here)
	NextHdrSCMP uint8 = 202 // SCION control message protocol
)

// InfoField describes one path segment.
type InfoField struct {
	// ConsDir reports whether the segment is traversed in construction
	// direction.
	ConsDir bool
	// SegID is the segment identifier used by MAC chaining in the full
	// protocol; carried verbatim here.
	SegID uint16
	// Timestamp is the segment creation time (Unix seconds).
	Timestamp uint32
}

// HopField is one authorized hop of the path.
type HopField struct {
	// ExpTime is the relative expiry of the hop field (protocol units;
	// carried verbatim).
	ExpTime uint8
	// ConsIngress and ConsEgress are the AS-local interface identifiers
	// in construction direction.
	ConsIngress addr.IfID
	ConsEgress  addr.IfID
	// MAC authenticates (AS, ConsIngress, ConsEgress) under the AS's
	// forwarding key.
	MAC [MACLen]byte
}

// hostCode returns the DT/DL (or ST/SL) nibble for a host address type:
// type tag in the upper two bits, (paddedLen/4 - 1) in the lower two.
func hostCode(t addr.HostAddrType) (code uint8, padded int, err error) {
	switch t {
	case addr.HostIPv4:
		return 0<<2 | 0, 4, nil
	case addr.HostService:
		return 1<<2 | 0, 4, nil
	case addr.HostMAC:
		return 2<<2 | 1, 8, nil
	case addr.HostIPv6:
		return 3<<2 | 3, 16, nil
	}
	return 0, 0, fmt.Errorf("slayers: unencodable host address type %s", t)
}

// hostFromCode is the inverse of hostCode: it validates the type/length
// nibble and returns the address type and its padded and true lengths.
func hostFromCode(code uint8) (t addr.HostAddrType, padded, used int, err error) {
	switch code {
	case 0<<2 | 0:
		return addr.HostIPv4, 4, 4, nil
	case 1<<2 | 0:
		return addr.HostService, 4, 2, nil
	case 2<<2 | 1:
		return addr.HostMAC, 8, 6, nil
	case 3<<2 | 3:
		return addr.HostIPv6, 16, 16, nil
	}
	return 0, 0, 0, fmt.Errorf("slayers: invalid host address code %#x", code)
}

// SCION is a decoded (or to-be-serialized) SCION packet header.
//
// After DecodeFromBytes, DstHost.Local, SrcHost.Local, Payload() and
// the hop field accessors alias the decoded buffer: they stay valid
// only while the caller keeps the buffer, and writing to the buffer
// changes them. This is deliberate — border routers own their packet
// buffers and must not allocate per packet.
type SCION struct {
	// Common header.
	TrafficClass uint8
	FlowID       uint32 // 20 bits on the wire
	NextHdr      uint8
	PayloadLen   uint16
	PathType     uint8

	// Address header.
	DstIA, SrcIA     addr.IA
	DstHost, SrcHost addr.Host

	// Path header (PathTypeSCION). CurrHF is the hop under processing;
	// NumHops the total. Hops is the serialization source; after a
	// decode, hop fields are read from the raw buffer instead (use
	// HopField or DecodeHops).
	CurrHF  uint8
	NumHops uint8
	Info    InfoField
	Hops    []HopField

	raw     []byte // full packet alias after DecodeFromBytes
	pathOff int    // offset of PathMeta within raw
	hdrLen  int    // decoded header length in bytes
}

// HdrLen returns the encoded header length in bytes for the current
// field values (common + address + path headers, excluding payload).
func (s *SCION) HdrLen() (int, error) {
	_, dstPad, err := hostCode(s.DstHost.Type)
	if err != nil {
		return 0, err
	}
	_, srcPad, err := hostCode(s.SrcHost.Type)
	if err != nil {
		return 0, err
	}
	n := CmnHdrLen + 2*IALen + dstPad + srcPad
	switch s.PathType {
	case PathTypeEmpty:
	case PathTypeSCION:
		n += MetaLen + InfoLen + HopLen*int(s.NumHops)
	default:
		return 0, fmt.Errorf("slayers: unsupported path type %d", s.PathType)
	}
	return n, nil
}

// SerializeTo writes the header into buf and returns the header length.
// The payload is not written; callers append PayloadLen bytes after the
// returned offset. buf must hold the full header. No allocation.
func (s *SCION) SerializeTo(buf []byte) (int, error) {
	hdr, err := s.HdrLen()
	if err != nil {
		return 0, err
	}
	if len(buf) < hdr {
		return 0, fmt.Errorf("slayers: buffer of %d bytes, header needs %d", len(buf), hdr)
	}
	if hdr%4 != 0 || hdr/4 > 255 {
		return 0, fmt.Errorf("slayers: header length %d unencodable", hdr)
	}
	if s.FlowID >= 1<<20 {
		return 0, fmt.Errorf("slayers: flow id %#x exceeds 20 bits", s.FlowID)
	}
	if s.PathType == PathTypeSCION {
		if int(s.NumHops) != len(s.Hops) {
			return 0, fmt.Errorf("slayers: NumHops %d != len(Hops) %d", s.NumHops, len(s.Hops))
		}
		if s.NumHops == 0 || s.NumHops > MaxHops {
			return 0, fmt.Errorf("slayers: hop count %d out of range [1,%d]", s.NumHops, MaxHops)
		}
		if s.CurrHF >= s.NumHops {
			return 0, fmt.Errorf("slayers: CurrHF %d out of range", s.CurrHF)
		}
	}

	// Common header.
	binary.BigEndian.PutUint32(buf[0:4], uint32(0)<<28|uint32(s.TrafficClass)<<20|s.FlowID)
	buf[4] = s.NextHdr
	buf[5] = uint8(hdr / 4)
	binary.BigEndian.PutUint16(buf[6:8], s.PayloadLen)
	buf[8] = s.PathType
	dstCode, dstPad, _ := hostCode(s.DstHost.Type)
	srcCode, srcPad, _ := hostCode(s.SrcHost.Type)
	buf[9] = dstCode<<4 | srcCode
	buf[10], buf[11] = 0, 0

	// Address header.
	binary.BigEndian.PutUint64(buf[12:20], s.DstIA.Uint64())
	binary.BigEndian.PutUint64(buf[20:28], s.SrcIA.Uint64())
	off := 28
	off, err = putHost(buf, off, s.DstHost, dstPad)
	if err != nil {
		return 0, err
	}
	off, err = putHost(buf, off, s.SrcHost, srcPad)
	if err != nil {
		return 0, err
	}

	// Path header.
	s.pathOff = off
	if s.PathType == PathTypeSCION {
		meta := uint32(s.CurrHF&0x3f)<<24 | uint32(s.NumHops&0x3f)<<12
		binary.BigEndian.PutUint32(buf[off:off+4], meta)
		off += 4
		var flags uint8
		if s.Info.ConsDir {
			flags = 1
		}
		buf[off] = flags
		buf[off+1] = 0
		binary.BigEndian.PutUint16(buf[off+2:off+4], s.Info.SegID)
		binary.BigEndian.PutUint32(buf[off+4:off+8], s.Info.Timestamp)
		off += 8
		for i := range s.Hops {
			h := &s.Hops[i]
			buf[off] = 0
			buf[off+1] = h.ExpTime
			binary.BigEndian.PutUint16(buf[off+2:off+4], uint16(h.ConsIngress))
			binary.BigEndian.PutUint16(buf[off+4:off+6], uint16(h.ConsEgress))
			copy(buf[off+6:off+12], h.MAC[:])
			off += 12
		}
	}
	return hdr, nil
}

func putHost(buf []byte, off int, h addr.Host, padded int) (int, error) {
	used := h.Type.Len()
	if len(h.Local) != used {
		return 0, fmt.Errorf("slayers: %s host address with %d local bytes", h.Type, len(h.Local))
	}
	copy(buf[off:off+used], h.Local)
	for i := off + used; i < off+padded; i++ {
		buf[i] = 0
	}
	return off + padded, nil
}

// DecodeFromBytes parses data, which must be exactly one packet (header
// plus PayloadLen payload bytes). Decoded variable-length fields alias
// data. Any structural violation returns an error; no input panics.
func (s *SCION) DecodeFromBytes(data []byte) error {
	return s.decode(data, false)
}

// DecodeHeader parses data as a bare packet header with no payload
// attached — data must be exactly the header bytes, and PayloadLen is
// carried verbatim without being checked against len(data). This is
// how SCMP quotes are walked: the quote holds only the original
// packet's header. Payload() returns nil after a header-only decode.
func (s *SCION) DecodeHeader(data []byte) error {
	return s.decode(data, true)
}

func (s *SCION) decode(data []byte, headerOnly bool) error {
	if len(data) < CmnHdrLen {
		return fmt.Errorf("slayers: packet of %d bytes shorter than common header", len(data))
	}
	first := binary.BigEndian.Uint32(data[0:4])
	if v := uint8(first >> 28); v != 0 {
		return fmt.Errorf("slayers: unsupported version %d", v)
	}
	s.TrafficClass = uint8(first >> 20)
	s.FlowID = first & 0xfffff
	s.NextHdr = data[4]
	hdr := int(data[5]) * 4
	s.PayloadLen = binary.BigEndian.Uint16(data[6:8])
	s.PathType = data[8]
	if s.PathType != PathTypeEmpty && s.PathType != PathTypeSCION {
		return fmt.Errorf("slayers: unsupported path type %d", s.PathType)
	}
	if hdr < CmnHdrLen+2*IALen || hdr > len(data) {
		return fmt.Errorf("slayers: header length %d out of range for %d-byte packet", hdr, len(data))
	}
	if headerOnly {
		if hdr != len(data) {
			return fmt.Errorf("slayers: header %d != quoted bytes %d", hdr, len(data))
		}
	} else if want := hdr + int(s.PayloadLen); want != len(data) {
		return fmt.Errorf("slayers: header %d + payload %d != packet %d", hdr, s.PayloadLen, len(data))
	}

	// Reserved bits must be zero: the decoder accepts exactly the set
	// of packets the serializer emits, so accepted packets re-serialize
	// byte-identically (FuzzPacketDecode relies on this).
	if data[10] != 0 || data[11] != 0 {
		return fmt.Errorf("slayers: nonzero reserved common-header bytes")
	}
	dstType, dstPad, dstUsed, err := hostFromCode(data[9] >> 4)
	if err != nil {
		return err
	}
	srcType, srcPad, srcUsed, err := hostFromCode(data[9] & 0x0f)
	if err != nil {
		return err
	}
	s.DstIA = addr.IAFromUint64(binary.BigEndian.Uint64(data[12:20]))
	s.SrcIA = addr.IAFromUint64(binary.BigEndian.Uint64(data[20:28]))
	off := 28
	if off+dstPad+srcPad > hdr {
		return fmt.Errorf("slayers: address header exceeds header length")
	}
	s.DstHost = addr.Host{IA: s.DstIA, Type: dstType, Local: data[off : off+dstUsed : off+dstUsed]}
	for _, b := range data[off+dstUsed : off+dstPad] {
		if b != 0 {
			return fmt.Errorf("slayers: nonzero host address padding")
		}
	}
	off += dstPad
	s.SrcHost = addr.Host{IA: s.SrcIA, Type: srcType, Local: data[off : off+srcUsed : off+srcUsed]}
	for _, b := range data[off+srcUsed : off+srcPad] {
		if b != 0 {
			return fmt.Errorf("slayers: nonzero host address padding")
		}
	}
	off += srcPad

	s.CurrHF, s.NumHops = 0, 0
	s.Info = InfoField{}
	s.pathOff = off
	switch s.PathType {
	case PathTypeEmpty:
		if off != hdr {
			return fmt.Errorf("slayers: %d trailing header bytes on empty path", hdr-off)
		}
	case PathTypeSCION:
		if off+MetaLen+InfoLen > hdr {
			return fmt.Errorf("slayers: truncated path header")
		}
		meta := binary.BigEndian.Uint32(data[off : off+4])
		if inf := meta >> 30; inf != 0 {
			return fmt.Errorf("slayers: multi-segment path (CurrINF %d) unsupported", inf)
		}
		s.CurrHF = uint8(meta>>24) & 0x3f
		if rsv := meta >> 18 & 0x3f; rsv != 0 {
			return fmt.Errorf("slayers: nonzero reserved path-meta bits")
		}
		seg0 := uint8(meta>>12) & 0x3f
		if seg1, seg2 := meta>>6&0x3f, meta&0x3f; seg1 != 0 || seg2 != 0 {
			return fmt.Errorf("slayers: multi-segment path (seg lengths %d,%d) unsupported", seg1, seg2)
		}
		if seg0 == 0 {
			return fmt.Errorf("slayers: SCION path with zero hops")
		}
		if s.CurrHF >= seg0 {
			return fmt.Errorf("slayers: CurrHF %d >= NumHops %d", s.CurrHF, seg0)
		}
		s.NumHops = seg0
		if off+MetaLen+InfoLen+HopLen*int(seg0) != hdr {
			return fmt.Errorf("slayers: path of %d hops does not fill header", seg0)
		}
		io := off + MetaLen
		if data[io]&^1 != 0 || data[io+1] != 0 {
			return fmt.Errorf("slayers: nonzero reserved info-field bits")
		}
		s.Info.ConsDir = data[io]&1 != 0
		s.Info.SegID = binary.BigEndian.Uint16(data[io+2 : io+4])
		s.Info.Timestamp = binary.BigEndian.Uint32(data[io+4 : io+8])
		for ho := io + InfoLen; ho < hdr; ho += HopLen {
			if data[ho] != 0 {
				return fmt.Errorf("slayers: nonzero hop-field flags")
			}
		}
	}
	s.raw = data
	s.hdrLen = hdr
	s.Hops = s.Hops[:0]
	return nil
}

// Payload returns the payload bytes of a decoded packet (aliases the
// decode buffer).
func (s *SCION) Payload() []byte {
	if s.raw == nil || s.hdrLen+int(s.PayloadLen) > len(s.raw) {
		return nil
	}
	return s.raw[s.hdrLen : s.hdrLen+int(s.PayloadLen)]
}

// HeaderBytes returns the raw header bytes of a decoded packet (for
// SCMP quoting; aliases the decode buffer).
func (s *SCION) HeaderBytes() []byte {
	if s.raw == nil {
		return nil
	}
	return s.raw[:s.hdrLen]
}

// hopOff returns the raw offset of hop field i, or -1.
func (s *SCION) hopOff(i int) int {
	if s.raw == nil || s.PathType != PathTypeSCION || i < 0 || i >= int(s.NumHops) {
		return -1
	}
	return s.pathOff + MetaLen + InfoLen + HopLen*i
}

// HopField decodes hop field i of a decoded packet.
func (s *SCION) HopField(i int) (HopField, error) {
	off := s.hopOff(i)
	if off < 0 {
		return HopField{}, fmt.Errorf("slayers: hop index %d out of range", i)
	}
	var h HopField
	h.ExpTime = s.raw[off+1]
	h.ConsIngress = addr.IfID(binary.BigEndian.Uint16(s.raw[off+2 : off+4]))
	h.ConsEgress = addr.IfID(binary.BigEndian.Uint16(s.raw[off+4 : off+6]))
	copy(h.MAC[:], s.raw[off+6:off+12])
	return h, nil
}

// DecodeHops appends all hop fields of a decoded packet to dst (reuse a
// caller slice to stay allocation-free) and returns the extended slice.
func (s *SCION) DecodeHops(dst []HopField) ([]HopField, error) {
	for i := 0; i < int(s.NumHops); i++ {
		h, err := s.HopField(i)
		if err != nil {
			return dst, err
		}
		dst = append(dst, h)
	}
	return dst, nil
}

// SetCurrHF rewrites the current-hop pointer in place in the decoded
// buffer (and the struct field), the one header mutation a border
// router performs when forwarding.
func (s *SCION) SetCurrHF(i uint8) error {
	if s.raw == nil || s.PathType != PathTypeSCION {
		return fmt.Errorf("slayers: SetCurrHF without decoded SCION path")
	}
	if i >= s.NumHops {
		return fmt.Errorf("slayers: CurrHF %d >= NumHops %d", i, s.NumHops)
	}
	s.CurrHF = i
	s.raw[s.pathOff] = s.raw[s.pathOff]&0xc0 | i&0x3f
	return nil
}

// IncPath advances CurrHF by one (the ingress border router step).
func (s *SCION) IncPath() error {
	return s.SetCurrHF(s.CurrHF + 1)
}

// AtDestination reports whether the current hop is the last one.
func (s *SCION) AtDestination() bool {
	return s.PathType == PathTypeSCION && s.CurrHF == s.NumHops-1
}

// RawPath is the geometry of a SCION path that DecodeFromBytes
// accepted or SerializeTo wrote: the offset of its meta word and its hop
// count. Kept beside the packet bytes it reads a transit router's fields
// — FlowID, CurrHF, the current hop field — straight from them and
// advances CurrHF in place. That increment is the only write, so what
// the decode checked stays true. The zero RawPath belongs to no path.
type RawPath struct {
	off  uint16
	hops uint8
}

// RawPath returns the geometry of the SCION path last decoded or
// serialized (zero for any other path type).
func (s *SCION) RawPath() RawPath {
	if s.pathOff == 0 || s.PathType != PathTypeSCION {
		return RawPath{}
	}
	return RawPath{off: uint16(s.pathOff), hops: s.NumHops}
}

// FlowID reads the flow id of packet b.
func (RawPath) FlowID(b []byte) uint32 { return binary.BigEndian.Uint32(b) & 0xfffff }

func (p RawPath) currHF(b []byte) uint8 { return b[p.off] & 0x3f }

// AtDestination reports whether b's current hop is the last one.
func (p RawPath) AtDestination(b []byte) bool { return p.currHF(b) == p.hops-1 }

// IncPath advances b's CurrHF in place; at the last hop it reports
// false and leaves b unchanged.
func (p RawPath) IncPath(b []byte) bool {
	c := p.currHF(b) + 1
	if c >= p.hops {
		return false
	}
	b[p.off] = b[p.off]&0xc0 | c
	return true
}

// Hop reads the interfaces and MAC of b's current hop field.
func (p RawPath) Hop(b []byte) (in, out addr.IfID, mac [MACLen]byte) {
	o := int(p.off) + MetaLen + InfoLen + HopLen*int(p.currHF(b))
	copy(mac[:], b[o+6:o+12])
	return addr.IfID(binary.BigEndian.Uint16(b[o+2:])), addr.IfID(binary.BigEndian.Uint16(b[o+4:])), mac
}
