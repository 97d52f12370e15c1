// SCMP wire format: control messages travel as SCION packets with
// NextHdr = NextHdrSCMP and an empty path type — they are routed by
// walking the quoted original path backwards hop by hop, so they need
// no path header of their own. The payload is a fixed 24-byte SCMP
// header followed by a quote of the original packet's header bytes:
//
//	0   Type
//	1   Code
//	2   reserved (2 bytes)
//	4   Offender ISD-AS (8 bytes)   AS that generated the message
//	12  Link ISD-AS (8 bytes)       revoked link: upstream AS
//	20  Link interface (2 bytes)    revoked link: upstream interface
//	22  WalkIdx                     current position on the quoted path
//	23  reserved
//	24  quote: original packet header (common + address + path)
//
// WalkIdx starts at the quoted path's hop index where the message was
// generated and is decremented in place by each border router that
// relays the message toward the original sender (the mirror image of
// the CurrHF increment on the forward direction).
package slayers

import (
	"encoding/binary"
	"fmt"

	"scionmpr/internal/addr"
)

// SCMP message types, mirroring dataplane.SCMPType.
const (
	SCMPTypeRevokedLink     uint8 = 1
	SCMPTypeBadMAC          uint8 = 2
	SCMPTypeDestUnreachable uint8 = 3
)

// SCMPHdrLen is the fixed SCMP header size preceding the quote.
const SCMPHdrLen = 24

// SCMP is a decoded (or to-be-serialized) SCMP payload.
type SCMP struct {
	Type     uint8
	Code     uint8
	Offender addr.IA
	LinkIA   addr.IA
	LinkIf   addr.IfID
	WalkIdx  uint8
	// Quote holds the original packet's header bytes (aliases the
	// decode buffer after DecodeFromBytes).
	Quote []byte

	raw []byte // payload alias after DecodeFromBytes
}

// SerializeTo writes the SCMP payload (header + quote) into buf and
// returns the number of bytes written.
func (m *SCMP) SerializeTo(buf []byte) (int, error) {
	n := SCMPHdrLen + len(m.Quote)
	if len(buf) < n {
		return 0, fmt.Errorf("slayers: buffer of %d bytes, SCMP needs %d", len(buf), n)
	}
	buf[0] = m.Type
	buf[1] = m.Code
	buf[2], buf[3] = 0, 0
	binary.BigEndian.PutUint64(buf[4:12], m.Offender.Uint64())
	binary.BigEndian.PutUint64(buf[12:20], m.LinkIA.Uint64())
	binary.BigEndian.PutUint16(buf[20:22], uint16(m.LinkIf))
	buf[22] = m.WalkIdx
	buf[23] = 0
	copy(buf[24:n], m.Quote)
	return n, nil
}

// DecodeFromBytes parses an SCMP payload. Quote aliases data.
func (m *SCMP) DecodeFromBytes(data []byte) error {
	if len(data) < SCMPHdrLen {
		return fmt.Errorf("slayers: SCMP payload of %d bytes shorter than header", len(data))
	}
	m.Type = data[0]
	m.Code = data[1]
	m.Offender = addr.IAFromUint64(binary.BigEndian.Uint64(data[4:12]))
	m.LinkIA = addr.IAFromUint64(binary.BigEndian.Uint64(data[12:20]))
	m.LinkIf = addr.IfID(binary.BigEndian.Uint16(data[20:22]))
	m.WalkIdx = data[22]
	m.Quote = data[SCMPHdrLen:]
	m.raw = data
	return nil
}

// SetWalkIdx rewrites the walk position in place in the decoded buffer.
func (m *SCMP) SetWalkIdx(i uint8) error {
	if m.raw == nil {
		return fmt.Errorf("slayers: SetWalkIdx without decoded SCMP")
	}
	m.WalkIdx = i
	m.raw[22] = i
	return nil
}

// RawWalk locates the WalkIdx and quoted hop fields of an SCMP frame
// whose strict decode passed, so relaying routers step the walk in the
// frame bytes. The zero RawWalk belongs to no decoded frame.
type RawWalk struct{ idx, hops uint16 }

// DecodeWalk strictly decodes the payload of s, a decoded SCMP frame, into
// m and its quote into quote, and returns the walk geometry: zero if a
// decode fails or WalkIdx names no quoted hop field (0 needs none).
func (s *SCION) DecodeWalk(m *SCMP, quote *SCION) RawWalk {
	if m.DecodeFromBytes(s.Payload()) != nil || quote.DecodeHeader(m.Quote) != nil ||
		m.WalkIdx > 0 && (quote.PathType != PathTypeSCION || m.WalkIdx >= quote.NumHops) {
		return RawWalk{}
	}
	return quote.QuoteWalk(s.hdrLen)
}

// QuoteWalk returns the walk geometry of an SCMP frame whose SCION header
// is hdrLen bytes long and whose quote is the header s last decoded or
// serialized: what DecodeWalk finds in it, so the frame's encoder hands
// it over without a decode. Its WalkIdx must name a quoted hop field.
func (s *SCION) QuoteWalk(hdrLen int) RawWalk {
	return RawWalk{idx: uint16(hdrLen + 22), hops: uint16(hdrLen + SCMPHdrLen + s.pathOff + MetaLen + InfoLen)}
}

// Step reads b's WalkIdx: at 0 the message is home; otherwise Step
// decrements it in place and returns the ingress interface of the
// quoted hop field it named, the one the message leaves by.
func (w RawWalk) Step(b []byte) (in addr.IfID, home bool) {
	i := b[w.idx]
	if i == 0 {
		return 0, true
	}
	b[w.idx] = i - 1
	return addr.IfID(binary.BigEndian.Uint16(b[int(w.hops)+HopLen*int(i)+2:])), false
}
