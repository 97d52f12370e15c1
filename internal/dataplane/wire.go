package dataplane

import (
	"fmt"

	"scionmpr/internal/slayers"
)

// WireInfo is the info field stamped on every serialized path. The
// segment timestamp is a fixed epoch so encodings are deterministic;
// hop field MACs do not cover it (see the slayers package comment).
var WireInfo = slayers.InfoField{ConsDir: true, SegID: 0, Timestamp: 0x5c10_0000}

// wireExpTime is the relative hop-field expiry stamped on serialized
// paths; the simulated engine does not age hop fields.
const wireExpTime = 63

// EncodePacket serializes a data-plane packet, positioned at its first
// hop, into the slayers wire format using the caller's scratch header (reused across calls for
// allocation-free encoding) and buffer. It returns the total packet
// length (header + payload). The buffer must hold Packet.WireLen()
// bytes — the encoding matches WireLen exactly.
func EncodePacket(s *slayers.SCION, pkt *Packet, buf []byte) (int, error) {
	if pkt.Path == nil || len(pkt.Path.Hops) == 0 {
		return 0, fmt.Errorf("dataplane: encoding packet without path")
	}
	if len(pkt.Path.Hops) > slayers.MaxHops {
		return 0, fmt.Errorf("dataplane: path of %d hops exceeds wire limit %d", len(pkt.Path.Hops), slayers.MaxHops)
	}
	if len(pkt.Payload) > slayers.MaxPayloadLen {
		return 0, fmt.Errorf("dataplane: payload of %d bytes exceeds wire limit", len(pkt.Payload))
	}
	s.TrafficClass = 0
	s.FlowID = pkt.FlowID & 0xfffff
	s.NextHdr = slayers.NextHdrUDP
	s.PayloadLen = uint16(len(pkt.Payload))
	s.PathType = slayers.PathTypeSCION
	s.DstIA, s.SrcIA = pkt.Dst.IA, pkt.Src.IA
	s.DstHost, s.SrcHost = pkt.Dst, pkt.Src
	s.CurrHF = 0
	s.NumHops = uint8(len(pkt.Path.Hops))
	s.Info = WireInfo
	s.Hops = s.Hops[:0]
	for _, h := range pkt.Path.Hops {
		s.Hops = append(s.Hops, slayers.HopField{
			ExpTime:     wireExpTime,
			ConsIngress: h.Hop.In,
			ConsEgress:  h.Hop.Out,
			MAC:         h.MAC,
		})
	}
	hdr, err := s.SerializeTo(buf)
	if err != nil {
		return 0, err
	}
	n := hdr + len(pkt.Payload)
	if n > len(buf) {
		return 0, fmt.Errorf("dataplane: buffer of %d bytes, packet needs %d", len(buf), n)
	}
	copy(buf[hdr:n], pkt.Payload)
	return n, nil
}
