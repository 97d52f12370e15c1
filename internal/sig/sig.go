// Package sig implements the SCION-IP Gateway (SIG) of paper §3.4: it
// encapsulates legacy IP packets into SCION packets so end domains can use
// the SCION network without touching hosts or applications. The ASMap
// table maps IP prefixes to SCION ASes; the gateway resolves the
// destination AS, fetches a forwarding path, and tunnels the IP packet as
// SCION payload. A corresponding SIG at the destination decapsulates.
//
// Both deployment variants are covered: the customer-premise SIG (one
// gateway per end-domain AS, Case b) and the carrier-grade SIG (one
// provider-operated gateway aggregating many legacy customers, Case c).
package sig

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"sort"

	"scionmpr/internal/addr"
	"scionmpr/internal/dataplane"
)

// ASMap maps IP address space to SCION ASes with longest-prefix-match
// semantics (the SIG's ASMap table, §3.4).
type ASMap struct {
	entries []mapEntry
	sorted  bool
}

type mapEntry struct {
	prefix netip.Prefix
	ia     addr.IA
}

// Add inserts a prefix mapping. Overlapping prefixes are allowed; Lookup
// picks the longest match.
func (m *ASMap) Add(prefix netip.Prefix, ia addr.IA) {
	m.entries = append(m.entries, mapEntry{prefix: prefix.Masked(), ia: ia})
	m.sorted = false
}

// Lookup resolves an IP address to its SCION AS.
func (m *ASMap) Lookup(ip netip.Addr) (addr.IA, bool) {
	if !m.sorted {
		sort.SliceStable(m.entries, func(i, j int) bool {
			return m.entries[i].prefix.Bits() > m.entries[j].prefix.Bits()
		})
		m.sorted = true
	}
	for _, e := range m.entries {
		if e.prefix.Contains(ip) {
			return e.ia, true
		}
	}
	return addr.IA{}, false
}

// IPPacket is a legacy IP packet entering or leaving the SCION network.
type IPPacket struct {
	Src, Dst netip.Addr
	Payload  []byte
}

// WireLen approximates the legacy packet size (IPv4/IPv6 header + payload).
func (p IPPacket) WireLen() int {
	hdr := 20
	if p.Dst.Is6() {
		hdr = 40
	}
	return hdr + len(p.Payload)
}

// encode serializes an IP packet into a SCION payload.
func (p IPPacket) encode() []byte {
	src := p.Src.As16()
	dst := p.Dst.As16()
	out := make([]byte, 0, 1+16+16+2+len(p.Payload))
	version := byte(4)
	if p.Dst.Is6() {
		version = 6
	}
	out = append(out, version)
	out = append(out, src[:]...)
	out = append(out, dst[:]...)
	var l [2]byte
	binary.BigEndian.PutUint16(l[:], uint16(len(p.Payload)))
	out = append(out, l[:]...)
	out = append(out, p.Payload...)
	return out
}

func decode(b []byte) (IPPacket, error) {
	if len(b) < 35 {
		return IPPacket{}, fmt.Errorf("sig: truncated encapsulation (%d bytes)", len(b))
	}
	var src, dst [16]byte
	copy(src[:], b[1:17])
	copy(dst[:], b[17:33])
	n := int(binary.BigEndian.Uint16(b[33:35]))
	if len(b) < 35+n {
		return IPPacket{}, fmt.Errorf("sig: payload truncated")
	}
	s, d := netip.AddrFrom16(src), netip.AddrFrom16(dst)
	if b[0] == 4 {
		s, d = s.Unmap(), d.Unmap()
	}
	return IPPacket{Src: s, Dst: d, Payload: b[35 : 35+n]}, nil
}

// PathProvider supplies forwarding paths toward a destination AS (wired
// to the path servers and combinator in a full deployment).
type PathProvider func(dst addr.IA) []*dataplane.FwdPath

// DeliverIP receives decapsulated legacy packets on the far side.
type DeliverIP func(pkt IPPacket)

// Mode distinguishes the deployment cases of §3.4.
type Mode int

const (
	// CPE is the customer-premise SIG of Case b: one gateway per
	// SCION-enabled end-domain AS.
	CPE Mode = iota
	// CarrierGrade is the provider-operated SIG of Case c, aggregating
	// traffic of many SCION-unaware customers.
	CarrierGrade
)

func (m Mode) String() string {
	if m == CPE {
		return "cpe"
	}
	return "carrier-grade"
}

// Transport is what a gateway needs of the SCION network (a
// scion.Network provides it): sending a packet over a chosen path, and
// receiving the packets addressed to the SvcSG service of its AS.
// OnGateway must leave the AS's other traffic where it was.
type Transport interface {
	SendOn(p *dataplane.FwdPath, src, dst addr.Host, payload []byte) error
	OnGateway(ia addr.IA, fn dataplane.DeliverFunc)
}

// Gateway is one SIG instance.
type Gateway struct {
	Local addr.IA
	Host  addr.Host
	Mode  Mode
	Map   *ASMap
	Paths PathProvider
	net   Transport

	deliver DeliverIP

	// Stats: per-destination-AS encapsulated packet counts (aggregation
	// visibility for the carrier-grade case) and error counters.
	PerDstAS          map[addr.IA]uint64
	Encapsulated      uint64
	Decapsulated      uint64
	NoMapping, NoPath uint64
	MalformedDecaps   uint64
}

// NewGateway installs a SIG at host's AS: it receives the AS's
// SvcSG-addressed packets.
func NewGateway(net Transport, host addr.Host, mode Mode, asmap *ASMap, paths PathProvider) *Gateway {
	g := &Gateway{
		Local:    host.IA,
		Host:     host,
		Mode:     mode,
		Map:      asmap,
		Paths:    paths,
		net:      net,
		PerDstAS: map[addr.IA]uint64{},
	}
	net.OnGateway(host.IA, g.handleSCION)
	return g
}

// OnDeliverIP installs the legacy-side handler for decapsulated packets.
func (g *Gateway) OnDeliverIP(fn DeliverIP) { g.deliver = fn }

// HandleIP processes an outgoing legacy IP packet: resolve the remote AS
// via the ASMap, pick a path, encapsulate, and inject into the SCION
// network (paper §3.4).
func (g *Gateway) HandleIP(pkt IPPacket) error {
	dstIA, ok := g.Map.Lookup(pkt.Dst)
	if !ok {
		g.NoMapping++
		return fmt.Errorf("sig: no ASMap entry for %s", pkt.Dst)
	}
	if dstIA == g.Local {
		// Local delivery without encapsulation.
		if g.deliver != nil {
			g.deliver(pkt)
		}
		return nil
	}
	paths := g.Paths(dstIA)
	if len(paths) == 0 {
		g.NoPath++
		return fmt.Errorf("sig: no path to %s", dstIA)
	}
	if err := g.net.SendOn(paths[0], g.Host, addr.HostSvc(dstIA, addr.SvcSG), pkt.encode()); err != nil {
		return err
	}
	g.Encapsulated++
	g.PerDstAS[dstIA]++
	return nil
}

// handleSCION decapsulates an arriving SCION packet back into an IP
// packet and hands it to the legacy network.
func (g *Gateway) handleSCION(pkt *dataplane.Packet) {
	ip, err := decode(pkt.Payload)
	if err != nil {
		g.MalformedDecaps++
		return
	}
	g.Decapsulated++
	if g.deliver != nil {
		g.deliver(ip)
	}
}

// ConnectionsSaved quantifies the leased-line replacement incentive of
// paper §3.1: connecting n branches with k data centers needs n*k leased
// lines but only n+k SCION connections.
func ConnectionsSaved(branches, dataCenters int) (leased, scion int) {
	return branches * dataCenters, branches + dataCenters
}
