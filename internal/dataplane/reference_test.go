package dataplane

import (
	"crypto/hmac"
	"fmt"

	"scionmpr/internal/addr"
	"scionmpr/internal/seg"
	"scionmpr/internal/sim"
	"scionmpr/internal/slayers"
	"scionmpr/internal/topology"
)

// refFabric is the struct-packet border router the Fabric ran before it
// became the virtual-time driver of the engine's pipeline, kept as the
// oracle of the differential tests. Its routerStep, forwardFrom,
// emitSCMP and scmpStep are the old ones line for line; the packet
// position (HopIdx), the hop helpers and the SCMP message size it needs
// moved here with it, and its IntraASDelay hook, which nothing set, is
// gone.
type refFabric struct {
	Net  *sim.Network
	Topo *topology.Graph
	Keys KeyFunc

	sim.LinkFaults

	deliver map[addr.IA]func(*refPacket)
	scmp    map[addr.IA]func(*refSCMP)

	Forwarded, Delivered, DroppedBadMAC, DroppedNoRoute, DroppedTooBig, Revocations uint64
	DroppedGray                                                                     uint64
}

// refPacket is a packet with its position on the path, which the
// reference router advances as it forwards.
type refPacket struct {
	*Packet
	HopIdx int
}

// refSCMP is the reference router's SCMP message, routed back to the
// sender on the reversed path prefix.
type refSCMP struct {
	Type     SCMPType
	Link     seg.LinkKey
	Offender addr.IA
	Orig     *refPacket
}

// WireLen implements sim.Message: an SCMP message travels as a SCION
// packet with an empty path whose payload is the fixed SCMP header plus
// a quote of the original packet's header bytes.
func (m *refSCMP) WireLen() int {
	n := slayers.CmnHdrLen + 2*slayers.IALen + slayers.SCMPHdrLen
	if m.Orig != nil {
		n += hostWireLen(m.Orig.Src.Type) + hostWireLen(m.Orig.Dst.Type)
		n += m.Orig.WireLen() - len(m.Orig.Payload) // quoted headers
	}
	return n
}

// CurrentHop returns the hop field under processing.
func (p *refPacket) CurrentHop() (HopField, error) {
	if p.Path == nil || p.HopIdx < 0 || p.HopIdx >= len(p.Path.Hops) {
		return HopField{}, fmt.Errorf("dataplane: hop index %d invalid", p.HopIdx)
	}
	return p.Path.Hops[p.HopIdx], nil
}

// AtDestination reports whether the packet reached the last hop.
func (p *refPacket) AtDestination() bool {
	return p.Path != nil && p.HopIdx == len(p.Path.Hops)-1
}

// Verify checks the hop field at index i with the AS's own key.
func (fp *FwdPath) Verify(i int, keys KeyFunc) error {
	if i < 0 || i >= len(fp.Hops) {
		return fmt.Errorf("dataplane: hop index %d out of range", i)
	}
	h := fp.Hops[i]
	key := keys(h.Hop.IA)
	if key == nil {
		return fmt.Errorf("dataplane: no forwarding key for %s", h.Hop.IA)
	}
	want := hopMAC(key, h.Hop)
	if !hmac.Equal(want[:], h.MAC[:]) {
		return fmt.Errorf("dataplane: hop field MAC mismatch at %s", h.Hop.IA)
	}
	return nil
}

func newRefFabric(net *sim.Network, keys KeyFunc) *refFabric {
	f := &refFabric{
		Net:        net,
		Topo:       net.Topo,
		Keys:       keys,
		LinkFaults: *sim.NewLinkFaults(net.Topo),
		deliver:    map[addr.IA]func(*refPacket){},
		scmp:       map[addr.IA]func(*refSCMP){},
	}
	for _, ia := range net.Topo.IAs() {
		ia := ia
		net.Register(ia, sim.HandlerFunc(func(from addr.IA, link *topology.Link, msg sim.Message) {
			f.handle(ia, msg)
		}))
	}
	return f
}

func (f *refFabric) Inject(pkt *refPacket) error {
	if pkt.Path == nil || len(pkt.Path.Hops) == 0 {
		return fmt.Errorf("dataplane: packet without path")
	}
	pkt.HopIdx = 0
	src := pkt.Path.Hops[0].Hop.IA
	if pkt.Src.IA != src {
		return fmt.Errorf("dataplane: source %s does not match path head %s", pkt.Src.IA, src)
	}
	if pkt.Path.MTU > 0 && pkt.WireLen() > int(pkt.Path.MTU) {
		f.DroppedTooBig++
		return fmt.Errorf("dataplane: packet of %d bytes exceeds path MTU %d", pkt.WireLen(), pkt.Path.MTU)
	}
	f.forwardFrom(src, pkt)
	return nil
}

func (f *refFabric) handle(local addr.IA, msg sim.Message) {
	switch m := msg.(type) {
	case *refPacket:
		f.routerStep(local, m)
	case *refSCMP:
		f.scmpStep(local, m)
	}
}

// routerStep runs the border router pipeline for a packet at local:
// verify the local hop field, deliver if at destination, else forward.
func (f *refFabric) routerStep(local addr.IA, pkt *refPacket) {
	pkt.HopIdx++
	hf, err := pkt.CurrentHop()
	if err != nil || hf.Hop.IA != local {
		f.DroppedNoRoute++
		return
	}
	if err := pkt.Path.Verify(pkt.HopIdx, f.Keys); err != nil {
		f.DroppedBadMAC++
		f.emitSCMP(local, pkt, &refSCMP{Type: SCMPBadMAC, Offender: local, Orig: pkt})
		return
	}
	if pkt.AtDestination() {
		f.Delivered++
		if fn := f.deliver[local]; fn != nil {
			fn(pkt)
		}
		return
	}
	f.forwardFrom(local, pkt)
}

// forwardFrom transmits the packet out of local's egress interface for
// the current hop, checking MAC (at the source) and link health.
func (f *refFabric) forwardFrom(local addr.IA, pkt *refPacket) {
	hf, err := pkt.CurrentHop()
	if err != nil || hf.Hop.IA != local {
		f.DroppedNoRoute++
		return
	}
	if pkt.HopIdx == 0 {
		if err := pkt.Path.Verify(0, f.Keys); err != nil {
			f.DroppedBadMAC++
			return
		}
	}
	link := f.Topo.LinkByIf(local, hf.Hop.Out)
	switch egress(&f.LinkFaults, link, pkt.FlowID) {
	case egressNoRoute:
		f.DroppedNoRoute++
		f.emitSCMP(local, pkt, &refSCMP{Type: SCMPDestUnreachable, Offender: local, Orig: pkt})
	case egressRevoked:
		f.Revocations++
		f.emitSCMP(local, pkt, &refSCMP{
			Type:     SCMPRevokedLink,
			Link:     seg.LinkKey{IA: local, If: hf.Hop.Out},
			Offender: local,
			Orig:     pkt,
		})
	case egressGray:
		f.DroppedGray++
	default:
		f.Forwarded++
		f.Net.Send(local, link, pkt)
	}
}

// emitSCMP routes a control message back toward the packet's sender over
// the reversed path prefix.
func (f *refFabric) emitSCMP(local addr.IA, pkt *refPacket, msg *refSCMP) {
	if pkt.HopIdx <= 0 {
		// Failure at the source AS: deliver locally.
		if fn := f.scmp[local]; fn != nil {
			fn(msg)
		}
		return
	}
	// Walk one hop back over the arrival link.
	prev := pkt.Path.Hops[pkt.HopIdx-1].Hop
	link := f.Topo.LinkByIf(prev.IA, prev.Out)
	if link == nil {
		return
	}
	msg.Orig = pkt
	f.Net.Send(local, link, msg)
}

// scmpStep moves an SCMP message one hop closer to the original sender.
func (f *refFabric) scmpStep(local addr.IA, msg *refSCMP) {
	pkt := msg.Orig
	idx := -1
	for i, h := range pkt.Path.Hops {
		if h.Hop.IA == local {
			idx = i
			break
		}
	}
	if idx <= 0 {
		// Arrived at the sender AS (or path corrupted): deliver.
		if fn := f.scmp[local]; fn != nil {
			fn(msg)
		}
		return
	}
	prev := pkt.Path.Hops[idx-1].Hop
	link := f.Topo.LinkByIf(prev.IA, prev.Out)
	if link == nil {
		return
	}
	f.Net.Send(local, link, msg)
}

// egress is the egress decision the engine and the reference router
// shared while a verdict type carried it between them, verbatim; both
// oracles (this router and refEngine) still call it, and the engine now
// decides inline in its egressStep.
// egressVerdict is what a border router does with a verified packet at
// its egress interface.
type egressVerdict uint8

const (
	egressForward egressVerdict = iota
	egressNoRoute               // interface attaches to no link: dest-unreachable SCMP
	egressRevoked               // link failed: revocation SCMP
	egressGray                  // gray failure: silent drop
)

// egress decides, over a plane's fault table, the fate of a packet of
// the given flow leaving over link (nil when the hop's egress interface
// attaches to nothing). The gray-loss coin is keyed on the flow, so the
// engine sheds the same packets under Flush and under a Fabric.
func egress(lf *sim.LinkFaults, link *topology.Link, flow uint32) egressVerdict {
	switch {
	case link == nil:
		return egressNoRoute
	case lf.Failed(link.ID):
		return egressRevoked
	}
	if rate := lf.LinkLoss(link.ID); rate > 0 && sim.LossCoin(uint64(flow), link.ID, rate) {
		return egressGray
	}
	return egressForward
}
