package dataplane

import (
	"fmt"
	"time"

	"scionmpr/internal/addr"
	"scionmpr/internal/seg"
	"scionmpr/internal/sim"
	"scionmpr/internal/slayers"
	"scionmpr/internal/telemetry"
	"scionmpr/internal/topology"
)

// SCMPType enumerates the control messages the data plane emits.
type SCMPType int

const (
	// SCMPRevokedLink notifies the sender that a link on its path
	// failed; the revoked link identifies which paths to avoid.
	SCMPRevokedLink SCMPType = iota
	// SCMPBadMAC reports a hop field that failed verification.
	SCMPBadMAC
	// SCMPDestUnreachable reports a packet that could not be delivered
	// for a non-path reason.
	SCMPDestUnreachable
)

func (t SCMPType) String() string {
	switch t {
	case SCMPRevokedLink:
		return "revoked-link"
	case SCMPBadMAC:
		return "bad-mac"
	case SCMPDestUnreachable:
		return "dest-unreachable"
	}
	return fmt.Sprintf("scmp(%d)", int(t))
}

// SCMP is a SCION Control Message Protocol message, routed back to the
// original sender on the reversed path prefix.
type SCMP struct {
	Type SCMPType
	// Link is the revoked link for SCMPRevokedLink.
	Link seg.LinkKey
	// Offender is the AS that generated the message.
	Offender addr.IA
	// Orig identifies the packet that triggered the message.
	Orig *Packet
}

// WireLen implements sim.Message: an SCMP message travels as a SCION
// packet with an empty path (common + address headers) whose payload
// is the fixed SCMP header plus a quote of the original packet's
// header bytes (see internal/slayers scmp.go).
func (m *SCMP) WireLen() int {
	n := slayers.CmnHdrLen + 2*slayers.IALen + slayers.SCMPHdrLen
	if m.Orig != nil {
		n += hostWireLen(m.Orig.Src.Type) + hostWireLen(m.Orig.Dst.Type)
		n += m.Orig.WireLen() - len(m.Orig.Payload) // quoted headers
	}
	return n
}

// DeliverFunc receives packets arriving at their destination AS.
type DeliverFunc func(pkt *Packet)

// SCMPFunc receives SCMP messages arriving back at the sender's AS.
type SCMPFunc func(msg *SCMP)

// Fabric wires one border router per AS onto a sim.Network and forwards
// packets hop by hop. It owns link fault state so experiments can inject
// failures (paper §4.1: the border router observing a failed link emits
// SCMP messages toward affected senders).
type Fabric struct {
	Net  *sim.Network
	Topo *topology.Graph
	Keys KeyFunc

	// IntraASDelay, if set, models the AS-internal hop between the
	// ingress and egress border routers (SCION packets are IP-routed by
	// the IGP inside an AS, paper §3.4); packets are delayed by its
	// return value before leaving on the egress link.
	IntraASDelay func(ia addr.IA, in, out addr.IfID) time.Duration

	// Link fault state (FailLink, RestoreLink, Failed, SetLinkLoss,
	// LinkLoss), read by the egress decision. Gray loss is decided per
	// (flow, link), as in the Engine.
	sim.LinkFaults

	deliver map[addr.IA]DeliverFunc
	scmp    map[addr.IA]SCMPFunc

	// Stats
	Forwarded, Delivered, DroppedBadMAC, DroppedNoRoute, DroppedTooBig, Revocations uint64
	// DroppedGray counts packets silently shed by gray failures.
	DroppedGray uint64
}

// SetTelemetry registers the fabric's forwarding observables as gauge
// funcs over its counters. Fabric networks run serially (no sharding),
// so export-time reads are race-free and deterministic.
func (f *Fabric) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	u := func(p *uint64) func() float64 { return func() float64 { return float64(*p) } }
	reg.GaugeFunc("dataplane_forwarded_total", u(&f.Forwarded))
	reg.GaugeFunc("dataplane_delivered_total", u(&f.Delivered))
	reg.GaugeFunc("dataplane_revocations_total", u(&f.Revocations))
	reg.GaugeFunc(`dataplane_dropped_total{cause="bad_mac"}`, u(&f.DroppedBadMAC))
	reg.GaugeFunc(`dataplane_dropped_total{cause="no_route"}`, u(&f.DroppedNoRoute))
	reg.GaugeFunc(`dataplane_dropped_total{cause="too_big"}`, u(&f.DroppedTooBig))
	reg.GaugeFunc(`dataplane_dropped_total{cause="gray"}`, u(&f.DroppedGray))
}

// NewFabric registers a router handler for every AS in the topology.
func NewFabric(net *sim.Network, keys KeyFunc) *Fabric {
	f := &Fabric{
		Net:        net,
		Topo:       net.Topo,
		Keys:       keys,
		LinkFaults: sim.NewLinkFaults(net.Topo),
		deliver:    map[addr.IA]DeliverFunc{},
		scmp:       map[addr.IA]SCMPFunc{},
	}
	for _, ia := range net.Topo.IAs() {
		ia := ia
		net.Register(ia, sim.HandlerFunc(func(from addr.IA, link *topology.Link, msg sim.Message) {
			f.handle(ia, msg)
		}))
	}
	return f
}

// OnDeliver installs the destination handler of an AS (its local stack).
func (f *Fabric) OnDeliver(ia addr.IA, fn DeliverFunc) { f.deliver[ia] = fn }

// AddSCMP registers an SCMP listener for ia, chained after any listener
// already registered — several consumers (hosts, traffic engines) can
// observe revocations arriving at the same AS.
func (f *Fabric) AddSCMP(ia addr.IA, fn SCMPFunc) {
	prev := f.scmp[ia]
	if prev == nil {
		f.scmp[ia] = fn
		return
	}
	f.scmp[ia] = func(m *SCMP) {
		prev(m)
		fn(m)
	}
}

// SetLinkDelay overrides the one-way latency of a link on the underlying
// transport, modelling a latency spike; d <= 0 restores the default.
func (f *Fabric) SetLinkDelay(id topology.LinkID, d time.Duration) {
	f.Net.SetLinkDelay(id, d)
}

// Inject sends a packet from its source AS (HopIdx 0). The source border
// router performs the first egress lookup immediately.
func (f *Fabric) Inject(pkt *Packet) error {
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

// handle processes a message arriving at an AS's border router.
func (f *Fabric) handle(local addr.IA, msg sim.Message) {
	switch m := msg.(type) {
	case *Packet:
		f.routerStep(local, m)
	case *SCMP:
		f.scmpStep(local, m)
	}
}

// routerStep runs the border router pipeline for a packet at local:
// verify the local hop field, deliver if at destination, else forward.
func (f *Fabric) routerStep(local addr.IA, pkt *Packet) {
	pkt.HopIdx++
	hf, err := pkt.CurrentHop()
	if err != nil || hf.Hop.IA != local {
		f.DroppedNoRoute++
		return
	}
	if err := pkt.Path.Verify(pkt.HopIdx, f.Keys); err != nil {
		f.DroppedBadMAC++
		f.emitSCMP(local, pkt, &SCMP{Type: SCMPBadMAC, Offender: local, Orig: pkt})
		return
	}
	if pkt.AtDestination() {
		f.Delivered++
		if fn := f.deliver[local]; fn != nil {
			fn(pkt)
		}
		return
	}
	if f.IntraASDelay != nil {
		if d := f.IntraASDelay(local, hf.Hop.In, hf.Hop.Out); d > 0 {
			f.Net.Sim.Schedule(d, func() { f.forwardFrom(local, pkt) })
			return
		}
	}
	f.forwardFrom(local, pkt)
}

// forwardFrom transmits the packet out of local's egress interface for
// the current hop, checking MAC (at the source) and link health.
func (f *Fabric) forwardFrom(local addr.IA, pkt *Packet) {
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
		f.emitSCMP(local, pkt, &SCMP{Type: SCMPDestUnreachable, Offender: local, Orig: pkt})
	case egressRevoked:
		f.Revocations++
		f.emitSCMP(local, pkt, &SCMP{
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
// the reversed path prefix. The prefix up to the offending AS is still
// healthy, so the message travels hop by hop like a regular packet.
func (f *Fabric) emitSCMP(local addr.IA, pkt *Packet, msg *SCMP) {
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
func (f *Fabric) scmpStep(local addr.IA, msg *SCMP) {
	pkt := msg.Orig
	// Find local's position on the original path.
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
