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

// SCMP is a SCION Control Message Protocol message as it arrives back at
// the original sender's AS, decoded from the frame that walked the
// reversed path prefix (or raised at the sender's own border router).
type SCMP struct {
	Type SCMPType
	// Link is the revoked link for SCMPRevokedLink.
	Link seg.LinkKey
	// Offender is the AS that generated the message.
	Offender addr.IA
	// FlowID, SrcIA and DstIA identify the offending packet (parsed from
	// the quoted original header).
	FlowID       uint32
	SrcIA, DstIA addr.IA
	// Orig is the packet that triggered the message, as it was handed to
	// Inject (nil for InjectBytes).
	Orig *Packet
}

// WireSCMPMsg is the wire engine's name for SCMP.
type WireSCMPMsg = SCMP

// DeliverFunc receives packets arriving at their destination AS.
type DeliverFunc func(pkt *Packet)

// SCMPFunc receives SCMP messages arriving back at the sender's AS.
type SCMPFunc func(msg *SCMP)

// Fabric drives the engine's border routers in virtual time: a frame
// leaving an AS travels as a message on a sim.Network link, and its
// arrival runs the receiving AS's router (decode, hop-field MAC verdict,
// egress, SCMP emit and walk-back) on that one frame. The router at the
// injecting or offending AS runs inline, so a packet costs one simulator
// event per link it crosses. Failures are reported with SCMP messages
// from the border router observing them (paper §4.1); each AS keeps what
// they taught it in its SourceMemory.
type Fabric struct {
	Net *sim.Network
	// The engine's link fault table (FailLink, RestoreLink, Failed,
	// SetLinkLoss, LinkLoss), read by the egress decision. Delay lives
	// on Net, which carries the frames (SetLinkDelay, LinkDelay).
	*sim.LinkFaults
	// RevocationTTL is how long an SCMP revocation stays in a source
	// memory (default 10s).
	RevocationTTL time.Duration

	e *Engine
	// listeners holds each AS's SCMP listeners, dense per AS; sources
	// holds the source memories created so far.
	listeners [][]SCMPFunc
	sources   map[addr.IA]*SourceMemory
}

// NewFabric registers a border router for every AS of the network's
// topology.
func NewFabric(net *sim.Network, keys KeyFunc) *Fabric {
	e := newEngine(net.Topo, keys)
	e.net = net
	f := &Fabric{Net: net, LinkFaults: &e.LinkFaults, RevocationTTL: 10 * time.Second, e: e,
		listeners: make([][]SCMPFunc, len(e.ias)), sources: map[addr.IA]*SourceMemory{}}
	for i, ia := range e.ias {
		a := int32(i)
		net.Register(ia, sim.HandlerFunc(func(_ addr.IA, _ *topology.Link, msg sim.Message) {
			e.step(a, msg.(*frame))
		}))
		e.scmp[i] = func(m *SCMP) { f.arrive(a, m) }
	}
	return f
}

// arrive records an SCMP revocation in the memory of AS a, then runs
// the AS's listeners on the message.
func (f *Fabric) arrive(a int32, m *SCMP) {
	if m.Type == SCMPRevokedLink {
		if l := f.Net.Topo.LinkByIf(m.Link.IA, m.Link.If); l != nil {
			f.Source(f.e.ias[a]).record(l.ID, f.RevocationTTL)
		}
	}
	for _, fn := range f.listeners[a] {
		fn(m)
	}
}

// Source returns the source memory of ia, creating it on first use.
func (f *Fabric) Source(ia addr.IA) *SourceMemory {
	m := f.sources[ia]
	if m == nil {
		m = &SourceMemory{clock: f.Net.Sim, links: map[topology.LinkID]revocation{}}
		f.sources[ia] = m
	}
	return m
}

// SetTelemetry registers the fabric's forwarding counters as gauge
// funcs. Fabric networks run serially, so export-time reads are
// deterministic.
func (f *Fabric) SetTelemetry(reg *telemetry.Registry) { f.e.register(reg, "dataplane", false) }

// Stats snapshots the forwarding counters.
func (f *Fabric) Stats() EngineStats { return f.e.Stats() }

// OnDeliver installs the destination handler of an AS (its local
// stack); it receives the packet as it was injected.
func (f *Fabric) OnDeliver(ia addr.IA, fn DeliverFunc) {
	if i, ok := f.e.idx[ia]; ok {
		f.e.deliver[i] = func(fr *frame, _ *slayers.SCION) { fn(fr.pkt) }
	}
}

// AddSCMP registers an SCMP listener for ia, run after any listener
// already registered — several consumers (hosts, traffic engines) can
// observe revocations arriving at the same AS.
func (f *Fabric) AddSCMP(ia addr.IA, fn SCMPFunc) {
	if i, ok := f.e.idx[ia]; ok {
		f.listeners[i] = append(f.listeners[i], fn)
	}
}

// SetLinkDelay overrides the one-way latency of a link on the underlying
// transport, modelling a latency spike; d <= 0 restores the default.
func (f *Fabric) SetLinkDelay(id topology.LinkID, d time.Duration) {
	f.Net.SetLinkDelay(id, d)
}

// LinkDelay returns the one-way latency frames take over a link: the
// transport network's override if one is set, else its default.
func (f *Fabric) LinkDelay(id topology.LinkID) time.Duration {
	return f.Net.LinkDelay(id)
}

// Inject encodes a packet and runs its source AS's border router on it
// at once: hop-0 verification and the first egress decision.
func (f *Fabric) Inject(pkt *Packet) error { return f.e.Inject(pkt) }
