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
// leaving an AS is an event on the world's simulator clock that, one
// link delay later, runs the receiving AS's router (hop-field MAC
// verdict, egress, SCMP emit and walk-back) on that one frame. The
// router at the injecting or offending AS runs inline, so a packet costs
// one simulator event per link it crosses. Failures are reported with
// SCMP messages from the border router observing them (paper §4.1);
// each AS keeps what they taught it in its SourceMemory.
type Fabric struct {
	// The world's link fault table (chaos.FaultTarget), which times the
	// frames as well: a link's delay override, else the default delay.
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

// NewFabric builds a border router for every AS of topo on the clock and
// fault table of the world it joins (its control plane's, for one write
// to reach both planes); a frame crosses a link in delay, or its override.
func NewFabric(clock *sim.Simulator, topo *topology.Graph, delay time.Duration, faults *sim.LinkFaults, keys KeyFunc) *Fabric {
	e := newEngine(topo, keys, faults)
	e.clock, e.delay, e.ifc = clock, delay, make([]sim.Counter, 2*len(topo.Links))
	f := &Fabric{LinkFaults: faults, RevocationTTL: 10 * time.Second, e: e,
		listeners: make([][]SCMPFunc, len(e.ias)), sources: map[addr.IA]*SourceMemory{}}
	for i := range e.ias {
		a := int32(i)
		e.scmp[i] = func(m *SCMP) { f.arrive(a, m) }
	}
	return f
}

// Clock returns the simulator whose events carry the fabric's frames.
func (f *Fabric) Clock() *sim.Simulator { return f.e.clock }

// Topo returns the topology the fabric forwards over.
func (f *Fabric) Topo() *topology.Graph { return f.e.Topo }

// Latency returns a link's one-way delay: its override, else the default.
func (f *Fabric) Latency(id topology.LinkID) time.Duration { return f.DelayOr(id, f.e.delay) }

// arrive records an SCMP revocation in the memory of AS a, then runs
// the AS's listeners on the message.
func (f *Fabric) arrive(a int32, m *SCMP) {
	if m.Type == SCMPRevokedLink {
		if l := f.e.Topo.LinkByIf(m.Link.IA, m.Link.If); l != nil {
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
		m = &SourceMemory{clock: f.e.clock, links: map[topology.LinkID]revocation{}}
		f.sources[ia] = m
	}
	return m
}

// SetTelemetry registers the fabric's forwarding and link counters as
// gauge funcs (the latter as the data plane's net_* share). A fabric
// runs serially, so export-time reads are deterministic.
func (f *Fabric) SetTelemetry(reg *telemetry.Registry) {
	f.e.register(reg, "dataplane", false)
	sim.RegisterCounters(reg, f.e.ifc)
}

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

// Inject encodes a packet and runs its source AS's border router on it
// at once: hop-0 verification and the first egress decision.
func (f *Fabric) Inject(pkt *Packet) error { return f.e.Inject(pkt) }
