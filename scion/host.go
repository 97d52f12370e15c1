package scion

import (
	"encoding/binary"
	"fmt"

	"scionmpr/internal/addr"
	"scionmpr/internal/dataplane"
	"scionmpr/internal/sim"
	"scionmpr/internal/telemetry"
)

// Host is an endpoint attached to the network: it looks up paths on
// demand, keeps a multi-path set per destination AS, sends packets on the
// active path, and fails over the moment an SCMP revocation arrives — the
// fast-failover property that motivated the first production deployments
// (paper §3.1).
type Host struct {
	Addr addr.Host
	net  *Network
	recv func(from addr.Host, payload []byte)

	// The path set loaded for dst; active indexes the path in use and
	// equals len(paths) once every path crosses a link the AS's source
	// memory holds revoked. since is the memory's Learned count at load:
	// a fresh set gets a fresh chance against older revocations.
	dst    addr.IA
	paths  []*FwdPath
	active int
	since  uint64

	sent, failovers uint64
}

// Host attaches (or returns the existing) endpoint with the given IPv4
// local address in ia. Traffic flows own 100.64.0.0/10 (addr.FlowHost).
func (n *Network) Host(ia addr.IA, a, b, c, d byte) (*Host, error) {
	if n.Topo.AS(ia) == nil {
		return nil, fmt.Errorf("scion: unknown AS %s", ia)
	}
	hostAddr := addr.HostIP4(ia, a, b, c, d)
	if hostAddr.IsFlowHost() {
		return nil, fmt.Errorf("scion: host %s is in the traffic flow block 100.64.0.0/10", hostAddr)
	}
	if h := n.lookupHost(hostAddr); h != nil {
		return h, nil
	}
	// Delivery and SCMP demultiplexing happen in Network.dispatch and
	// Network.dispatchSCMP (installed at bootstrap); hosts only need
	// registering.
	h := &Host{Addr: hostAddr, net: n}
	n.hosts[ia] = append(n.hosts[ia], h)
	return h, nil
}

// lookupHost returns the attached host with address a, or nil.
func (n *Network) lookupHost(a addr.Host) *Host {
	for _, h := range n.hosts[a.IA] {
		if h.Addr.Equal(a) {
			return h
		}
	}
	return nil
}

// OnReceive installs the host's delivery callback.
func (h *Host) OnReceive(fn func(from addr.Host, payload []byte)) { h.recv = fn }

// activePath returns the path in use, or nil when none is loaded or the
// set is exhausted.
func (h *Host) activePath() *FwdPath {
	if h.active >= len(h.paths) {
		return nil
	}
	return h.paths[h.active]
}

// ensurePaths loads a fresh path set for dst when the host has none for
// it, or has revoked every path of the one it has.
func (h *Host) ensurePaths(dst addr.IA) error {
	if h.dst == dst && h.activePath() != nil {
		return nil
	}
	paths, err := h.net.Paths(h.Addr.IA, dst)
	if err != nil {
		return err
	}
	h.dst, h.paths, h.active = dst, paths, 0
	h.since = h.net.fabric.Source(h.Addr.IA).Learned()
	return nil
}

// handleSCMP switches to the first path that avoids every link the AS's
// source memory has held revoked since the set was loaded — the fabric
// has just recorded this message's link there — with no waiting for
// route re-convergence (paper: "hosts switch to a different path as soon
// as the SCMP message is received").
func (h *Host) handleSCMP(msg *dataplane.SCMP) {
	if msg.Type != dataplane.SCMPRevokedLink {
		return
	}
	mem := h.net.fabric.Source(h.Addr.IA)
	usable := func(p *FwdPath) bool {
		links, err := p.LinkRefs(h.net.Topo)
		return err == nil && !mem.Crosses(links, h.since)
	}
	if cur := h.activePath(); cur != nil && usable(cur) {
		return
	}
	h.active = len(h.paths)
	for i, p := range h.paths {
		if usable(p) {
			h.active = i
			h.failovers++
			h.net.clock.Trace(sim.SerialShard, telemetry.Event{Kind: telemetry.FlowSwitch, Actor: h.Addr.IA.Uint64(),
				Subject: uint64(binary.BigEndian.Uint32(h.Addr.Local)), Aux: uint64(i), Reason: "scmp"})
			return
		}
	}
}

// Send transmits payload to the destination host over the active path,
// performing path lookup on first use of the destination AS.
func (h *Host) Send(dst addr.Host, payload []byte) error {
	if dst.IA == h.Addr.IA {
		// Intra-AS delivery without SCION forwarding.
		hh := h.net.lookupHost(dst)
		if hh == nil || hh.recv == nil {
			return fmt.Errorf("scion: no such local host %s", dst)
		}
		hh.recv(h.Addr, payload)
		return nil
	}
	if err := h.ensurePaths(dst.IA); err != nil {
		return err
	}
	h.sent++
	return h.net.fabric.Inject(&dataplane.Packet{Src: h.Addr, Dst: dst, Path: h.activePath(), Payload: payload})
}

// ActivePathHops reports the AS-level hops of the current active path
// toward the host's current destination (nil when none loaded).
func (h *Host) ActivePathHops() []addr.IA {
	p := h.activePath()
	if p == nil {
		return nil
	}
	out := make([]addr.IA, len(p.Hops))
	for i, hf := range p.Hops {
		out[i] = hf.Hop.IA
	}
	return out
}

// Stats returns send/failover counters.
func (h *Host) Stats() (sent, failovers uint64) { return h.sent, h.failovers }

// SendOn transmits a payload over one specific forwarding path —
// application-based path selection (paper §1): the application, not the
// network, decides which of the available paths carries its traffic.
func (n *Network) SendOn(p *FwdPath, src, dst addr.Host, payload []byte) error {
	pkt := &dataplane.Packet{Src: src, Dst: dst, Path: p, Payload: payload}
	return n.fabric.Inject(pkt)
}
