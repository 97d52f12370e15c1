package scion

import (
	"fmt"

	"scionmpr/internal/addr"
	"scionmpr/internal/dataplane"
	"scionmpr/internal/seg"
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
	// equals len(paths) once every path crosses a revoked link.
	dst    addr.IA
	paths  []*FwdPath
	active int
	// revoked holds the links learned from SCMP messages since the path
	// set was loaded.
	revoked map[seg.LinkKey]bool

	sent, failovers uint64
}

// Host attaches (or returns the existing) endpoint with the given IPv4
// local address in ia.
func (n *Network) Host(ia addr.IA, a, b, c, d byte) (*Host, error) {
	if n.Topo.AS(ia) == nil {
		return nil, fmt.Errorf("scion: unknown AS %s", ia)
	}
	hostAddr := addr.HostIP4(ia, a, b, c, d)
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
	h.revoked = map[seg.LinkKey]bool{}
	return nil
}

// usable reports whether a path avoids every revoked link.
func (h *Host) usable(p *FwdPath) bool {
	for _, hf := range p.Hops {
		if hf.Hop.Out != 0 && h.revoked[seg.LinkKey{IA: hf.Hop.IA, If: hf.Hop.Out}] {
			return false
		}
		if hf.Hop.In != 0 && h.revoked[seg.LinkKey{IA: hf.Hop.IA, If: hf.Hop.In}] {
			return false
		}
	}
	return true
}

// handleSCMP records a revoked link and switches to the first usable path
// — no waiting for route re-convergence (paper: "hosts switch to a
// different path as soon as the SCMP message is received").
func (h *Host) handleSCMP(msg *dataplane.SCMP) {
	if msg.Type != dataplane.SCMPRevokedLink || h.revoked == nil {
		return
	}
	// The revocation names the upstream side; the same physical link seen
	// from the other side is revoked too.
	h.revoked[msg.Link] = true
	if l := h.net.Topo.LinkByIf(msg.Link.IA, msg.Link.If); l != nil {
		other := l.Other(msg.Link.IA)
		h.revoked[seg.LinkKey{IA: other, If: l.LocalIf(other)}] = true
	}
	if cur := h.activePath(); cur != nil && h.usable(cur) {
		return
	}
	h.active = len(h.paths)
	for i, p := range h.paths {
		if h.usable(p) {
			h.active = i
			h.failovers++
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
