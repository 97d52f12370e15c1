package scion

import (
	"fmt"

	"scionmpr/internal/addr"
	"scionmpr/internal/dataplane"
)

// Host is an endpoint attached to the network: it looks up paths on
// demand, keeps a multi-path set per destination AS, sends packets on the
// active path, and fails over instantly on SCMP revocations.
type Host struct {
	Addr addr.Host
	net  *Network
	ep   *dataplane.Endpoint

	// current destination the endpoint's path set is loaded for.
	curDst addr.IA
	recv   func(from addr.Host, payload []byte)
}

// Host attaches (or returns the existing) endpoint with the given IPv4
// local address in ia.
func (n *Network) Host(ia addr.IA, a, b, c, d byte) (*Host, error) {
	if n.Topo.AS(ia) == nil {
		return nil, fmt.Errorf("scion: unknown AS %s", ia)
	}
	hostAddr := addr.HostIP4(ia, a, b, c, d)
	key := hostAddr.String()
	if h, ok := n.hosts[key]; ok {
		return h, nil
	}
	h := &Host{Addr: hostAddr, net: n}
	h.ep = dataplane.NewEndpoint(n.fabric, hostAddr)
	// Delivery fan-out happens in Network.dispatch (installed at
	// bootstrap); hosts only need registering.
	n.hosts[key] = h
	return h, nil
}

// OnReceive installs the host's delivery callback.
func (h *Host) OnReceive(fn func(from addr.Host, payload []byte)) { h.recv = fn }

// ensurePaths loads the endpoint's path set for dst if needed.
func (h *Host) ensurePaths(dst addr.IA) error {
	if h.curDst == dst && h.ep.ActivePath() != nil {
		return nil
	}
	paths, err := h.net.Paths(h.Addr.IA, dst)
	if err != nil {
		return err
	}
	h.ep.SetPaths(paths)
	h.curDst = dst
	return nil
}

// Send transmits payload to the destination host over the active path,
// performing path lookup on first use of the destination AS.
func (h *Host) Send(dst addr.Host, payload []byte) error {
	if dst.IA == h.Addr.IA {
		// Intra-AS delivery without SCION forwarding.
		for _, hh := range h.net.hosts {
			if hh.Addr.Equal(dst) && hh.recv != nil {
				hh.recv(h.Addr, payload)
				return nil
			}
		}
		return fmt.Errorf("scion: no such local host %s", dst)
	}
	if err := h.ensurePaths(dst.IA); err != nil {
		return err
	}
	return h.ep.Send(dst, payload)
}

// ActivePathHops reports the AS-level hops of the current active path
// toward the host's current destination (nil when none loaded).
func (h *Host) ActivePathHops() []addr.IA {
	p := h.ep.ActivePath()
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
func (h *Host) Stats() (sent, failovers uint64) { return h.ep.Sent, h.ep.Failovers }

// SendOn transmits a payload over one specific forwarding path —
// application-based path selection (paper §1): the application, not the
// network, decides which of the available paths carries its traffic.
func (n *Network) SendOn(p *FwdPath, src, dst addr.Host, payload []byte) error {
	pkt := &dataplane.Packet{Src: src, Dst: dst, Path: p, Payload: payload}
	return n.fabric.Inject(pkt)
}
