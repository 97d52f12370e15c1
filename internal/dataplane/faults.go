package dataplane

import (
	"scionmpr/internal/sim"
	"scionmpr/internal/topology"
)

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
