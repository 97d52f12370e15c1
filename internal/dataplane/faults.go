package dataplane

import (
	"math"
	"sync/atomic"

	"scionmpr/internal/topology"
)

// linkFaults is the per-link fault state of one forwarding plane: which
// links are failed and which shed packets as gray failures. Fabric and
// Engine each embed one, so both answer chaos.FaultTarget's link hooks
// and make the egress decision in the same code. The table is dense
// over the topology's LinkIDs (sequential from 1); IDs outside it are
// ignored, since a fault schedule may name links this plane does not
// carry. Entries are atomic because engine workers read them while the
// caller or a handler writes.
type linkFaults struct {
	failed []atomic.Bool
	loss   []atomic.Uint64 // math.Float64bits of the drop rate; 0 = healthy
}

func newLinkFaults(topo *topology.Graph) linkFaults {
	maxID := topology.LinkID(0)
	for _, l := range topo.Links {
		if l.ID > maxID {
			maxID = l.ID
		}
	}
	return linkFaults{
		failed: make([]atomic.Bool, int(maxID)+1),
		loss:   make([]atomic.Uint64, int(maxID)+1),
	}
}

// FailLink marks a link as failed; packets routed over it trigger
// revocations (chaos.FaultTarget).
func (lf *linkFaults) FailLink(id topology.LinkID) {
	if int(id) < len(lf.failed) {
		lf.failed[id].Store(true)
	}
}

// RestoreLink clears a failure (chaos.FaultTarget).
func (lf *linkFaults) RestoreLink(id topology.LinkID) {
	if int(id) < len(lf.failed) {
		lf.failed[id].Store(false)
	}
}

// Failed reports whether a link is failed.
func (lf *linkFaults) Failed(id topology.LinkID) bool {
	return int(id) < len(lf.failed) && lf.failed[id].Load()
}

// SetLinkLoss sets the gray-failure drop probability of a link, both
// directions (chaos.FaultTarget): packets are shed silently, with no
// SCMP, so senders can only detect the failure end to end. A rate that
// is not positive (zero, negative, NaN) heals the link; rates above 1
// drop everything.
func (lf *linkFaults) SetLinkLoss(id topology.LinkID, rate float64) {
	if int(id) >= len(lf.loss) {
		return
	}
	if !(rate > 0) {
		rate = 0
	} else if rate > 1 {
		rate = 1
	}
	lf.loss[id].Store(math.Float64bits(rate))
}

// LinkLoss returns the gray-failure drop probability of a link.
func (lf *linkFaults) LinkLoss(id topology.LinkID) float64 {
	if int(id) >= len(lf.loss) {
		return 0
	}
	return math.Float64frombits(lf.loss[id].Load())
}

// egressVerdict is what a border router does with a verified packet at
// its egress interface.
type egressVerdict uint8

const (
	egressForward egressVerdict = iota
	egressNoRoute               // interface attaches to no link: dest-unreachable SCMP
	egressRevoked               // link failed: revocation SCMP
	egressGray                  // gray failure: silent drop
)

// egress decides the fate of a packet of the given flow leaving over
// link (nil when the hop's egress interface attaches to nothing); drop
// is the plane's gray-loss coin.
func (lf *linkFaults) egress(link *topology.Link, flow uint32, drop func(flow uint32, link topology.LinkID, rate float64) bool) egressVerdict {
	switch {
	case link == nil:
		return egressNoRoute
	case lf.Failed(link.ID):
		return egressRevoked
	}
	if rate := lf.LinkLoss(link.ID); rate > 0 && drop(flow, link.ID, rate) {
		return egressGray
	}
	return egressForward
}
