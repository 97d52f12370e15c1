package sim

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"

	"scionmpr/internal/topology"
)

// LinkFaults is the per-link fault table of one plane: which links are
// failed, which shed traffic as gray failures, and which carry a latency
// override. Network and dataplane.Engine each embed one (a
// dataplane.Fabric answers failures and loss through its engine's and
// delay through its network's), so every plane answers
// chaos.FaultTarget from the same code. The table is dense over the
// topology's LinkIDs (sequential from 1); IDs outside it are ignored,
// since a fault schedule may name links a plane does not carry. Entries
// are atomic because a sharded Network runs deliveries on parallel
// workers, whose handlers may read the table.
type LinkFaults struct {
	links []linkFault
}

type linkFault struct {
	failed atomic.Bool
	loss   atomic.Uint64 // math.Float64bits of the drop rate; 0 = healthy
	delay  atomic.Int64  // latency override; 0 = none
}

// NewLinkFaults builds a healthy table over topo's links.
func NewLinkFaults(topo *topology.Graph) LinkFaults {
	maxID := topology.LinkID(0)
	for _, l := range topo.Links {
		maxID = max(maxID, l.ID)
	}
	return LinkFaults{links: make([]linkFault, int(maxID)+1)}
}

// at returns the entry of a link, or nil for IDs outside the table.
func (lf *LinkFaults) at(id topology.LinkID) *linkFault {
	if int(id) < len(lf.links) {
		return &lf.links[id]
	}
	return nil
}

// FailLink marks a link as failed, both directions (chaos.FaultTarget).
func (lf *LinkFaults) FailLink(id topology.LinkID) {
	if f := lf.at(id); f != nil {
		f.failed.Store(true)
	}
}

// RestoreLink clears a failure (chaos.FaultTarget).
func (lf *LinkFaults) RestoreLink(id topology.LinkID) {
	if f := lf.at(id); f != nil {
		f.failed.Store(false)
	}
}

// Failed reports whether a link is failed.
func (lf *LinkFaults) Failed(id topology.LinkID) bool {
	f := lf.at(id)
	return f != nil && f.failed.Load()
}

// SetLinkLoss sets the gray-failure drop probability of a link, both
// directions (chaos.FaultTarget): traffic is shed silently, so senders
// can only detect the failure end to end. A rate that is not positive
// (zero, negative, NaN) heals the link; rates above 1 drop everything.
func (lf *LinkFaults) SetLinkLoss(id topology.LinkID, rate float64) {
	f := lf.at(id)
	if f == nil {
		return
	}
	if !(rate > 0) {
		rate = 0
	} else if rate > 1 {
		rate = 1
	}
	f.loss.Store(math.Float64bits(rate))
}

// LinkLoss returns the gray-failure drop probability of a link.
func (lf *LinkFaults) LinkLoss(id topology.LinkID) float64 {
	if f := lf.at(id); f != nil {
		return math.Float64frombits(f.loss.Load())
	}
	return 0
}

// SetLinkDelay overrides the one-way latency of a link, both directions
// (chaos.FaultTarget); d <= 0 clears the override.
func (lf *LinkFaults) SetLinkDelay(id topology.LinkID, d time.Duration) {
	if f := lf.at(id); f != nil {
		f.delay.Store(int64(max(d, 0)))
	}
}

// LinkDelay returns a link's latency override, 0 when none is set.
func (lf *LinkFaults) LinkDelay(id topology.LinkID) time.Duration {
	if f := lf.at(id); f != nil {
		return time.Duration(f.delay.Load())
	}
	return 0
}

// LossCoin is the one gray-failure coin: drop iff splitmix64 of (key,
// link) falls below rate. The decision is a pure function of its
// arguments, so it needs no state to checkpoint and gives the same answer
// on any worker. The data plane keys it on the packet's flow ID (the
// virtual-time fabric and the queue-draining engine, which interleave
// packets differently, shed exactly the same packets, and a loop-free
// path draws each (flow, link) at most once); Network keys it on its count of drawn
// decisions. Rotating the key puts a flow ID (below 2^32) in the high
// word, clear of the link, and keeps a count's high bits in play.
func LossCoin(key uint64, link topology.LinkID, rate float64) bool {
	h := splitmix64(bits.RotateLeft64(key, 32) ^ uint64(link))
	return float64(h>>11)/(1<<53) < rate
}

// splitmix64 is the finalizer of the splitmix64 generator: a cheap,
// high-quality 64-bit mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
