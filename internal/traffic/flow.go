package traffic

import (
	"time"

	"scionmpr/internal/addr"
	"scionmpr/internal/dataplane"
	"scionmpr/internal/sim"
	"scionmpr/internal/strategy"
	"scionmpr/internal/topology"
)

// FlowSpec describes one flow of the workload before it starts.
type FlowSpec struct {
	// ID must be unique within an engine and fit in 24 bits (it is encoded
	// into head-packet payloads and host addresses).
	ID int
	// Src and Dst are the endpoint ASes.
	Src, Dst addr.IA
	// Start is the arrival time relative to simulation start.
	Start time.Duration
	// Size is the number of bytes to transfer; <= 0 means open-ended (the
	// flow sends until the simulation deadline).
	Size int64
}

// flowPath is one authorized forwarding path a flow stripes over,
// together with the capacity-model view of it.
type flowPath struct {
	fp    *dataplane.FwdPath
	links []dataplane.LinkRef
	// delay is the one-way propagation delay along the path.
	delay time.Duration
	// bottleneck is the smallest link rate on the path (bytes/s).
	bottleneck float64
	// busyUntil is when the path finishes serializing its current chunk.
	busyUntil sim.Time
	// sent is how many bytes this path has carried (net of rewinds).
	sent    int64
	revoked bool
}

type flowState int

const (
	flowPending flowState = iota
	flowActive
	flowDone
	flowFailed
)

// Flow is one transfer striped over a set of paths by a scheduler. All
// methods are driven by the engine's event loop; Flow itself is passive.
type Flow struct {
	spec  FlowSpec
	sched strategy.Policy
	// mem is the source AS's link-failure knowledge.
	mem   *dataplane.SourceMemory
	paths []*flowPath
	infos []strategy.PathView // scratch for scheduler decisions

	state    flowState
	started  sim.Time
	finished sim.Time

	sent, lost int64
	// lastPath tracks the previous chunk's path for switch counting.
	lastPath  int
	switches  int
	lookups   int
	requeries int
	reprobes  int
	retries   int

	// Outage tracking: a window opens when a previously connected flow
	// drops to zero usable paths and closes when it regains one; the
	// closed windows are the flow's time-to-reconnect samples.
	everConnected bool
	inOutage      bool
	outageStart   sim.Time
	outages       []time.Duration

	// wakePending/wakeAt dedupe scheduled pump wake-ups.
	wakePending bool
	wakeAt      sim.Time
}

// Sent returns the bytes successfully admitted (losses already rewound).
func (f *Flow) Sent() int64 { return f.sent }

// Lost returns the bytes dropped on revoked links and retransmitted.
func (f *Flow) Lost() int64 { return f.lost }

// Done reports completion.
func (f *Flow) Done() bool { return f.state == flowDone }

// Failed reports that the flow ran out of paths and gave up.
func (f *Flow) Failed() bool { return f.state == flowFailed }

// PathSwitches returns how often consecutive chunks used different paths.
func (f *Flow) PathSwitches() int { return f.switches }

// Outages returns the flow's completed disconnection windows — the time
// from losing the last usable path to regaining one (time-to-reconnect).
func (f *Flow) Outages() []time.Duration { return f.outages }

// OpenOutage returns how long the flow has been disconnected as of now
// (zero when connected) — the still-open window Outages does not include.
func (f *Flow) OpenOutage(now sim.Time) time.Duration {
	if !f.inOutage || now <= f.outageStart {
		return 0
	}
	return time.Duration(now - f.outageStart)
}

// FCT returns the flow completion time (0 until done).
func (f *Flow) FCT() time.Duration {
	if f.state != flowDone {
		return 0
	}
	return time.Duration(f.finished - f.started)
}

// Goodput returns delivered bytes per second of virtual time, using now
// as the end of the observation window for unfinished flows.
func (f *Flow) Goodput(now sim.Time) float64 {
	end := now
	if f.state == flowDone {
		end = f.finished
	}
	d := time.Duration(end - f.started).Seconds()
	if f.state == flowPending || d <= 0 {
		return 0
	}
	return float64(f.sent) / d
}

// PathStat is the per-path observable of one flow.
type PathStat struct {
	Hops       int
	Delay      time.Duration
	Bottleneck float64
	Sent       int64
	Revoked    bool
}

// PathStats returns one entry per path in path-set order.
func (f *Flow) PathStats() []PathStat {
	out := make([]PathStat, len(f.paths))
	for i, p := range f.paths {
		out[i] = PathStat{
			Hops:       len(p.fp.Hops),
			Delay:      p.delay,
			Bottleneck: p.bottleneck,
			Sent:       p.sent,
			Revoked:    p.revoked,
		}
	}
	return out
}

// pathHasLink reports whether p traverses the link.
func pathHasLink(p *flowPath, id topology.LinkID) bool {
	for _, ref := range p.links {
		if ref.Link.ID == id {
			return true
		}
	}
	return false
}

// usablePaths counts paths that are not revoked.
func (f *Flow) usablePaths() int {
	n := 0
	for _, p := range f.paths {
		if !p.revoked {
			n++
		}
	}
	return n
}

// remaining returns how many bytes are still to send (ChunkSize-capped
// for open-ended flows).
func (f *Flow) remaining(chunk int64) int64 {
	if f.spec.Size <= 0 {
		return chunk
	}
	r := f.spec.Size - f.sent
	if r < 0 {
		r = 0
	}
	return r
}
