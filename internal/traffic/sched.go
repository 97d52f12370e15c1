package traffic

import "scionmpr/internal/strategy"

// The scheduler layer is now the path-selection policy laboratory in
// internal/strategy; these aliases keep the traffic engine's historical
// API (PathInfo/Scheduler/NewScheduler and the scheduler types the
// experiment drivers build) stable while the implementations live behind
// the Policy interface. See package strategy for the policy catalog and
// the text configuration format.

// PathInfo is the scheduler-visible state of one candidate path of a
// flow. The engine rebuilds it before every decision.
type PathInfo = strategy.PathView

// Scheduler decides, chunk by chunk, which of a flow's candidate paths
// carries the next chunk. Pick returns an index into paths, or -1 to wait
// until a busy path becomes idle. Implementations must be deterministic
// and must never pick a revoked path.
type Scheduler = strategy.Policy

// The schedulers the experiment drivers build directly, now policies in
// internal/strategy.
type (
	SingleBest         = strategy.SingleBest
	WeightedBottleneck = strategy.WeightedBottleneck
)

// NewScheduler resolves a strategy spec to a per-flow scheduler factory.
// Known names: single-best, round-robin, weighted, latency, disjoint,
// hybrid; see strategy.Parse for the parameter syntax.
func NewScheduler(name string) (func() Scheduler, error) {
	return strategy.Parse(name)
}

// SchedulerNames lists the registered policy names in canonical order.
func SchedulerNames() []string { return strategy.Names() }
