// Package strategy holds the traffic engine's path-selection policies:
// the interface a flow's scheduler implements and the two policies the
// Figure 6 experiments run (-exp capacity, -exp churn). WeightedBottleneck
// stripes chunks over every usable path in proportion to its bottleneck
// capacity, the multipath endpoint; SingleBest keeps to the shortest
// usable path, the single-path endpoint it is compared against.
//
// Policies see one PathView per candidate path. Pick must be
// deterministic, must never select a revoked path, and must not allocate
// on the steady-state hot path (policies keep reusable scratch on their
// receiver; CI gates allocs/op at zero).
package strategy

import (
	"fmt"
	"time"
)

// PathView is the policy-visible state of one candidate path of a flow.
// The traffic engine rebuilds it before every decision.
type PathView struct {
	// Hops is the AS-level path length.
	Hops int
	// Delay is the one-way propagation delay. No policy reads it and
	// the traffic engine leaves it zero; the endpoint_cold benchmark
	// still sets it.
	Delay time.Duration
	// Bottleneck is the smallest link capacity along the path (bytes/s).
	Bottleneck float64
	// Busy reports that the path is still serializing a previous chunk.
	Busy bool
	// Revoked paths must never be picked.
	Revoked bool

	// Links and RevokedAge are read by no policy. The traffic engine
	// leaves them zero; only the endpoint_cold benchmark still sets them.
	Links      int
	RevokedAge time.Duration
}

func (p PathView) usable() bool { return !p.Revoked }
func (p PathView) idle() bool   { return !p.Revoked && !p.Busy }

// Policy decides, chunk by chunk, which of a flow's candidate paths
// carries the next chunk. Pick returns an index into paths, or -1 to wait
// until a busy path becomes idle (or, when no path is usable at all, to
// make the engine re-query). Implementations must be deterministic and
// must never pick a revoked path.
type Policy interface {
	Name() string
	Pick(paths []PathView) int
}

// New resolves a policy name, "weighted" or "single-best", to a per-flow
// policy factory (policies are stateful). Any other string is an error.
func New(name string) (func() Policy, error) {
	switch name {
	case "weighted":
		return func() Policy { return &WeightedBottleneck{} }, nil
	case "single-best":
		return func() Policy { return &SingleBest{} }, nil
	}
	return nil, fmt.Errorf("strategy: unknown policy %q (want weighted or single-best)", name)
}
