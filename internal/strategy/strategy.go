// Package strategy is the path-selection policy laboratory: a pluggable
// interface for scoring and picking among a flow's candidate paths, the
// policy implementations themselves, and a text configuration format for
// parameterizing them.
//
// The axiomatic analysis of path-selection strategies (Baumeister &
// Keshvadi) spans a space much wider than any one transport's heuristic:
// capacity-weighted striping, latency-bounded spilling, disjointness
// maximization, loss adaptation, and hybrid scoring over all of these.
// Each policy here occupies one point of that space; the tournament
// harness in internal/experiments races them across topology × workload ×
// chaos grids (see EXPERIMENTS.md "Strategy tournament").
//
// Policies see one PathView per candidate path, combining static path
// properties (hops, propagation delay, bottleneck capacity) with live
// per-path telemetry the traffic engine maintains: observed loss, an RTT
// estimate, hop disjointness against the flow's active path set, and
// revocation recency from SCMP history and path-server lookups. Pick
// must be deterministic, must never select a revoked path, and must not
// allocate on the steady-state hot path (policies keep reusable scratch
// on their receiver; CI gates allocs/op at zero).
package strategy

import "time"

// PathView is the policy-visible state of one candidate path of a flow.
// The traffic engine rebuilds it before every decision.
type PathView struct {
	// Hops is the AS-level path length.
	Hops int
	// Delay is the one-way propagation delay.
	Delay time.Duration
	// Bottleneck is the smallest link capacity along the path (bytes/s).
	Bottleneck float64
	// Sent is how many bytes the flow has sent on this path so far.
	Sent int64
	// Busy reports that the path is still serializing a previous chunk.
	Busy bool
	// Revoked paths must never be picked.
	Revoked bool

	// Live per-path telemetry (zero values when the engine has nothing
	// to report — policies must treat them as "no signal", not as data).

	// Loss is the observed loss fraction on this path: bytes rewound by
	// SCMP revocations over gross bytes attempted, in [0, 1].
	Loss float64
	// RTT is the engine's round-trip estimate for the path.
	RTT time.Duration
	// Links is the number of inter-AS links the path traverses.
	Links int
	// Shared is how many of the path's links are also used by another
	// path of the flow's active set (paths currently carrying bytes) —
	// the hop-disjointness signal: Shared 0 means fully disjoint.
	Shared int
	// RevokedAge is the time since a revocation was last seen on any of
	// the path's links (SCMP history merged with path-server revocation
	// recency); negative means never.
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

// Names lists the registered policy names in canonical tournament order.
func Names() []string {
	return []string{"single-best", "round-robin", "weighted", "latency", "disjoint", "hybrid"}
}
