package strategy

import "time"

// SingleBest always uses the single lowest-hop-count usable path — the
// strategy of a classic single-path transport that only switches paths on
// revocation. It waits rather than spill to alternatives.
type SingleBest struct{}

// Name implements Policy.
func (*SingleBest) Name() string { return "single-best" }

// Pick implements Policy.
func (*SingleBest) Pick(paths []PathView) int {
	best := -1
	for i, p := range paths {
		if !p.usable() {
			continue
		}
		if best < 0 || p.Hops < paths[best].Hops {
			best = i
		}
	}
	if best < 0 || paths[best].Busy {
		return -1
	}
	return best
}

// RoundRobin rotates chunks across all idle usable paths, the simplest
// capacity-aggregating multipath scheduler.
type RoundRobin struct {
	last int
}

// Name implements Policy.
func (*RoundRobin) Name() string { return "round-robin" }

// Pick implements Policy.
func (s *RoundRobin) Pick(paths []PathView) int {
	n := len(paths)
	for off := 1; off <= n; off++ {
		i := (s.last + off) % n
		if paths[i].idle() {
			s.last = i
			return i
		}
	}
	return -1
}

// WeightedBottleneck is smooth weighted round-robin with each path
// weighted by its bottleneck capacity: paths carry chunks in proportion to
// the capacity they can contribute, which maximizes aggregate goodput over
// heterogeneous path sets.
type WeightedBottleneck struct {
	credit []float64
}

// Name implements Policy.
func (*WeightedBottleneck) Name() string { return "weighted" }

// Pick implements Policy.
func (s *WeightedBottleneck) Pick(paths []PathView) int {
	anyIdle := false
	for _, p := range paths {
		if p.idle() {
			anyIdle = true
			break
		}
	}
	if !anyIdle {
		return -1
	}
	for len(s.credit) < len(paths) {
		s.credit = append(s.credit, 0)
	}
	total := 0.0
	for i, p := range paths {
		if !p.usable() {
			s.credit[i] = 0
			continue
		}
		s.credit[i] += p.Bottleneck
		total += p.Bottleneck
	}
	best := -1
	for i, p := range paths {
		if !p.idle() {
			continue
		}
		if best < 0 || s.credit[i] > s.credit[best] {
			best = i
		}
	}
	s.credit[best] -= total
	return best
}

// LatencyAware prefers the lowest-latency usable path and spills to other
// paths only while their propagation delay stays within Stretch of the
// best — the latency-sensitive strategy of interactive applications.
type LatencyAware struct {
	// Stretch bounds how much slower than the best path an alternative
	// may be (default 1.5).
	Stretch float64
}

// Name implements Policy.
func (*LatencyAware) Name() string { return "latency" }

// Pick implements Policy.
func (s *LatencyAware) Pick(paths []PathView) int {
	stretch := s.Stretch
	if stretch <= 1 {
		stretch = 1.5
	}
	minDelay := time.Duration(-1)
	for _, p := range paths {
		if p.usable() && (minDelay < 0 || p.Delay < minDelay) {
			minDelay = p.Delay
		}
	}
	if minDelay < 0 {
		return -1
	}
	limit := time.Duration(float64(minDelay) * stretch)
	best := -1
	for i, p := range paths {
		if !p.idle() || p.Delay > limit {
			continue
		}
		if best < 0 || p.Delay < paths[best].Delay {
			best = i
		}
	}
	return best
}

// DisjointMax maximizes hop disjointness against the flow's active path
// set: among idle usable paths it picks the one sharing the fewest links
// with paths already carrying bytes, breaking ties by bottleneck capacity
// (descending), then hop count (ascending), then path-set order. Striping
// over maximally disjoint paths minimizes shared-fate: a single link
// failure or congested bottleneck hits as few of the flow's paths as
// possible — the disjointness-maximizing strategy of the axiomatic
// path-selection analysis.
//
// Axiom (pinned by property tests): the picked path always has minimal
// Shared among the idle usable candidates, so a path whose overlap with
// the active set strictly contains another candidate's overlap — a
// dominated superset-overlap path — is never selected.
type DisjointMax struct{}

// Name implements Policy.
func (*DisjointMax) Name() string { return "disjoint" }

// Pick implements Policy.
func (*DisjointMax) Pick(paths []PathView) int {
	best := -1
	for i, p := range paths {
		if !p.idle() {
			continue
		}
		if best < 0 || disjointLess(p, paths[best]) {
			best = i
		}
	}
	return best
}

// disjointLess reports whether a is strictly preferable to b under the
// disjointness order (fewer shared links, then more capacity, then fewer
// hops). Equal keys keep the earlier index.
func disjointLess(a, b PathView) bool {
	if a.Shared != b.Shared {
		return a.Shared < b.Shared
	}
	if a.Bottleneck != b.Bottleneck {
		return a.Bottleneck > b.Bottleneck
	}
	return a.Hops < b.Hops
}

// HybridWeights parameterize the hybrid axiomatic scorer. All weights are
// non-negative; a zero weight disables its term.
type HybridWeights struct {
	// Capacity rewards bottleneck capacity (normalized to the best
	// usable path's).
	Capacity float64
	// Latency penalizes propagation delay (normalized to the slowest
	// usable path's).
	Latency float64
	// Loss penalizes the observed loss fraction.
	Loss float64
	// Disjoint penalizes overlap with the active set (Shared/Links).
	Disjoint float64
	// Hops penalizes path length (normalized to the longest usable
	// path's).
	Hops float64
	// Revocation penalizes paths whose links saw a recent revocation,
	// decaying linearly to zero over RevocationWindow.
	Revocation float64
	// RevocationWindow is how long a past revocation keeps penalizing a
	// path (default 10s).
	RevocationWindow time.Duration
}

// DefaultHybridWeights balance the terms for general bulk transfer:
// capacity first, loss avoidance strong, latency and disjointness as
// moderate tiebreakers.
func DefaultHybridWeights() HybridWeights {
	return HybridWeights{
		Capacity:         1,
		Latency:          0.5,
		Loss:             2,
		Disjoint:         0.5,
		Hops:             0.25,
		Revocation:       1,
		RevocationWindow: 10 * time.Second,
	}
}

// Hybrid scores every path as a weighted sum of normalized attributes —
// the hybrid scoring family of the axiomatic analysis — and picks the
// idle usable path with the highest score. Normalizers are shared across
// the candidate set, so a path at least as good as another on every
// attribute never scores lower (the monotonicity axiom, pinned by
// property tests and mutation-validated against a naive reference
// scorer).
type Hybrid struct {
	// W are the scoring weights; the zero value is replaced by
	// DefaultHybridWeights on first use.
	W HybridWeights

	scores []float64 // per-Pick scratch, reused to keep Pick 0-alloc
}

// Name implements Policy.
func (*Hybrid) Name() string { return "hybrid" }

// hybridNorm holds the per-candidate-set normalizers (maxima over usable
// paths; zero when no usable path contributes the attribute).
type hybridNorm struct {
	bottleneck float64
	delay      float64
	hops       float64
}

// norm computes the shared normalizers over the usable paths.
func hybridNormalize(paths []PathView) hybridNorm {
	var n hybridNorm
	for _, p := range paths {
		if !p.usable() {
			continue
		}
		if p.Bottleneck > n.bottleneck {
			n.bottleneck = p.Bottleneck
		}
		if d := float64(p.Delay); d > n.delay {
			n.delay = d
		}
		if h := float64(p.Hops); h > n.hops {
			n.hops = h
		}
	}
	return n
}

// score computes one path's score under weights w and normalizers n.
func (w *HybridWeights) score(p PathView, n hybridNorm) float64 {
	s := 0.0
	if n.bottleneck > 0 {
		s += w.Capacity * (p.Bottleneck / n.bottleneck)
	}
	if n.delay > 0 {
		s -= w.Latency * (float64(p.Delay) / n.delay)
	}
	s -= w.Loss * p.Loss
	if p.Links > 0 {
		s -= w.Disjoint * (float64(p.Shared) / float64(p.Links))
	}
	if n.hops > 0 {
		s -= w.Hops * (float64(p.Hops) / n.hops)
	}
	if p.RevokedAge >= 0 && w.RevocationWindow > 0 && p.RevokedAge < w.RevocationWindow {
		s -= w.Revocation * (1 - float64(p.RevokedAge)/float64(w.RevocationWindow))
	}
	return s
}

// weights returns the effective weights (defaults for the zero value).
func (h *Hybrid) weights() HybridWeights {
	if h.W == (HybridWeights{}) {
		return DefaultHybridWeights()
	}
	return h.W
}

// Pick implements Policy.
func (h *Hybrid) Pick(paths []PathView) int {
	w := h.weights()
	n := hybridNormalize(paths)
	for len(h.scores) < len(paths) {
		h.scores = append(h.scores, 0)
	}
	best := -1
	for i, p := range paths {
		if !p.idle() {
			continue
		}
		h.scores[i] = w.score(p, n)
		if best < 0 || h.scores[i] > h.scores[best] {
			best = i
		}
	}
	return best
}
