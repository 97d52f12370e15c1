package strategy

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
