package core

import (
	"math"
)

// SearchSpace is a grid over the diversity algorithm's parameters. The
// paper tunes α, β, γ and the score threshold per topology by "first
// performing a grid search with exponentially spaced values to narrow
// down the set of parameters followed by a grid search with linearly
// spaced values" (§4.2).
type SearchSpace struct {
	Alphas, Betas, Gammas, Thresholds []float64
}

// Size returns the number of parameter combinations in the grid.
func (s SearchSpace) Size() int {
	return len(s.Alphas) * len(s.Betas) * len(s.Gammas) * len(s.Thresholds)
}

// Objective scores a parameter set; higher is better. Implementations
// typically run a small beaconing simulation and combine achieved path
// quality with (negated) communication overhead.
type Objective func(p Params) float64

// GridSearch evaluates every combination in the space (holding the other
// Params fields from base) and returns the best parameters with their
// score. NaN objective values are skipped.
func GridSearch(base Params, space SearchSpace, obj Objective) (Params, float64) {
	best := base
	bestScore := math.Inf(-1)
	for _, a := range space.Alphas {
		for _, b := range space.Betas {
			for _, g := range space.Gammas {
				for _, t := range space.Thresholds {
					p := base
					p.Alpha, p.Beta, p.Gamma, p.ScoreThreshold = a, b, g, t
					s := obj(p)
					if math.IsNaN(s) {
						continue
					}
					if s > bestScore {
						bestScore = s
						best = p
					}
				}
			}
		}
	}
	return best, bestScore
}
