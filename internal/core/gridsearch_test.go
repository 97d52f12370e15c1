package core

import (
	"math"
	"testing"

	"scionmpr/internal/addr"
	"scionmpr/internal/seg"
)

// testGrid is an exponentially spaced grid, the paper's first search
// stage (§4.2).
var testGrid = SearchSpace{
	Alphas:     []float64{0.5, 1, 2, 4, 8, 16, 32},
	Betas:      []float64{1, 2, 4, 8},
	Gammas:     []float64{1, 2, 4, 8},
	Thresholds: []float64{0.01, 0.05, 0.2},
}

func TestGridSearchFindsOptimum(t *testing.T) {
	base := DefaultParams(5)
	// Objective with a known optimum inside the grid.
	obj := func(p Params) float64 {
		return -(math.Abs(p.Alpha-4) + math.Abs(p.Beta-2) + math.Abs(p.Gamma-2) + math.Abs(p.ScoreThreshold-0.05))
	}
	best, score := GridSearch(base, testGrid, obj)
	if best.Alpha != 4 || best.Beta != 2 || best.Gamma != 2 || best.ScoreThreshold != 0.05 {
		t.Errorf("best = %+v (score %v)", best, score)
	}
	// Non-swept fields stay from base.
	if best.Limit != 5 || best.MaxGeoMean != base.MaxGeoMean {
		t.Error("base fields lost")
	}
}

func TestGridSearchSkipsNaN(t *testing.T) {
	base := DefaultParams(5)
	calls := 0
	obj := func(p Params) float64 {
		calls++
		if p.Alpha != 1 {
			return math.NaN()
		}
		return 1
	}
	best, score := GridSearch(base, testGrid, obj)
	if best.Alpha != 1 || score != 1 {
		t.Errorf("best alpha = %v score = %v", best.Alpha, score)
	}
	if calls != testGrid.Size() {
		t.Errorf("calls = %d, want full grid %d", calls, testGrid.Size())
	}
}

func TestASDisjointAblation(t *testing.T) {
	p := DefaultParams(5)
	p.ASDisjoint = true
	d := NewDiversity(p)(addr.MustIA(1, 1)).(*Diversity)
	tbl := d.table(origin, neighbor)
	// Two parallel links of the same AS collapse to one counter.
	a := seg.LinkKey{IA: addr.MustIA(1, 7), If: 1}
	b := seg.LinkKey{IA: addr.MustIA(1, 7), If: 2}
	tbl[d.intern(a)]++
	// Under AS-disjointness the parallel link b counts as covered...
	dsAS := d.diversityScore([]seg.LinkKey{b}, tbl)
	// ...whereas link-disjointness treats it as new.
	p2 := DefaultParams(5)
	d2 := NewDiversity(p2)(addr.MustIA(1, 1)).(*Diversity)
	tbl2 := d2.table(origin, neighbor)
	tbl2[d2.intern(a)]++
	dsLink := d2.diversityScore([]seg.LinkKey{b}, tbl2)
	if !(dsAS < dsLink) {
		t.Errorf("AS-disjoint ds %v must be below link-disjoint ds %v for a parallel link", dsAS, dsLink)
	}
}
