package strategy

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

// randomPathSet draws a candidate set with adversarial variety: busy and
// revoked paths mixed in, zero and missing telemetry, ties.
func randomPathSet(rng *rand.Rand) []PathView {
	n := 1 + rng.Intn(8)
	paths := make([]PathView, n)
	for i := range paths {
		hops := 1 + rng.Intn(8)
		p := PathView{
			Hops:       hops,
			Delay:      time.Duration(1+rng.Intn(50)) * time.Millisecond,
			Bottleneck: 1e6 + rng.Float64()*1e9,
			Sent:       int64(rng.Intn(1 << 20)),
			Busy:       rng.Float64() < 0.3,
			Revoked:    rng.Float64() < 0.2,
			Loss:       rng.Float64(),
			Links:      hops,
			Shared:     rng.Intn(hops + 1),
			RevokedAge: -1,
		}
		p.RTT = 2 * p.Delay
		if rng.Float64() < 0.5 {
			p.RevokedAge = time.Duration(rng.Int63n(int64(20 * time.Second)))
		}
		paths[i] = p
	}
	return paths
}

// checkPickInvariants verifies the universal Pick contract on one set:
// the result is -1 or a valid index, a picked path is never revoked and
// never busy, and the decision is deterministic (a fresh instance of the
// same policy picks the same index).
func checkPickInvariants(factory func() Policy, paths []PathView) error {
	got := factory().Pick(paths)
	if got < -1 || got >= len(paths) {
		return fmt.Errorf("pick %d out of range [-1, %d)", got, len(paths))
	}
	if got >= 0 {
		if paths[got].Revoked {
			return fmt.Errorf("picked revoked path %d", got)
		}
		if paths[got].Busy {
			return fmt.Errorf("picked busy path %d", got)
		}
	}
	if again := factory().Pick(paths); again != got {
		return fmt.Errorf("nondeterministic: pick %d then %d", got, again)
	}
	return nil
}

func TestPickInvariantsAllPolicies(t *testing.T) {
	for _, name := range Names() {
		factory, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		for trial := 0; trial < 2000; trial++ {
			paths := randomPathSet(rng)
			if err := checkPickInvariants(factory, paths); err != nil {
				t.Fatalf("%s trial %d: %v (paths %+v)", name, trial, err, paths)
			}
		}
	}
}

// checkDisjointAxiom verifies the disjointness axiom on one set: the
// picked path has minimal Shared among the idle usable candidates. A
// path whose overlap with the active set is a strict superset of another
// candidate's therefore has strictly larger Shared and can never win —
// dominated superset-overlap paths are never selected.
func checkDisjointAxiom(pick func([]PathView) int, paths []PathView) error {
	got := pick(paths)
	anyIdle := false
	for _, p := range paths {
		if !p.Revoked && !p.Busy {
			anyIdle = true
			break
		}
	}
	if !anyIdle {
		if got != -1 {
			return fmt.Errorf("picked %d with nothing idle", got)
		}
		return nil
	}
	if got < 0 {
		return fmt.Errorf("returned -1 with an idle usable path available")
	}
	if paths[got].Revoked || paths[got].Busy {
		return fmt.Errorf("picked non-idle path %d", got)
	}
	for i, p := range paths {
		if p.Revoked || p.Busy {
			continue
		}
		if p.Shared < paths[got].Shared {
			return fmt.Errorf("picked path %d (Shared %d) over less-overlapping path %d (Shared %d)",
				got, paths[got].Shared, i, p.Shared)
		}
	}
	return nil
}

func TestDisjointMaxAxiom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pick := func(paths []PathView) int { return (&DisjointMax{}).Pick(paths) }
	for trial := 0; trial < 5000; trial++ {
		paths := randomPathSet(rng)
		if err := checkDisjointAxiom(pick, paths); err != nil {
			t.Fatalf("trial %d: %v (paths %+v)", trial, err, paths)
		}
	}
}

// revPenalty is the hybrid revocation penalty a path incurs under w —
// restated independently for the dominance relation below.
func revPenalty(p PathView, w HybridWeights) float64 {
	if p.RevokedAge < 0 || w.RevocationWindow <= 0 || p.RevokedAge >= w.RevocationWindow {
		return 0
	}
	return 1 - float64(p.RevokedAge)/float64(w.RevocationWindow)
}

// disjointRatio is the hybrid disjointness penalty base (Shared/Links).
func disjointRatio(p PathView) float64 {
	if p.Links <= 0 {
		return 0
	}
	return float64(p.Shared) / float64(p.Links)
}

// dominates reports that a is at least as good as b on every scored
// attribute and strictly better on bottleneck capacity. The monotonicity
// axiom demands score(a) > score(b) for such pairs (with a positive
// capacity weight).
func dominates(a, b PathView, w HybridWeights) bool {
	return a.Bottleneck > b.Bottleneck &&
		a.Delay <= b.Delay &&
		a.Loss <= b.Loss &&
		disjointRatio(a) <= disjointRatio(b) &&
		a.Hops <= b.Hops &&
		revPenalty(a, w) <= revPenalty(b, w)
}

// checkMonotonicity verifies the monotonicity axiom on one set under
// scorer: a usable path that dominates another usable path never scores
// lower (strictly higher, since dominance includes strictly more
// capacity).
func checkMonotonicity(scorer func([]PathView) []float64, w HybridWeights, paths []PathView) error {
	scores := scorer(paths)
	if len(scores) != len(paths) {
		return fmt.Errorf("scorer returned %d scores for %d paths", len(scores), len(paths))
	}
	for i, a := range paths {
		if a.Revoked {
			continue
		}
		for j, b := range paths {
			if i == j || b.Revoked || !dominates(a, b, w) {
				continue
			}
			if scores[i] <= scores[j] {
				return fmt.Errorf("path %d dominates %d but scores %v <= %v",
					i, j, scores[i], scores[j])
			}
		}
	}
	return nil
}

func TestHybridMonotonicityAxiom(t *testing.T) {
	h := &Hybrid{W: DefaultHybridWeights()}
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 5000; trial++ {
		paths := randomPathSet(rng)
		if err := checkMonotonicity(h.Scores, h.W, paths); err != nil {
			t.Fatalf("trial %d: %v (paths %+v)", trial, err, paths)
		}
	}
}

// referenceScores is the naive reference scorer: the hybrid scoring
// definition restated term by term with its own normalizer scan, no
// scratch reuse, no shortcuts. The production scorer must agree with it
// to within floating-point noise.
func referenceScores(w HybridWeights, paths []PathView) []float64 {
	var maxB, maxD, maxH float64
	for _, p := range paths {
		if p.Revoked {
			continue
		}
		maxB = math.Max(maxB, p.Bottleneck)
		maxD = math.Max(maxD, float64(p.Delay))
		maxH = math.Max(maxH, float64(p.Hops))
	}
	out := make([]float64, len(paths))
	for i, p := range paths {
		if p.Revoked {
			continue
		}
		capTerm := 0.0
		if maxB > 0 {
			capTerm = w.Capacity * p.Bottleneck / maxB
		}
		latTerm := 0.0
		if maxD > 0 {
			latTerm = w.Latency * float64(p.Delay) / maxD
		}
		lossTerm := w.Loss * p.Loss
		disjTerm := w.Disjoint * disjointRatio(p)
		hopsTerm := 0.0
		if maxH > 0 {
			hopsTerm = w.Hops * float64(p.Hops) / maxH
		}
		revTerm := w.Revocation * revPenalty(p, w)
		out[i] = capTerm - latTerm - lossTerm - disjTerm - hopsTerm - revTerm
	}
	return out
}

// checkAgainstReference compares scorer to the naive reference on one
// set.
func checkAgainstReference(scorer func([]PathView) []float64, w HybridWeights, paths []PathView) error {
	got := scorer(paths)
	want := referenceScores(w, paths)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			return fmt.Errorf("path %d: score %v, reference %v", i, got[i], want[i])
		}
	}
	return nil
}

func TestHybridMatchesReference(t *testing.T) {
	weights := []HybridWeights{
		DefaultHybridWeights(),
		{Capacity: 2, Latency: 1, Loss: 0.5, Disjoint: 1, Hops: 1, Revocation: 3, RevocationWindow: 5 * time.Second},
		{Capacity: 1, RevocationWindow: time.Second},
	}
	for wi, w := range weights {
		h := &Hybrid{W: w}
		rng := rand.New(rand.NewSource(17))
		for trial := 0; trial < 2000; trial++ {
			paths := randomPathSet(rng)
			if err := checkAgainstReference(h.Scores, w, paths); err != nil {
				t.Fatalf("weights %d trial %d: %v", wi, trial, err)
			}
		}
	}
}

// --- Mutation validation -------------------------------------------------
//
// The axiom and differential checks above are only worth their runtime if
// they actually catch broken scorers. Each mutant below seeds one
// realistic implementation bug; the test asserts the corresponding check
// REJECTS it within the same trial budget. A mutant slipping through
// means the battery lost its teeth.

// mutantScorer derives a buggy scorer from the real one.
type mutantScorer struct {
	name   string
	scores func(w HybridWeights, paths []PathView) []float64
}

func hybridMutants() []mutantScorer {
	return []mutantScorer{
		{
			// Sign flip: capacity penalizes instead of rewarding.
			name: "capacity-sign-flip",
			scores: func(w HybridWeights, paths []PathView) []float64 {
				flipped := w
				out := referenceScores(flipped, paths)
				var maxB float64
				for _, p := range paths {
					if !p.Revoked {
						maxB = math.Max(maxB, p.Bottleneck)
					}
				}
				for i, p := range paths {
					if !p.Revoked && maxB > 0 {
						out[i] -= 2 * w.Capacity * p.Bottleneck / maxB
					}
				}
				return out
			},
		},
		{
			// Per-path normalizer: each path normalized by itself, so the
			// capacity term degenerates to a constant.
			name: "per-path-normalizer",
			scores: func(w HybridWeights, paths []PathView) []float64 {
				out := referenceScores(w, paths)
				var maxB float64
				for _, p := range paths {
					if !p.Revoked {
						maxB = math.Max(maxB, p.Bottleneck)
					}
				}
				for i, p := range paths {
					if !p.Revoked && maxB > 0 && p.Bottleneck > 0 {
						out[i] += w.Capacity*(p.Bottleneck/p.Bottleneck) - w.Capacity*p.Bottleneck/maxB
					}
				}
				return out
			},
		},
		{
			// Dropped loss penalty: the loss term is silently skipped.
			name: "dropped-loss-term",
			scores: func(w HybridWeights, paths []PathView) []float64 {
				out := referenceScores(w, paths)
				for i, p := range paths {
					if !p.Revoked {
						out[i] += w.Loss * p.Loss
					}
				}
				return out
			},
		},
		{
			// Inverted revocation decay: old revocations penalize more
			// than fresh ones.
			name: "inverted-revocation-decay",
			scores: func(w HybridWeights, paths []PathView) []float64 {
				out := referenceScores(w, paths)
				for i, p := range paths {
					if p.Revoked {
						continue
					}
					out[i] += w.Revocation * revPenalty(p, w)
					if p.RevokedAge >= 0 && w.RevocationWindow > 0 && p.RevokedAge < w.RevocationWindow {
						out[i] -= w.Revocation * (float64(p.RevokedAge) / float64(w.RevocationWindow))
					}
				}
				return out
			},
		},
	}
}

// runHybridChecks runs the full hybrid battery (monotonicity + reference
// differential) against a scorer and reports the first violation.
func runHybridChecks(scorer func([]PathView) []float64, w HybridWeights) error {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 5000; trial++ {
		paths := randomPathSet(rng)
		if err := checkMonotonicity(scorer, w, paths); err != nil {
			return fmt.Errorf("monotonicity (trial %d): %w", trial, err)
		}
		if err := checkAgainstReference(scorer, w, paths); err != nil {
			return fmt.Errorf("reference differential (trial %d): %w", trial, err)
		}
	}
	return nil
}

func TestHybridMutationValidation(t *testing.T) {
	w := DefaultHybridWeights()
	// Sanity: the real scorer survives the full battery.
	if err := runHybridChecks((&Hybrid{W: DefaultHybridWeights()}).Scores, w); err != nil {
		t.Fatalf("real scorer failed its own battery: %v", err)
	}
	for _, m := range hybridMutants() {
		m := m
		t.Run(m.name, func(t *testing.T) {
			scorer := func(paths []PathView) []float64 { return m.scores(w, paths) }
			if err := runHybridChecks(scorer, w); err == nil {
				t.Fatalf("mutant %q survived the battery — the axiom tests have no teeth", m.name)
			}
		})
	}
}

func TestDisjointMutationValidation(t *testing.T) {
	mutants := []struct {
		name string
		pick func([]PathView) int
	}{
		{
			// Inverted objective: maximizes overlap instead of minimizing.
			name: "maximizes-shared",
			pick: func(paths []PathView) int {
				best := -1
				for i, p := range paths {
					if p.Revoked || p.Busy {
						continue
					}
					if best < 0 || p.Shared > paths[best].Shared {
						best = i
					}
				}
				return best
			},
		},
		{
			// Dropped revocation guard: revoked paths compete.
			name: "no-revoked-guard",
			pick: func(paths []PathView) int {
				best := -1
				for i, p := range paths {
					if p.Busy {
						continue
					}
					if best < 0 || p.Shared < paths[best].Shared {
						best = i
					}
				}
				return best
			},
		},
		{
			// Off-by-one scan: skips the first candidate.
			name: "skips-first-path",
			pick: func(paths []PathView) int {
				best := -1
				for i := 1; i < len(paths); i++ {
					p := paths[i]
					if p.Revoked || p.Busy {
						continue
					}
					if best < 0 || p.Shared < paths[best].Shared {
						best = i
					}
				}
				return best
			},
		},
	}
	check := func(pick func([]PathView) int) error {
		rng := rand.New(rand.NewSource(11))
		for trial := 0; trial < 5000; trial++ {
			paths := randomPathSet(rng)
			if err := checkDisjointAxiom(pick, paths); err != nil {
				return err
			}
			got := pick(paths)
			if got >= 0 && (paths[got].Revoked || paths[got].Busy) {
				return fmt.Errorf("picked non-idle path %d", got)
			}
		}
		return nil
	}
	if err := check(func(paths []PathView) int { return (&DisjointMax{}).Pick(paths) }); err != nil {
		t.Fatalf("real policy failed its own battery: %v", err)
	}
	for _, m := range mutants {
		m := m
		t.Run(m.name, func(t *testing.T) {
			if err := check(m.pick); err == nil {
				t.Fatalf("mutant %q survived the battery — the axiom tests have no teeth", m.name)
			}
		})
	}
}

// Scores returns every path's score under the policy's weights, in path
// order (revoked paths score 0 and are never picked): the axiom checks'
// view of what Pick maximizes.
func (h *Hybrid) Scores(paths []PathView) []float64 {
	w := h.weights()
	n := hybridNormalize(paths)
	out := make([]float64, len(paths))
	for i, p := range paths {
		if !p.usable() {
			continue
		}
		out[i] = w.score(p, n)
	}
	return out
}
