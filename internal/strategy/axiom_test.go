package strategy

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// randomPathSet draws a candidate set with adversarial variety: busy and
// revoked paths mixed in, and ties.
func randomPathSet(rng *rand.Rand) []PathView {
	n := 1 + rng.Intn(8)
	paths := make([]PathView, n)
	for i := range paths {
		paths[i] = PathView{
			Hops:       1 + rng.Intn(8),
			Delay:      time.Duration(1+rng.Intn(50)) * time.Millisecond,
			Bottleneck: 1e6 + rng.Float64()*1e9,
			Busy:       rng.Float64() < 0.3,
			Revoked:    rng.Float64() < 0.2,
		}
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
	for _, name := range policyNames {
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
