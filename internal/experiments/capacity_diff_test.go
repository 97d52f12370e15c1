package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"scionmpr/internal/addr"
	"scionmpr/internal/strategy"
	"scionmpr/scion"
)

// capacityGoldens are the pre-refactor digests of the PR-1 capacity
// experiment (SmokeScale, Diversity beaconing, one scheduler per run),
// captured at the commit immediately before the schedulers moved behind
// the strategy.Policy interface. The refactor must be behavior-
// preserving: replaying the same runs through the new interface must
// reproduce these digests byte for byte.
var capacityGoldens = map[string]string{
	"single-best": "df3f35f6cfca0eecc013d53587dca6f886f82f5c9bac023920737c091e79f2ab",
	"weighted":    "18ece1a6ae01f39281e504b50bfb3fec868c2ff611ede46ff36059ccf11989db",
}

// capacityDigest hashes one scheduler's capacity run: the scheduler name,
// the sampled pairs, and the exact per-pair goodput multiples.
func capacityDigest(name string, pairs [][2]addr.IA, mults []float64) string {
	h := sha256.New()
	h.Write([]byte(name))
	var b [8]byte
	for _, pr := range pairs {
		binary.BigEndian.PutUint64(b[:], pr[0].Uint64())
		h.Write(b[:])
		binary.BigEndian.PutUint64(b[:], pr[1].Uint64())
		h.Write(b[:])
	}
	for _, m := range mults {
		binary.BigEndian.PutUint64(b[:], math.Float64bits(m))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestCapacityDifferentialGolden replays the PR-1 capacity experiment
// through the strategy interface for each scheduler and asserts the
// per-pair goodput digests are byte-identical to the pre-refactor goldens.
func TestCapacityDifferentialGolden(t *testing.T) {
	e, err := newEnv(SmokeScale())
	if err != nil {
		t.Fatal(err)
	}
	pairs := e.samplePairs()
	if len(pairs) == 0 {
		t.Fatal("no pairs sampled")
	}
	for _, name := range []string{"single-best", "weighted"} {
		factory, err := strategy.New(name)
		if err != nil {
			t.Fatalf("strategy.New(%q): %v", name, err)
		}
		mults, err := scionCapacityWith(e.core, scion.Diversity, factory, pairs)
		if err != nil {
			t.Fatalf("%s: capacity run: %v", name, err)
		}
		got := capacityDigest(name, pairs, mults)
		if want := capacityGoldens[name]; got != want {
			t.Errorf("%s: capacity digest changed after refactor:\n got  %s\n want %s",
				name, got, want)
		}
	}
}
