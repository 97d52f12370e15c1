package metrics

import "math/rand"

// ZipfRanks draws indices in [0, n) with Zipf-distributed popularity —
// rank 0 is the most popular. It backs the traffic generator's pair
// popularity and Table 1's lookup workload: Internet traffic destinations
// are Zipf distributed (paper §4.1, citing prefix top lists).
type ZipfRanks struct {
	n    int
	zipf *rand.Zipf
}

// NewZipfRanks builds a deterministic Zipf(s) rank sampler over n ranks;
// exponents <= 1 are clamped to the smallest valid value.
func NewZipfRanks(n int, s float64, seed int64) *ZipfRanks {
	if s <= 1 {
		s = 1.0001
	}
	if n < 1 {
		n = 1
	}
	rng := rand.New(rand.NewSource(seed))
	return &ZipfRanks{n: n, zipf: rand.NewZipf(rng, s, 1, uint64(n-1))}
}

// Next returns the next rank.
func (z *ZipfRanks) Next() int { return int(z.zipf.Uint64()) % z.n }
