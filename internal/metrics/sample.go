package metrics

import (
	"math/rand"
	"time"
)

// ZipfRanks draws indices in [0, n) with Zipf-distributed popularity —
// rank 0 is the most popular. It backs the traffic generator's pair
// popularity, the path-server client workloads and Table 1's lookup
// workload: Internet traffic destinations are Zipf distributed (paper
// §4.1, citing prefix top lists).
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

// ThinkTimes samples endpoint think times — the closed-loop pause between
// a client receiving a reply and issuing its next request — as an
// exponential distribution with the given mean, floored at min so no
// endpoint busy-loops. The same stylized model as traffic's Poisson flow
// arrivals, reused by the pathsrv client population.
type ThinkTimes struct {
	rng  *rand.Rand
	mean float64
	min  float64
}

// NewThinkTimes builds a deterministic think-time sampler. A mean <= 0
// defaults to one second; min is clamped into [0, mean].
func NewThinkTimes(mean, min time.Duration, seed int64) *ThinkTimes {
	m := float64(mean)
	if m <= 0 {
		m = float64(time.Second)
	}
	lo := float64(min)
	if lo < 0 {
		lo = 0
	}
	if lo > m {
		lo = m
	}
	return &ThinkTimes{rng: rand.New(rand.NewSource(seed)), mean: m, min: lo}
}

// Next returns the next think time.
func (t *ThinkTimes) Next() time.Duration {
	d := t.rng.ExpFloat64() * t.mean
	if d < t.min {
		d = t.min
	}
	return time.Duration(d)
}
