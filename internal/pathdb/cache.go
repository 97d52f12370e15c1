package pathdb

import (
	"math/rand"

	"scionmpr/internal/addr"
	"scionmpr/internal/seg"
	"scionmpr/internal/sim"
)

type cacheKey struct {
	typ SegType
	dst addr.IA
}

type cacheEntry struct {
	segs    []*seg.PCB
	expires sim.Time
}

// Cache is a TTL cache for lookup replies. Caching makes down- and
// core-segment lookups cheap in practice because SCION paths live for
// hours and destination popularity is Zipf distributed (paper §4.1).
type Cache struct {
	ttl     sim.Time
	entries map[cacheKey]cacheEntry
	// Hits and Misses are cumulative statistics.
	Hits, Misses uint64
}

// NewCache creates a cache; ttl <= 0 disables caching.
func NewCache(ttl sim.Time) *Cache {
	return &Cache{ttl: ttl, entries: map[cacheKey]cacheEntry{}}
}

// Get returns a cached reply if fresh.
func (c *Cache) Get(now sim.Time, k cacheKey) ([]*seg.PCB, bool) {
	if c.ttl <= 0 {
		c.Misses++
		return nil, false
	}
	e, ok := c.entries[k]
	if !ok || now >= e.expires {
		delete(c.entries, k)
		c.Misses++
		return nil, false
	}
	c.Hits++
	return e.segs, true
}

// Put stores a reply.
func (c *Cache) Put(now sim.Time, k cacheKey, segs []*seg.PCB) {
	if c.ttl <= 0 {
		return
	}
	c.entries[k] = cacheEntry{segs: segs, expires: now + c.ttl}
}

// Flush empties the cache (after revocations).
func (c *Cache) Flush() { c.entries = map[cacheKey]cacheEntry{} }

// ZipfRanks draws indices in [0, n) with Zipf-distributed popularity —
// rank 0 is the most popular. It backs both the lookup-cache workload here
// and the traffic engine's destination-popularity model: Internet traffic
// destinations are Zipf distributed (paper §4.1, citing prefix top lists).
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

// ZipfWorkload draws destination ASes with Zipf-distributed popularity,
// modelling the Internet traffic destination skew that makes path-server
// caching effective (paper §4.1, citing prefix top lists).
type ZipfWorkload struct {
	dsts  []addr.IA
	ranks *ZipfRanks
}

// NewZipfWorkload builds a workload over dsts with Zipf exponent s > 1
// and deterministic seed.
func NewZipfWorkload(dsts []addr.IA, s float64, seed int64) *ZipfWorkload {
	return &ZipfWorkload{dsts: dsts, ranks: NewZipfRanks(len(dsts), s, seed)}
}

// Next returns the next destination.
func (w *ZipfWorkload) Next() addr.IA {
	if len(w.dsts) == 0 {
		return addr.IA{}
	}
	return w.dsts[w.ranks.Next()]
}
