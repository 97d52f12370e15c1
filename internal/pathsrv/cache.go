package pathsrv

import (
	"scionmpr/internal/addr"
	"scionmpr/internal/seg"
	"scionmpr/internal/sim"
)

// centry is one cached reply.
type centry struct {
	segs []*seg.PCB
	// minExpiry is the earliest segment expiry: past it the reply may
	// contain dead paths regardless of the cache TTL.
	minExpiry sim.Time
	// maxExpiry is the latest segment expiry: past it every cached path
	// is dead and a sweep may reclaim the entry.
	maxExpiry sim.Time
	// expires is the TTL deadline of the cache entry itself.
	expires sim.Time
}

// Cache memoizes (src, dst) lookup replies for one client actor or
// reader goroutine. It is strictly single-owner: the owner does all
// reads and fills, and — for caches created with Service.NewCache —
// the service writer evicts changed pairs during publication, which in
// simulation is mutually excluded from the owner by the serial/parallel
// event schedule. Goroutine-concurrent readers must use NewLocalCache
// and rely on TTL freshness alone.
type Cache struct {
	entries map[pairKey]centry
	ttl     sim.Time
	cap     int
	// nextDead is the earliest maxExpiry among cached entries (0 when
	// none): the first instant a sweep could reclaim anything. Misses
	// past it trigger a sweep, so a long-idle cache does not pin dead
	// []*seg.PCB slices indefinitely.
	nextDead sim.Time

	Hits, Misses, Evictions, Invalidations uint64
	// Sweeps counts dead-entry sweep passes.
	Sweeps uint64
}

// NewCache creates a cache registered with the service for precise
// invalidation: publications evict exactly the pairs whose reply
// changed. ttl <= 0 means entries never expire by age (invalidation
// and segment expiry still apply); cap <= 0 means unbounded.
func (s *Service) NewCache(ttl sim.Time, cap int) *Cache {
	c := NewLocalCache(ttl, cap)
	s.caches = append(s.caches, c)
	return c
}

// NewLocalCache creates an unregistered cache: freshness comes only
// from the TTL and per-reply minExpiry, never from service-side
// invalidation. Safe for readers concurrent with the writer.
func NewLocalCache(ttl sim.Time, cap int) *Cache {
	return &Cache{entries: map[pairKey]centry{}, ttl: ttl, cap: cap}
}

// Lookup answers from the cache when fresh, otherwise queries the
// service and caches a non-empty reply. The second result reports a
// cache hit.
func (c *Cache) Lookup(now sim.Time, svc *Service, src, dst addr.IA) ([]*seg.PCB, bool) {
	key := pairKey{src: src, dst: dst}
	if e, ok := c.entries[key]; ok {
		if now < e.expires && now < e.minExpiry {
			c.Hits++
			return e.segs, true
		}
		delete(c.entries, key)
		c.Evictions++
	}
	c.Misses++
	c.maybeSweep(now)
	segs, minExpiry := svc.Lookup(now, src, dst)
	if len(segs) == 0 {
		// Negative replies are not cached: the pair may be populated by
		// the very next publication and a cached miss would hide it.
		return nil, false
	}
	c.store(now, key, segs, minExpiry)
	return segs, false
}

// store caches a non-empty reply under the freshness deadline
// min(now+ttl, minExpiry).
func (c *Cache) store(now sim.Time, key pairKey, segs []*seg.PCB, minExpiry sim.Time) {
	if len(segs) == 0 {
		return
	}
	exp := minExpiry
	if c.ttl > 0 && now+c.ttl < exp {
		exp = now + c.ttl
	}
	if _, ok := c.entries[key]; !ok && c.cap > 0 && len(c.entries) >= c.cap {
		// Deterministic pressure valve: map iteration order is not
		// reproducible, so shed everything rather than a random victim.
		for k := range c.entries {
			delete(c.entries, k)
		}
		c.Evictions += uint64(c.cap)
		c.nextDead = 0
	}
	maxExpiry := segs[0].Info.Expiry
	for _, p := range segs[1:] {
		if p.Info.Expiry > maxExpiry {
			maxExpiry = p.Info.Expiry
		}
	}
	c.entries[key] = centry{segs: segs, minExpiry: minExpiry, maxExpiry: maxExpiry, expires: exp}
	if c.nextDead == 0 || maxExpiry < c.nextDead {
		c.nextDead = maxExpiry
	}
}

// maybeSweep drops every entry whose last segment has expired, once the
// earliest such deadline passes. Deletion order does not matter (map
// deletes commute and only totals are counted), so the sweep is
// deterministic.
func (c *Cache) maybeSweep(now sim.Time) {
	if c.nextDead == 0 || now < c.nextDead {
		return
	}
	c.Sweeps++
	var next sim.Time
	for k, e := range c.entries {
		if now >= e.maxExpiry {
			delete(c.entries, k)
			c.Evictions++
			continue
		}
		if next == 0 || e.maxExpiry < next {
			next = e.maxExpiry
		}
	}
	c.nextDead = next
}
