package traffic

import (
	"math"
	"sort"
	"time"

	"scionmpr/internal/dataplane"
	"scionmpr/internal/sim"
	"scionmpr/internal/topology"
)

// CapacityProfile derives the capacity of one inter-domain link from its
// topology attributes, returning the sustained rate in bytes of virtual
// time per second. Profiles must be pure functions of the link so capacity
// assignment stays deterministic.
type CapacityProfile func(l *topology.Link) float64

// UniformCapacity assigns every link the same rate — the paper's Figure 6b
// capacity model, where aggregate capacity is counted in multiples of a
// single inter-AS link.
func UniformCapacity(bytesPerSec float64) CapacityProfile {
	return func(*topology.Link) float64 { return bytesPerSec }
}

// RelCapacity assigns rates by business relationship — core links are
// provisioned like tier-1 interconnects, provider links like transit
// ports, peer links like settlement-free public peering — with a
// deterministic ±25 % per-link jitter derived from the link ID, standing
// in for heterogeneous port speeds.
func RelCapacity(coreBps, providerBps, peerBps float64) CapacityProfile {
	return func(l *topology.Link) float64 {
		base := peerBps
		switch l.Rel {
		case topology.Core:
			base = coreBps
		case topology.ProviderOf:
			base = providerBps
		}
		// splitmix-style hash of the link ID to a factor in [0.75, 1.25).
		x := uint64(l.ID) * 0x9e3779b97f4a7c15
		x ^= x >> 31
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		return base * (0.75 + 0.5*float64(x>>11)/float64(1<<53))
	}
}

// DefaultCapacity is the relationship-based profile with 10 Gbps core,
// 2.5 Gbps provider and 1 Gbps peer links.
func DefaultCapacity() CapacityProfile {
	return RelCapacity(1.25e9, 3.125e8, 1.25e8)
}

// bucket is one token bucket: a direction of one inter-domain link.
type bucket struct {
	rate  float64 // bytes per second
	burst float64 // bucket depth in bytes
	// tokens is the currently available credit; last is the virtual time
	// of the most recent refill.
	tokens float64
	last   sim.Time
	// admitted accumulates all granted bytes, the utilization observable.
	admitted float64
}

// refill lazily adds rate*dt tokens up to the burst depth.
func (b *bucket) refill(now sim.Time) {
	if now > b.last {
		b.tokens = math.Min(b.burst, b.tokens+b.rate*time.Duration(now-b.last).Seconds())
		b.last = now
	}
}

// eta returns the time until want tokens (clamped to the burst depth)
// will be available, assuming no competing consumers.
func (b *bucket) eta(want float64) time.Duration {
	want = math.Min(want, b.burst)
	if b.tokens >= want {
		return time.Microsecond
	}
	d := time.Duration((want - b.tokens) / b.rate * float64(time.Second))
	if d < time.Microsecond {
		d = time.Microsecond
	}
	return d
}

type bucketKey struct {
	id  topology.LinkID
	fwd bool
}

// LinkModel holds the per-link-direction token buckets that arbitrate
// capacity among concurrent flows. Buckets are created lazily from the
// capacity profile; all state is keyed by link ID and direction, so the
// model is independent of which paths traverse a link.
type LinkModel struct {
	// Profile assigns link rates (DefaultCapacity if nil).
	Profile CapacityProfile
	// BurstWindow sizes each bucket's depth as rate * BurstWindow
	// (default 50 ms).
	BurstWindow time.Duration

	buckets map[bucketKey]*bucket
	// epoch is the earliest virtual time any bucket was touched, the
	// utilization denominator's start.
	epoch    sim.Time
	hasEpoch bool
}

// NewLinkModel builds a link model with the given profile (nil for
// DefaultCapacity).
func NewLinkModel(p CapacityProfile) *LinkModel {
	if p == nil {
		p = DefaultCapacity()
	}
	return &LinkModel{Profile: p, BurstWindow: 50 * time.Millisecond, buckets: map[bucketKey]*bucket{}}
}

func (m *LinkModel) bucket(ref dataplane.LinkRef, now sim.Time) *bucket {
	k := bucketKey{id: ref.Link.ID, fwd: ref.Forward()}
	b := m.buckets[k]
	if b == nil {
		rate := m.Profile(ref.Link)
		if rate < 1 {
			rate = 1
		}
		w := m.BurstWindow
		if w <= 0 {
			w = 50 * time.Millisecond
		}
		b = &bucket{rate: rate, burst: rate * w.Seconds(), last: now}
		b.tokens = b.burst // start full
		m.buckets[k] = b
		if !m.hasEpoch || now < m.epoch {
			m.epoch, m.hasEpoch = now, true
		}
	}
	return b
}

// Rate returns the configured rate of one link direction.
func (m *LinkModel) Rate(ref dataplane.LinkRef) float64 {
	rate := m.Profile(ref.Link)
	if rate < 1 {
		rate = 1
	}
	return rate
}

// Bottleneck returns the smallest link rate along a path, the capacity a
// single flow can at most achieve on it.
func (m *LinkModel) Bottleneck(path []dataplane.LinkRef) float64 {
	min := math.Inf(1)
	for _, ref := range path {
		if r := m.Rate(ref); r < min {
			min = r
		}
	}
	if math.IsInf(min, 1) {
		return 0
	}
	return min
}

// AdmitAtLeast charges up to want bytes against every bucket along the
// path, granting the minimum the buckets allow (the bottleneck share).
// When nothing can be granted it returns the time to wait before
// retrying.
//
// The grant floor keeps it from trickling out whatever credit remains —
// which under contention degrades into a storm of fragment-sized grants,
// each carrying a MAC-verified head packet: it grants nothing until at
// least floor bytes are available on every bucket, and advertises the
// wait until they will be. The floor is clamped to the path's shallowest
// bucket so it can always be met. A floor of zero or one grants whatever
// credit remains.
func (m *LinkModel) AdmitAtLeast(now sim.Time, path []dataplane.LinkRef, want, floor int64) (granted int64, wait time.Duration) {
	if want <= 0 || len(path) == 0 {
		return 0, 0
	}
	g := float64(want)
	// need is the smallest acceptable grant: the floor, clamped so the
	// shallowest bucket on the path can still satisfy it.
	need := math.Min(float64(floor), float64(want))
	var bottleneck *bucket
	for _, ref := range path {
		b := m.bucket(ref, now)
		b.refill(now)
		if b.tokens < g {
			g = b.tokens
			bottleneck = b
		}
		if b.burst < need {
			need = b.burst
		}
	}
	g = math.Floor(g)
	if g < 1 || g < math.Floor(need) {
		// Wait until the floor (or, without one, the full want) fits.
		if need > 1 {
			return 0, bottleneck.eta(need)
		}
		return 0, bottleneck.eta(float64(want))
	}
	for _, ref := range path {
		b := m.bucket(ref, now)
		b.tokens -= g
		b.admitted += g
	}
	return int64(g), 0
}

// LinkUtil is the per-link-direction utilization observable.
type LinkUtil struct {
	ID      topology.LinkID
	Forward bool
	Rate    float64 // bytes/s
	Bytes   float64 // admitted bytes
	Util    float64 // admitted / (rate * elapsed)
}

// Utilizations reports every traffic-bearing link direction in
// deterministic (link ID, direction) order. elapsed is the observation
// window the utilization is normalized over.
func (m *LinkModel) Utilizations(elapsed time.Duration) []LinkUtil {
	keys := make([]bucketKey, 0, len(m.buckets))
	for k := range m.buckets {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].id != keys[j].id {
			return keys[i].id < keys[j].id
		}
		return keys[i].fwd && !keys[j].fwd
	})
	secs := elapsed.Seconds()
	out := make([]LinkUtil, 0, len(keys))
	for _, k := range keys {
		b := m.buckets[k]
		u := LinkUtil{ID: k.id, Forward: k.fwd, Rate: b.rate, Bytes: b.admitted}
		if secs > 0 {
			u.Util = b.admitted / (b.rate * secs)
		}
		out = append(out, u)
	}
	return out
}
