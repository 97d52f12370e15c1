package dataplane

import (
	"time"

	"scionmpr/internal/sim"
	"scionmpr/internal/topology"
)

// SourceMemory is what one AS knows of failed links from the SCMP
// revocations that arrived at it — the end-host daemon's view, read by
// every sender in the AS (scion.Host, traffic.Engine). The fabric records
// each SCMPRevokedLink before the AS's SCMP listeners run (Fabric.Source).
//
// Keys are link ids, so a revocation covers both directions. It lapses
// one TTL after the link's latest SCMP (paper §4.1: soft state), checked
// when read. Only while the AS has an OnLapse listener is a lapse event
// scheduled per SCMP, and until it runs the revocation holds, whatever
// else runs at that instant.
type SourceMemory struct {
	clock *sim.Simulator
	links map[topology.LinkID]revocation
	// learned counts the SCMPs recorded so far.
	learned uint64
	onLapse []func(topology.LinkID)
}

// revocation is one link's latest SCMP: its number, when it lapses and
// whether its lapse event is pending.
type revocation struct {
	until   sim.Time
	seq     uint64
	pending bool
}

// record learns one SCMP revocation of link id, refreshing an earlier
// one: it lapses ttl from now.
func (m *SourceMemory) record(id topology.LinkID, ttl time.Duration) {
	m.learned++
	r := revocation{until: m.clock.Now() + sim.Time(ttl), seq: m.learned, pending: len(m.onLapse) > 0}
	m.links[id] = r
	if r.pending {
		m.clock.At(r.until, func() { m.lapse(id, r.until) })
	}
}

// lapse runs the listeners when the revocation of id lapses at until,
// unless a fresher SCMP refreshed it meanwhile. Of two SCMPs in one
// instant, the first lapse event does the work.
func (m *SourceMemory) lapse(id topology.LinkID, until sim.Time) {
	r := m.links[id]
	if r.until != until || !r.pending {
		return
	}
	r.pending = false
	m.links[id] = r
	for _, fn := range m.onLapse {
		fn(id)
	}
}

// OnLapse registers a listener for the revocations that lapse from now
// on. Revocations learned while the AS had no listener lapse silently.
func (m *SourceMemory) OnLapse(fn func(topology.LinkID)) { m.onLapse = append(m.onLapse, fn) }

// Learned returns how many SCMP revocations the memory has recorded; a
// reader passes it to Crosses later to ignore what was known before.
func (m *SourceMemory) Learned() uint64 { return m.learned }

// Crosses reports whether any of links is revoked now by an SCMP
// recorded after the first since ones (0 counts every SCMP).
func (m *SourceMemory) Crosses(links []LinkRef, since uint64) bool {
	now := m.clock.Now()
	for _, ref := range links {
		if r, ok := m.links[ref.Link.ID]; ok && r.seq > since && (r.pending || now < r.until) {
			return true
		}
	}
	return false
}
