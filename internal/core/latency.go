package core

import (
	"maps"
	"sort"
	"time"

	"scionmpr/internal/addr"
	"scionmpr/internal/seg"
	"scionmpr/internal/sim"
)

// LatencyFunc reports the propagation latency of an inter-domain link.
// Unknown links should return a conservative default.
type LatencyFunc func(seg.LinkKey) time.Duration

// LatencyAware is the paper's "Optimizing for other Criteria" extension
// sketch (§4.2): with additional per-link information disseminated
// through PCBs or side channels — here, link latencies — the path
// construction can optimize for low-latency paths instead of (or in
// addition to) path length and disjointness.
//
// The selector keeps the diversity algorithm's retransmission
// suppression (a Sent-PCB list per egress interface with near-expiry
// refresh) but ranks candidates by total path latency, lowest first.
// The paper leaves the dissemination and verification of such metrics to
// future work; this implementation models the metric as locally
// available ground truth, which preserves the control-plane behaviour
// under study (what gets selected and how often it is re-sent).
type LatencyAware struct {
	Limit   int
	Latency LatencyFunc
	// RefreshFraction of remaining lifetime below which a previously
	// sent path is re-sent to preserve connectivity.
	RefreshFraction float64

	local addr.IA
	sent  map[sentName]sentRecord // keyed by HopsKeyVia and egress
}

// NewLatencyAware builds a latency-optimizing selector factory.
func NewLatencyAware(limit int, latency LatencyFunc) Factory {
	return func(local addr.IA) Selector {
		return &LatencyAware{
			Limit:           limit,
			Latency:         latency,
			RefreshFraction: 0.15,
			local:           local,
			sent:            map[sentName]sentRecord{},
		}
	}
}

// Name implements Selector.
func (l *LatencyAware) Name() string { return "latency" }

// pathLatency sums the link latencies of the beacon extended via egress.
func (l *LatencyAware) pathLatency(p *seg.PCB, egress addr.IfID) time.Duration {
	var total time.Duration
	for _, lk := range p.LinksVia(l.local, egress) {
		total += l.Latency(lk)
	}
	return total
}

// Select implements Selector: the Limit lowest-latency unsent (or
// refresh-due) candidates per [origin, neighbor] pair.
func (l *LatencyAware) Select(now sim.Time, origin, neighbor addr.IA, ifaces []addr.IfID, stored []*seg.PCB) []Selection {
	if l.Limit <= 0 || len(ifaces) == 0 {
		return nil
	}
	type cand struct {
		sel Selection
		lat time.Duration
		key string
	}
	var cands []cand
	for _, p := range stored {
		if p.Expired(now) {
			continue
		}
		for _, ifID := range ifaces {
			key := p.HopsKeyVia(ifID)
			if !l.due(now, ifID, key, p) {
				continue
			}
			cands = append(cands, cand{
				sel: Selection{PCB: p, Egress: ifID},
				lat: l.pathLatency(p, ifID),
				key: key,
			})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].lat != cands[j].lat {
			return cands[i].lat < cands[j].lat
		}
		return cands[i].key < cands[j].key
	})
	if len(cands) > l.Limit {
		cands = cands[:l.Limit]
	}
	out := make([]Selection, 0, len(cands))
	for _, c := range cands {
		out = append(out, c.sel)
		l.sent[sentName{c.key, c.sel.Egress}] = sentRecord{
			timestamp: c.sel.PCB.Info.Timestamp,
			expiry:    c.sel.PCB.Info.Expiry,
			key:       c.key,
			egress:    c.sel.Egress,
		}
	}
	return out
}

// due reports whether a candidate should be (re-)sent: never sent, sent
// instance expired, or the sent instance is within RefreshFraction of
// its lifetime end while a fresher instance is available.
func (l *LatencyAware) due(now sim.Time, egress addr.IfID, key string, p *seg.PCB) bool {
	rec, ok := l.sent[sentName{key, egress}]
	if !ok || now >= rec.expiry {
		delete(l.sent, sentName{key, egress})
		return true
	}
	remaining := float64(rec.expiry - now)
	lifetime := float64(rec.expiry - rec.timestamp)
	if lifetime <= 0 {
		return true
	}
	return remaining/lifetime < l.RefreshFraction && p.Info.Expiry > rec.expiry
}

// Revoke implements Revoker: without per-record link state, conservatively
// clear the Sent-PCB lists of the local egress interface attached to the
// failed link (if any), so replacements flow after a local link failure.
func (l *LatencyAware) Revoke(link seg.LinkKey) {
	if link.IA == l.local {
		maps.DeleteFunc(l.sent, func(k sentName, _ sentRecord) bool { return k.egress == link.If })
	}
}

// UniformLatency returns a LatencyFunc assigning every link the same
// latency (reduces the selector to shortest-path with suppression).
func UniformLatency(d time.Duration) LatencyFunc {
	return func(seg.LinkKey) time.Duration { return d }
}
