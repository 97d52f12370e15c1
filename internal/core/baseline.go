package core

import (
	"sort"

	"scionmpr/internal/addr"
	"scionmpr/internal/seg"
	"scionmpr/internal/sim"
)

// Baseline is the path construction algorithm of the current SCION
// production network and SCIONLab (paper §4.2): it optimizes for the same
// metric as BGP — AS-path length — by propagating the Limit shortest
// stored PCBs per origin AS on each egress interface, every beaconing
// interval, irrespective of what was sent before. Its two shortcomings
// motivate the diversity algorithm: no optimality criterion other than
// path length, and redundant retransmissions wasting bandwidth.
type Baseline struct {
	// Limit is the PCB dissemination limit applied per [origin,
	// interface] pair (paper §5.1: "for the baseline path construction
	// algorithm, the limit is applied to each interface").
	Limit int
}

// NewBaseline returns a baseline selector factory with the given
// per-interface dissemination limit.
func NewBaseline(limit int) Factory {
	return func(addr.IA) Selector { return &Baseline{Limit: limit} }
}

// Name implements Selector.
func (b *Baseline) Name() string { return "baseline" }

// Select implements Selector: the Limit shortest valid PCBs (ties broken
// by the canonical hop key for determinism) on every interface toward the
// neighbor.
func (b *Baseline) Select(now sim.Time, origin, neighbor addr.IA, ifaces []addr.IfID, stored []*seg.PCB) []Selection {
	if b.Limit <= 0 || len(ifaces) == 0 {
		return nil
	}
	valid := make([]*seg.PCB, 0, len(stored))
	for _, p := range stored {
		if !p.Expired(now) {
			valid = append(valid, p)
		}
	}
	sort.Slice(valid, func(i, j int) bool {
		if valid[i].Len() != valid[j].Len() {
			return valid[i].Len() < valid[j].Len()
		}
		return valid[i].HopsKey() < valid[j].HopsKey()
	})
	if len(valid) > b.Limit {
		valid = valid[:b.Limit]
	}
	out := make([]Selection, 0, len(valid)*len(ifaces))
	for _, ifID := range ifaces {
		for _, p := range valid {
			out = append(out, Selection{PCB: p, Egress: ifID})
		}
	}
	return out
}
