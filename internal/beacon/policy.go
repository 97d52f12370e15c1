package beacon

import (
	"scionmpr/internal/addr"
	"scionmpr/internal/seg"
)

// Policy captures an AS's local beaconing policy (paper §2.2: "the beacon
// server decides which PCBs to propagate on which interfaces based on
// AS-local policies"). The zero value allows everything.
type Policy struct {
	// MaxHops drops received beacons longer than this many AS entries
	// (0 = unlimited). Long paths are rarely useful and bloat stores.
	MaxHops int
	// DenyOriginISDs rejects beacons originated in the listed ISDs —
	// the geofencing building block that made SCION attractive as a
	// leased-line replacement (§3.1).
	DenyOriginISDs []addr.ISD
	// DenyOriginASes rejects beacons originated by specific ASes.
	DenyOriginASes []addr.IA
	// DenyEgress excludes local interfaces from propagation (e.g. a
	// paid transit link reserved for data traffic).
	DenyEgress []addr.IfID
	// AcceptFilter, if set, is a custom receive-side predicate applied
	// after the built-in checks.
	AcceptFilter func(*seg.PCB) bool
}

// AcceptsReceive reports whether a received beacon passes the policy.
func (p *Policy) AcceptsReceive(pcb *seg.PCB) bool {
	if p == nil {
		return true
	}
	if p.MaxHops > 0 && pcb.Len() > p.MaxHops {
		return false
	}
	origin := pcb.Origin()
	for _, isd := range p.DenyOriginISDs {
		if origin.ISD == isd {
			return false
		}
	}
	for _, ia := range p.DenyOriginASes {
		if origin == ia {
			return false
		}
	}
	if p.AcceptFilter != nil && !p.AcceptFilter(pcb) {
		return false
	}
	return true
}

// AllowsEgress reports whether propagation may use the interface.
func (p *Policy) AllowsEgress(ifID addr.IfID) bool {
	if p == nil {
		return true
	}
	for _, deny := range p.DenyEgress {
		if deny == ifID {
			return false
		}
	}
	return true
}
