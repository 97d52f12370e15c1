// Package bgpsec derives BGPsec control-plane overhead from a BGP
// simulation, following the paper's §5.2 methodology: BGPsec update
// messages are sized per RFC 8205 (a Secure_Path segment and a signature
// per AS hop), prefixes cannot be aggregated (every prefix travels in its
// own signed update), overhead is multiplied by each origin's prefix
// count, extrapolated to the full Internet topology, and scaled to a
// month assuming the daily re-beaconing cadence of RFC 8374.
package bgpsec

import (
	"scionmpr/internal/addr"
	"scionmpr/internal/bgp"
)

// Sizing constants per RFC 8205 with ECDSA P-384 (the paper's signature
// choice for both SCION and BGPsec).
const (
	// SecurePathSegmentLen: pCount (1) + flags (1) + AS number (4).
	SecurePathSegmentLen = 6
	// SignatureSegmentLen: SKI (20) + sig length (2) + ECDSA-P384
	// signature (96, fixed-width r||s).
	SignatureSegmentLen = 20 + 2 + 96
	// fixedLen: BGP header (19), withdrawn+attr length fields (4),
	// ORIGIN (4), NEXT_HOP (7), MP_REACH overhead (9), NLRI (5),
	// Secure_Path and Signature_Block headers (2 + 3).
	fixedLen = 19 + 4 + 4 + 7 + 9 + 5 + 2 + 3
)

// Accounting scales a BGP convergence simulation into monthly BGPsec
// bytes per monitor.
type Accounting struct {
	// Prefixes is the per-origin prefix count.
	Prefixes map[addr.IA]int
	// ChurnPerMonth is the table propagation cadence (30 = daily,
	// RFC 8374).
	ChurnPerMonth float64
	// Extrapolation multiplies totals to cover origins outside the
	// simulated topology (the paper extends the 12k-AS geo topology to
	// the full AS-rel topology by attributing out-of-topology prefixes
	// to their lowest-tier in-topology provider with a path stretched by
	// the hop difference; the aggregate effect is a multiplicative
	// factor >= 1).
	Extrapolation float64
}

// DefaultAccounting uses the given prefix counts and daily churn.
func DefaultAccounting(prefixes map[addr.IA]int) Accounting {
	return Accounting{Prefixes: prefixes, ChurnPerMonth: 30, Extrapolation: 1}
}

func (a Accounting) prefixCount(origin addr.IA) float64 {
	if a.Prefixes == nil {
		return 1
	}
	if n, ok := a.Prefixes[origin]; ok && n > 0 {
		return float64(n)
	}
	return 1
}

// MonthlyBytes estimates the monthly BGPsec bytes received by a speaker:
// every received announcement event is replayed once per prefix of its
// origin in a full, unaggregatable signed update.
func (a Accounting) MonthlyBytes(sp *bgp.Speaker) float64 {
	churn := a.ChurnPerMonth
	if churn <= 0 {
		churn = 30
	}
	extra := a.Extrapolation
	if extra < 1 {
		extra = 1
	}
	total := 0.0
	for origin, st := range sp.Received {
		if st.Announcements == 0 {
			continue
		}
		avgLen := float64(st.PathLenSum) / float64(st.Announcements)
		perPrefix := float64(fixedLen) + avgLen*float64(SecurePathSegmentLen+SignatureSegmentLen)
		total += float64(st.Announcements) * perPrefix * a.prefixCount(origin)
	}
	return total * churn * extra
}
