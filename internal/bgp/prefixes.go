package bgp

import (
	"scionmpr/internal/addr"
	"scionmpr/internal/topology"
)

// SyntheticPrefixCounts assigns per-AS announced-prefix counts following
// the skew observed in RouteViews: large transit providers originate
// thousands of prefixes, stubs a handful. The count grows with the
// customer cone (the paper obtains real counts from RouteViews; this is
// the synthetic stand-in on generated topologies).
func SyntheticPrefixCounts(topo *topology.Graph) map[addr.IA]int {
	out := make(map[addr.IA]int, topo.NumASes())
	for _, ia := range topo.IAs() {
		cone := topo.CustomerCone(ia)
		deg := topo.AS(ia).Degree()
		n := 1 + cone/4 + deg/8
		if n > 5000 {
			n = 5000
		}
		out[ia] = n
	}
	return out
}

// CalibratePrefixCounts rescales per-AS prefix counts so their mean hits
// targetMean while preserving the relative skew, with a floor of one
// prefix per AS. The 2020 Internet carried roughly 66 announced prefixes
// per AS on average (~900k prefixes over ~13.5k transit+origin ASes in
// the RouteViews tables the paper measures against); scaled-down
// topologies must keep that density or BGP's table — Figure 5's
// denominator — shrinks quadratically with topology size.
func CalibratePrefixCounts(counts map[addr.IA]int, targetMean float64) map[addr.IA]int {
	if len(counts) == 0 || targetMean <= 0 {
		return counts
	}
	sum := 0.0
	for _, n := range counts {
		sum += float64(n)
	}
	mean := sum / float64(len(counts))
	if mean <= 0 {
		return counts
	}
	factor := targetMean / mean
	out := make(map[addr.IA]int, len(counts))
	for ia, n := range counts {
		v := int(float64(n)*factor + 0.5)
		if v < 1 {
			v = 1
		}
		out[ia] = v
	}
	return out
}

// RealInternetMeanPrefixes is the calibration target for
// CalibratePrefixCounts (see its doc comment).
const RealInternetMeanPrefixes = 66.0

// MonthlyAccounting converts one convergence simulation into estimated
// monthly control-plane bytes at a monitor, following the paper's §5.2
// methodology: per-origin update events are scaled by the origin's prefix
// count (aggregated for BGP, per-prefix for BGPsec) and multiplied by the
// number of table propagations per month (the paper assumes daily
// re-beaconing for BGPsec per RFC 8374; we apply the same cadence to the
// BGP substitute since no RouteViews ground truth is available offline).
type MonthlyAccounting struct {
	// Prefixes is the per-origin prefix count (nil: 1 per origin).
	Prefixes map[addr.IA]int
	// ChurnPerMonth is the number of convergence-equivalent update waves
	// per month (default 30 = daily).
	ChurnPerMonth float64
	// MaxAggregation bounds how many same-origin prefixes share one
	// UPDATE message's path attributes. Unbounded aggregation would let
	// BGP amortize its header over hundreds of prefixes, which real
	// tables do not exhibit — RouteViews updates carry a handful of NLRI
	// on average. Default 4.
	MaxAggregation int
}

func (a MonthlyAccounting) prefixCount(origin addr.IA) int {
	if a.Prefixes == nil {
		return 1
	}
	if n, ok := a.Prefixes[origin]; ok && n > 0 {
		return n
	}
	return 1
}

func (a MonthlyAccounting) churn() float64 {
	if a.ChurnPerMonth <= 0 {
		return 30
	}
	return a.ChurnPerMonth
}

// BGPMonthlyBytes estimates the monthly BGP bytes received by the given
// speaker. Prefixes of the same origin share path attributes and
// aggregate into common updates (RFC 4271): one event costs the header
// and attributes once plus 5 bytes NLRI per prefix.
func (a MonthlyAccounting) BGPMonthlyBytes(sp *Speaker) float64 {
	agg := float64(a.MaxAggregation)
	if agg <= 0 {
		agg = 4
	}
	total := 0.0
	for origin, st := range sp.Received {
		if st.Announcements == 0 && st.Withdrawals == 0 {
			continue
		}
		p := float64(a.prefixCount(origin))
		updates := p / agg
		if updates < 1 {
			updates = 1
		}
		if st.Announcements > 0 {
			avgLen := float64(st.PathLenSum) / float64(st.Announcements)
			perEvent := updates*(float64(19+2+2)+16+4*avgLen) + 5*p
			total += float64(st.Announcements) * perEvent
		}
		total += float64(st.Withdrawals) * (updates*float64(19+2+2) + 5*p)
	}
	return total * a.churn()
}
