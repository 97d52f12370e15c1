package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"scionmpr/internal/addr"
	"scionmpr/internal/bgp"
	"scionmpr/internal/chaos"
	"scionmpr/internal/combinator"
	"scionmpr/internal/core"
	"scionmpr/internal/dataplane"
	"scionmpr/internal/metrics"
	"scionmpr/internal/seg"
	"scionmpr/internal/sim"
	"scionmpr/internal/strategy"
	"scionmpr/internal/topology"
	"scionmpr/internal/traffic"
)

// Churn timeline (compressed virtual time: beaconing every second instead
// of every ten minutes, so recovery dynamics fit in a thirty-second run).
// Phases: beacon bootstrap [0, 3s), warm [3s, 6s), flap churn [6s, 24s),
// recovery [24s, 30s).
const (
	churnBeaconInterval = 1 * time.Second
	churnTrafficStart   = 3 * time.Second
	churnWarmLen        = 3 * time.Second
	churnStormLen       = 18 * time.Second
	churnRecoveryLen    = 6 * time.Second
	// Each flapped link is down churnFlapDown out of every churnFlapPeriod.
	churnFlapDown   = 2 * time.Second
	churnFlapPeriod = 6 * time.Second
	// churnRevTTL bounds how long sources trust SCMP-learned failures;
	// shorter than the flap period so healed links are readopted mid-storm.
	churnRevTTL    = 1500 * time.Millisecond
	churnChunkSize = 256 << 10
	// churnLinkRate trades fidelity for event volume: only goodput
	// ratios matter here, and 100 Mbps links keep the 30-second window
	// (vs the capacity experiment's 2 seconds) to a few hundred chunk
	// admissions per flow-second. Chunk serialization is ~20ms, plenty
	// of resolution against 2-second flaps.
	churnLinkRate = 1.25e7
)

// ChurnSeries is one routing variant's behavior under continuous flap
// churn: disconnection windows, goodput per phase, and control-plane cost.
type ChurnSeries struct {
	Name  string
	Flows int
	// DisconnectedFlows is how many flows saw at least one outage.
	DisconnectedFlows int
	// Outages are all time-to-reconnect samples across flows, including
	// windows still open at the end of the run.
	Outages []time.Duration
	// Goodput aggregated over all pairs per phase (bytes/s).
	WarmGoodput, ChurnGoodput, RecoveryGoodput float64
	// Control-plane bytes on the beaconing network per phase (zero for
	// BGP, whose routes are static at flap timescales — MRAI alone
	// exceeds the flap period, so no reconvergence is modeled).
	WarmCtrlBytes, ChurnCtrlBytes uint64
	// Traffic-engine reaction counters summed over all pairs.
	Revocations, Requeries, Reprobes uint64
	// FlapInjections is how many link-down events the chaos engine fired.
	FlapInjections uint64
}

// ReconnectQuantile returns the q-quantile of the time-to-reconnect
// samples (zero when no flow ever disconnected).
func (s *ChurnSeries) ReconnectQuantile(q float64) time.Duration {
	if len(s.Outages) == 0 {
		return 0
	}
	return time.Duration(metrics.NewCDF(metrics.Floats(s.Outages)).Quantile(q))
}

// MeanReconnect returns the mean time-to-reconnect (zero without outages).
func (s *ChurnSeries) MeanReconnect() time.Duration {
	if len(s.Outages) == 0 {
		return 0
	}
	return time.Duration(metrics.NewCDF(metrics.Floats(s.Outages)).Mean())
}

// GoodputDip is churn-phase goodput relative to the warm phase.
func (s *ChurnSeries) GoodputDip() float64 {
	if s.WarmGoodput <= 0 {
		return 0
	}
	return s.ChurnGoodput / s.WarmGoodput
}

// GoodputRecovery is recovery-phase goodput relative to the warm phase.
func (s *ChurnSeries) GoodputRecovery() float64 {
	if s.WarmGoodput <= 0 {
		return 0
	}
	return s.RecoveryGoodput / s.WarmGoodput
}

// ChurnResult is the continuous-churn resilience comparison: the Figure 6a
// variants (diversity, baseline, BGP best-path) measured end to end while
// links on the evaluated paths flap on a deterministic schedule.
type ChurnResult struct {
	Scale Scale
	// FlappedLinks is how many distinct links the schedule flaps, drawn
	// from the links carrying the sampled pairs' BGP best paths.
	FlappedLinks int
	// CandidateLinks is the size of the pool the flapped links came from.
	CandidateLinks int
	Pairs          [][2]addr.IA
	Series         []ChurnSeries
}

// RunChurn measures recovery under continuous link churn. One live
// co-simulation per variant: beacon servers keep disseminating every
// interval while a chaos engine flaps links on both the control and the
// data plane. Traffic flows look paths up from the beacon stores, fail
// over on SCMP, back off when cut off, and re-probe when revocation state
// expires. The paper's Figure 6a claim — diversity-based dissemination
// keeps pairs connected through failures that disconnect best-path
// routing — is measured here as time-to-reconnect and goodput recovery
// rather than as static max-flow.
func RunChurn(s Scale) (*ChurnResult, error) {
	e, err := newEnv(s)
	if err != nil {
		return nil, err
	}
	pairs := e.samplePairs()
	if len(pairs) == 0 {
		return nil, fmt.Errorf("experiments: no pairs to sample on the core topology")
	}
	// BGP converges once on the core members' original-relationship
	// subgraph; its best paths both serve the BGP series and pick the
	// links worth flapping (failures that provably hit evaluated paths).
	bgpRes, err := bgp.Run(bgp.DefaultConfig(e.coreSub))
	if err != nil {
		return nil, err
	}
	cands := churnFlapCandidates(e, bgpRes, pairs)
	if len(cands) == 0 {
		return nil, fmt.Errorf("experiments: no flap candidate links on the sampled pairs")
	}
	nflap := stormSize(len(cands), 3, 4)
	stormStart := sim.Time(churnTrafficStart + churnWarmLen)
	stormEnd := stormStart + sim.Time(churnStormLen)
	sched := chaos.FlapChurn(s.Seed, cands, nflap, stormStart, stormEnd,
		churnFlapDown, churnFlapPeriod)

	res := &ChurnResult{
		Scale:          s,
		FlappedLinks:   nflap,
		CandidateLinks: len(cands),
		Pairs:          pairs,
	}
	div, err := scionChurn(e, "SCION Diversity",
		core.NewDiversity(core.DefaultParams(s.DissemLimit)), pairs, sched)
	if err != nil {
		return nil, err
	}
	res.Series = append(res.Series, div)
	base, err := scionChurn(e, "SCION Baseline", core.NewBaseline(s.DissemLimit), pairs, sched)
	if err != nil {
		return nil, err
	}
	res.Series = append(res.Series, base)
	best, err := bgpChurn(e, bgpRes, pairs, sched)
	if err != nil {
		return nil, err
	}
	res.Series = append(res.Series, best)
	return res, nil
}

// churnFlapCandidates maps every link on a sampled pair's BGP best path
// into the core topology, deduplicated in deterministic pair order.
func churnFlapCandidates(e *env, res *bgp.Result, pairs [][2]addr.IA) []topology.LinkID {
	seen := map[topology.LinkID]bool{}
	var out []topology.LinkID
	for _, pr := range pairs {
		sp := res.Speakers[pr[0]]
		if sp == nil {
			continue
		}
		rt := sp.Best(pr[1])
		if rt == nil {
			continue
		}
		ases := append([]addr.IA{pr[0]}, rt.Path...)
		for i := 0; i+1 < len(ases); i++ {
			links := e.core.LinksBetween(ases[i], ases[i+1])
			if len(links) == 0 {
				continue
			}
			if id := links[0].ID; !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	return out
}

// churnEnd is the total virtual duration of one churn run.
func churnEnd() sim.Time {
	return sim.Time(churnTrafficStart + churnWarmLen + churnStormLen + churnRecoveryLen)
}

// scionChurn runs one SCION variant live: beacon servers tick on a
// control-plane network while flows forward on a fabric sharing its
// clock and fault table, so each chaos flap hits both. Path lookups read
// the beacon stores at lookup time, so dissemination lag and
// re-propagation over healed links are part of what is measured.
func scionChurn(e *env, name string, factory core.Factory, pairs [][2]addr.IA,
	sched *chaos.Schedule) (ChurnSeries, error) {

	plane, err := e.livePlane(factory, churnBeaconInterval, churnEnd(), nil, nil)
	if err != nil {
		return ChurnSeries{}, err
	}
	fabric := dataplane.NewFabric(plane.Sim, e.core, 5*time.Millisecond, &plane.Net.LinkFaults, plane.Infra.ForwardingKey)
	// Flaps hit the PCB transport (silent drops) and the fabric (SCMP at
	// the upstream router) through the one table; beacon servers revoke
	// affected state the moment a link goes down and re-learn it from
	// neighbors' next ticks after it heals.
	eng := plane.NewChaos()
	if err := eng.Apply(sched); err != nil {
		return ChurnSeries{}, err
	}
	// Live path provider: disseminated segments at the destination,
	// authorized on demand. Authorization is cached per link sequence —
	// hop-field MACs do not depend on lookup time.
	authCache := map[string]*dataplane.FwdPath{}
	provider := func(src, dst addr.IA) ([]*dataplane.FwdPath, error) {
		var out []*dataplane.FwdPath
		for _, links := range plane.Servers[dst].Segments(plane.Sim.Now(), src) {
			key := segCacheKey(links)
			fp := authCache[key]
			if fp == nil {
				path, ok := hopsFromLinks(e.core, links, src, dst)
				if !ok {
					continue
				}
				fp, err = dataplane.Authorize(path, plane.Infra.ForwardingKey)
				if err != nil {
					continue
				}
				authCache[key] = fp
			}
			out = append(out, fp)
		}
		if len(out) == 0 {
			return nil, fmt.Errorf("churn: no disseminated path %s -> %s", src, dst)
		}
		return out, nil
	}
	ser, err := churnMeasure(fabric, plane.Net, provider,
		func() strategy.Policy { return &strategy.WeightedBottleneck{} }, pairs, eng, e.scale.Seed)
	ser.Name = name
	return ser, err
}

// bgpChurn runs the comparison floor: each pair forwards on its converged
// best path, which stays fixed through the churn — BGP cannot reconverge
// within a flap period (MRAI alone is longer), so a downed best path
// means disconnection until the link heals and revocation state lapses.
func bgpChurn(e *env, res *bgp.Result, pairs [][2]addr.IA, coreSched *chaos.Schedule) (ChurnSeries, error) {
	fabric, paths := bgpFloor(res, e.coreSub, pairs)
	eng := chaos.NewEngine(fabric.Clock(), fabric)
	if err := eng.Apply(translateSchedule(coreSched, e.core, e.coreSub)); err != nil {
		return ChurnSeries{}, err
	}
	ser, err := churnMeasure(fabric, nil, paths,
		func() strategy.Policy { return &strategy.SingleBest{} }, pairs, eng, e.scale.Seed)
	ser.Name = "BGP best-path"
	return ser, err
}

// translateSchedule maps a schedule's link IDs from one graph to another
// by link endpoints, dropping events whose link has no counterpart.
func translateSchedule(sched *chaos.Schedule, from, to *topology.Graph) *chaos.Schedule {
	out := &chaos.Schedule{Seed: sched.Seed, End: sched.End}
	for _, ev := range sched.Events {
		l := from.LinkByID(ev.Link)
		if l == nil {
			continue
		}
		links := to.LinksBetween(l.A, l.B)
		if len(links) == 0 {
			continue
		}
		ev.Link = links[0].ID
		out.Events = append(out.Events, ev)
	}
	return out
}

// segCacheKey is a stable identity for a disseminated link sequence.
func segCacheKey(links []seg.LinkKey) string {
	var b strings.Builder
	for _, lk := range links {
		fmt.Fprintf(&b, "%s#%d|", lk.IA, lk.If)
	}
	return b.String()
}

// hopsFromLinks turns an ordered link-key list (origin side first, as
// stored by beaconing) into a combinator path src -> dst.
func hopsFromLinks(topo *topology.Graph, links []seg.LinkKey, src, dst addr.IA) (*combinator.Path, bool) {
	if len(links) == 0 || links[0].IA != src {
		return nil, false
	}
	var hops []combinator.Hop
	cur := combinator.Hop{IA: src, In: 0, Out: links[0].If}
	for _, lk := range links {
		l := topo.LinkByIf(lk.IA, lk.If)
		if l == nil || lk.IA != cur.IA {
			return nil, false
		}
		cur.Out = lk.If
		hops = append(hops, cur)
		next := l.Other(lk.IA)
		cur = combinator.Hop{IA: next, In: l.RemoteIf(lk.IA)}
	}
	cur.Out = 0
	hops = append(hops, cur)
	if hops[len(hops)-1].IA != dst {
		return nil, false
	}
	p := &combinator.Path{Hops: hops}
	if err := p.Check(topo); err != nil {
		return nil, false
	}
	return p, true
}

// churnMeasure drives one variant's flows through the churn timeline and
// collects the series. Pairs get isolated token buckets (as in the
// capacity experiment) so each measures its own path set, not cross-pair
// contention. ctrl may be nil (BGP has no live control plane).
func churnMeasure(fabric *dataplane.Fabric, ctrl *sim.Network, provider traffic.PathProvider,
	sched func() strategy.Policy, pairs [][2]addr.IA,
	eng *chaos.Engine, seed int64) (ChurnSeries, error) {

	clock := fabric.Clock()
	fabric.RevocationTTL = churnRevTTL
	engines := make([]*traffic.Engine, len(pairs))
	flows := make([]*traffic.Flow, len(pairs))
	for i, pr := range pairs {
		te, err := traffic.NewEngine(traffic.Config{
			Fabric:        fabric,
			Provider:      provider,
			Links:         traffic.NewLinkModel(traffic.UniformCapacity(churnLinkRate)),
			Scheduler:     sched,
			ChunkSize:     churnChunkSize,
			MinGrant:      churnChunkSize / 4,
			MaxPaths:      8,
			RetryDelayMax: 1 * time.Second,
			// Flows ride out any outage; disconnection shows up as
			// time-to-reconnect, not as flow failure.
			MaxRetries: 1 << 20,
			Seed:       seed + int64(i)*7919,
		})
		if err != nil {
			return ChurnSeries{}, err
		}
		engines[i] = te
		flows[i] = te.Add(traffic.FlowSpec{ID: i, Src: pr[0], Dst: pr[1], Start: churnTrafficStart, Size: 0})
	}
	warmEnd := sim.Time(churnTrafficStart + churnWarmLen)
	stormEnd := warmEnd + sim.Time(churnStormLen)
	end := churnEnd()
	totalSent := func() int64 {
		var sum int64
		for _, f := range flows {
			sum += f.Sent()
		}
		return sum
	}
	var ser ChurnSeries
	var atWarmEnd, atStormEnd int64
	if ctrl != nil {
		// Exclude the bootstrap flood from the warm overhead window.
		clock.At(sim.Time(churnTrafficStart), func() { ctrl.ResetCounters() })
	}
	clock.At(warmEnd, func() {
		atWarmEnd = totalSent()
		if ctrl != nil {
			ser.WarmCtrlBytes = ctrl.GrandTotalTx()
			ctrl.ResetCounters()
		}
	})
	clock.At(stormEnd, func() {
		atStormEnd = totalSent()
		if ctrl != nil {
			ser.ChurnCtrlBytes = ctrl.GrandTotalTx()
		}
	})
	clock.RunUntil(end)

	ser.Flows = len(flows)
	ser.WarmGoodput = float64(atWarmEnd) / churnWarmLen.Seconds()
	ser.ChurnGoodput = float64(atStormEnd-atWarmEnd) / churnStormLen.Seconds()
	ser.RecoveryGoodput = float64(totalSent()-atStormEnd) / churnRecoveryLen.Seconds()
	for _, f := range flows {
		n := len(ser.Outages)
		ser.Outages = append(ser.Outages, f.Outages()...)
		if open := f.OpenOutage(end); open > 0 {
			ser.Outages = append(ser.Outages, open)
		}
		if len(ser.Outages) > n {
			ser.DisconnectedFlows++
		}
	}
	for _, te := range engines {
		ser.Revocations += te.Revocations
		ser.Requeries += te.Requeries
		ser.Reprobes += te.Reprobes
	}
	if eng != nil {
		ser.FlapInjections = eng.Injections[chaos.Flap]
	}
	return ser, nil
}

// CheckOrdering verifies the paper-shaped outcome: diversity reconnects
// and recovers no worse than the baseline (small tolerance — both are
// multipath), and both do strictly better than BGP best-path.
func (r *ChurnResult) CheckOrdering() error {
	byName := map[string]*ChurnSeries{}
	for i := range r.Series {
		byName[r.Series[i].Name] = &r.Series[i]
	}
	div, base, bgp := byName["SCION Diversity"], byName["SCION Baseline"], byName["BGP best-path"]
	if div == nil || base == nil || bgp == nil {
		return fmt.Errorf("churn: missing series")
	}
	const slack = 50 * time.Millisecond
	if d, b := div.MeanReconnect(), base.MeanReconnect(); d > b+slack {
		return fmt.Errorf("churn: diversity mean reconnect %v worse than baseline %v", d, b)
	}
	if d, b := div.MeanReconnect(), bgp.MeanReconnect(); d >= b {
		return fmt.Errorf("churn: diversity mean reconnect %v not better than BGP %v", d, b)
	}
	if d, b := base.MeanReconnect(), bgp.MeanReconnect(); d >= b {
		return fmt.Errorf("churn: baseline mean reconnect %v not better than BGP %v", d, b)
	}
	// Recovery compares absolute delivered rate after the churn: a ratio
	// to the series' own warm phase would flatter BGP, whose warm level
	// is already a single link's worth.
	if d, b := div.RecoveryGoodput, base.RecoveryGoodput; d < b*0.95 {
		return fmt.Errorf("churn: diversity recovery goodput %.0f worse than baseline %.0f", d, b)
	}
	if d, b := div.RecoveryGoodput, bgp.RecoveryGoodput; d <= b {
		return fmt.Errorf("churn: diversity recovery goodput %.0f not better than BGP %.0f", d, b)
	}
	if d, b := base.RecoveryGoodput, bgp.RecoveryGoodput; d <= b {
		return fmt.Errorf("churn: baseline recovery goodput %.0f not better than BGP %.0f", d, b)
	}
	return nil
}

// Print renders the comparison deterministically.
func (r *ChurnResult) Print(w io.Writer) {
	fmt.Fprintf(w, "== Continuous-churn resilience (Figure 6a under live flap churn) ==\n")
	fmt.Fprintf(w, "%d pairs; %d of %d best-path links flapping (down %v of every %v) for %v\n",
		len(r.Pairs), r.FlappedLinks, r.CandidateLinks, churnFlapDown, churnFlapPeriod, churnStormLen)
	fmt.Fprintf(w, "phases: warm %v, churn %v, recovery %v; beacon interval %v; revocation TTL %v\n\n",
		churnWarmLen, churnStormLen, churnRecoveryLen, churnBeaconInterval, churnRevTTL)
	tbl := metrics.Table{
		Header: []string{"series", "flows hit", "outages", "reconnect p50", "p90", "max", "dip", "recovery"},
	}
	for i := range r.Series {
		s := &r.Series[i]
		tbl.Rows = append(tbl.Rows, []string{
			s.Name,
			fmt.Sprintf("%d/%d", s.DisconnectedFlows, s.Flows),
			fmt.Sprintf("%d", len(s.Outages)),
			fmtReconnect(s.ReconnectQuantile(0.5)),
			fmtReconnect(s.ReconnectQuantile(0.9)),
			fmtReconnect(s.ReconnectQuantile(1)),
			fmt.Sprintf("%.2f", s.GoodputDip()),
			fmt.Sprintf("%.2f", s.GoodputRecovery()),
		})
	}
	tbl.Fprint(w)
	fmt.Fprintf(w, "\naggregate goodput (warm -> churn -> recovery) and reaction counters:\n")
	for i := range r.Series {
		s := &r.Series[i]
		fmt.Fprintf(w, "  %-16s %s -> %s -> %s   revocations=%d requeries=%d reprobes=%d flaps=%d\n",
			s.Name, metrics.FmtRate(s.WarmGoodput), metrics.FmtRate(s.ChurnGoodput),
			metrics.FmtRate(s.RecoveryGoodput), s.Revocations, s.Requeries, s.Reprobes, s.FlapInjections)
	}
	fmt.Fprintf(w, "\ncontrol-plane overhead (beaconing bytes, warm vs churn window):\n")
	for i := range r.Series {
		s := &r.Series[i]
		if s.WarmCtrlBytes == 0 && s.ChurnCtrlBytes == 0 {
			fmt.Fprintf(w, "  %-16s static routes (no reconvergence within flap timescales)\n", s.Name)
			continue
		}
		fmt.Fprintf(w, "  %-16s %s -> %s\n", s.Name,
			metrics.FmtBytes(float64(s.WarmCtrlBytes)), metrics.FmtBytes(float64(s.ChurnCtrlBytes)))
	}
	fmt.Fprintf(w, "\nmultipath dissemination keeps pairs connected through flaps that cut\nBGP's only path: failover is an SCMP round trip plus a path-set switch,\nwhile best-path routing waits out the outage.\n")
}

// fmtReconnect prints a reconnect duration with stable precision.
func fmtReconnect(d time.Duration) string {
	if d == 0 {
		return "-"
	}
	return d.Round(time.Millisecond).String()
}
