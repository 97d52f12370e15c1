package experiments

import (
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"scionmpr/internal/addr"
	"scionmpr/internal/bgp"
	"scionmpr/internal/combinator"
	"scionmpr/internal/dataplane"
	"scionmpr/internal/metrics"
	"scionmpr/internal/sim"
	"scionmpr/internal/strategy"
	"scionmpr/internal/topology"
	"scionmpr/internal/traffic"
	"scionmpr/scion"
)

// CapacitySeries is one curve of the under-load capacity comparison:
// per-pair achieved goodput in multiples of a single inter-AS link.
type CapacitySeries struct {
	Name string
	// Multiples is the per-pair goodput / link capacity (Figure 6b's unit).
	Multiples []float64
}

// CapacityResult is the Figure-6b-style comparison measured with actual
// traffic instead of max-flow analysis: the same open-ended flows run over
// the path sets of the diversity algorithm, the baseline algorithm and
// BGP best-path routing, on identical uniform-capacity links.
type CapacityResult struct {
	Scale Scale
	// LinkCapacity is the uniform per-link-direction rate in bytes/s.
	LinkCapacity float64
	// Window is the measurement window of virtual time per pair.
	Window time.Duration
	Pairs  [][2]addr.IA
	Series []CapacitySeries
}

// capacityLinkRate keeps the multiples metric readable: 1 Gbps links.
const capacityLinkRate = 1.25e8

// capacityWindow is the per-run measurement window of virtual time.
const capacityWindow = 2 * time.Second

// RunCapacity measures achieved multipath capacity under load. It builds
// one intra-ISD deployment (paper §5.1 construction: highest-cone cores
// plus their customer hierarchy), then for each variant runs one
// open-ended flow per sampled AS pair through the traffic engine — token
// buckets on every link direction, weighted-by-bottleneck striping for
// SCION, the single best path for BGP — and reports goodput in link
// multiples. The paper's claim (§5.3, Figure 6b) is that diversity-based
// beaconing disseminates path sets whose capacity beats the baseline's,
// which in turn beats BGP best-path; here the same ordering must emerge
// from packets, not from max-flow arithmetic.
func RunCapacity(s Scale) (*CapacityResult, error) {
	// Same setting as RunFig6: the extracted core network carries the
	// traffic (that is where disseminated path diversity differs between
	// the algorithms); BGP runs on the core members' original-relationship
	// subgraph, its best case.
	e, err := newEnv(s)
	if err != nil {
		return nil, err
	}
	pairs := e.samplePairs()
	if len(pairs) == 0 {
		return nil, fmt.Errorf("experiments: no pairs to sample on the core topology")
	}
	res := &CapacityResult{
		Scale:        s,
		LinkCapacity: capacityLinkRate,
		Window:       capacityWindow,
		Pairs:        pairs,
	}

	diversity, err := scionCapacity(e.core, scion.Diversity, pairs)
	if err != nil {
		return nil, err
	}
	res.Series = append(res.Series, CapacitySeries{Name: "SCION Diversity", Multiples: diversity})

	baseline, err := scionCapacity(e.core, scion.Baseline, pairs)
	if err != nil {
		return nil, err
	}
	res.Series = append(res.Series, CapacitySeries{Name: "SCION Baseline", Multiples: baseline})

	best, err := bgpCapacity(e.coreSub, pairs)
	if err != nil {
		return nil, err
	}
	res.Series = append(res.Series, CapacitySeries{Name: "BGP best-path", Multiples: best})
	return res, nil
}

// pairEngines sets up one traffic engine per pair — pairs are isolated in
// their own token buckets so each measures its path set's capacity, not
// cross-pair contention — runs the shared clock for the window, and
// returns per-pair goodput in link multiples.
func pairEngines(fabric *dataplane.Fabric, provider traffic.PathProvider,
	sched func() strategy.Policy, pairs [][2]addr.IA) ([]float64, error) {

	clock := fabric.Clock()
	flows := make([]*traffic.Flow, len(pairs))
	for i, pr := range pairs {
		eng, err := traffic.NewEngine(traffic.Config{
			Fabric:    fabric,
			Provider:  provider,
			Links:     traffic.NewLinkModel(traffic.UniformCapacity(capacityLinkRate)),
			Scheduler: sched,
			// Wide budget: capacity differences live in the tail of the
			// disseminated path set, not the first few shortest paths.
			MaxPaths: 16,
		})
		if err != nil {
			return nil, err
		}
		flows[i] = eng.Add(traffic.FlowSpec{ID: i, Src: pr[0], Dst: pr[1], Start: 0, Size: 0})
	}
	deadline := clock.Now() + sim.Time(capacityWindow)
	clock.RunUntil(deadline)
	out := make([]float64, len(flows))
	for i, f := range flows {
		out[i] = f.Goodput(deadline) / capacityLinkRate
	}
	return out, nil
}

// scionCapacity bootstraps a SCION network with the given beaconing
// algorithm and measures every pair with weighted-by-bottleneck striping
// over the looked-up path set.
func scionCapacity(topo *topology.Graph, alg scion.Algorithm, pairs [][2]addr.IA) ([]float64, error) {
	return scionCapacityWith(topo, alg,
		func() strategy.Policy { return &strategy.WeightedBottleneck{} }, pairs)
}

// scionCapacityWith is scionCapacity with a pluggable scheduler factory —
// the differential cross-check replays the capacity run through both
// strategies and pins the result to pre-refactor goldens.
func scionCapacityWith(topo *topology.Graph, alg scion.Algorithm,
	sched func() strategy.Policy, pairs [][2]addr.IA) ([]float64, error) {

	opts := scion.DefaultOptions()
	opts.Algorithm = alg
	n, err := scion.NewNetwork(topo, opts)
	if err != nil {
		return nil, err
	}
	return pairEngines(n.Fabric(), n.Paths, sched, pairs)
}

// bgpCapacity converges BGP on the same topology and measures every pair
// over its single best path (the comparison floor: one path, one link).
func bgpCapacity(topo *topology.Graph, pairs [][2]addr.IA) ([]float64, error) {
	res, err := bgp.Run(bgp.DefaultConfig(topo))
	if err != nil {
		return nil, err
	}
	fabric, paths := bgpFloor(res, topo, pairs)
	return pairEngines(fabric, paths, func() strategy.Policy { return &strategy.SingleBest{} }, pairs)
}

// bgpFloor builds the comparison floor's data plane, a fabric on a clock
// of its own, and its path provider: each pair forwards on its converged
// BGP best path. BGP forwarding has no hop-field MACs; a synthetic per-AS
// key ring satisfies the shared fabric without a SCION trust hierarchy.
func bgpFloor(res *bgp.Result, topo *topology.Graph, pairs [][2]addr.IA) (*dataplane.Fabric, traffic.PathProvider) {
	keys := func(ia addr.IA) []byte {
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], ia.Uint64()^0x5ca1ab1ecafe)
		return b[:]
	}
	fabric := dataplane.NewFabric(&sim.Simulator{}, topo, 5*time.Millisecond, sim.NewLinkFaults(topo), keys)
	best := map[[2]addr.IA]*dataplane.FwdPath{}
	for _, pr := range pairs {
		if fp, err := bgpBestPath(res, topo, keys, pr[0], pr[1]); err == nil {
			best[pr] = fp
		}
	}
	return fabric, func(src, dst addr.IA) ([]*dataplane.FwdPath, error) {
		if fp := best[[2]addr.IA{src, dst}]; fp != nil {
			return []*dataplane.FwdPath{fp}, nil
		}
		return nil, fmt.Errorf("experiments: no BGP route %s -> %s", src, dst)
	}
}

// bgpBestPath authorizes src's converged best route toward dst as a
// forwarding path. BGP sessions (and thus the forwarding next hop) use one
// link between consecutive ASes, so no parallel-link expansion applies.
func bgpBestPath(res *bgp.Result, topo *topology.Graph, keys dataplane.KeyFunc,
	src, dst addr.IA) (*dataplane.FwdPath, error) {

	sp := res.Speakers[src]
	if sp == nil {
		return nil, fmt.Errorf("experiments: no BGP speaker at %s", src)
	}
	rt := sp.Best(dst)
	if rt == nil {
		return nil, fmt.Errorf("experiments: no BGP route %s -> %s", src, dst)
	}
	ases := append([]addr.IA{src}, rt.Path...)
	hops := make([]combinator.Hop, len(ases))
	for i, ia := range ases {
		hops[i] = combinator.Hop{IA: ia}
	}
	for i := 0; i+1 < len(ases); i++ {
		links := topo.LinksBetween(ases[i], ases[i+1])
		if len(links) == 0 {
			return nil, fmt.Errorf("experiments: BGP path %s -> %s not in topology", ases[i], ases[i+1])
		}
		l := links[0]
		hops[i].Out = l.LocalIf(ases[i])
		hops[i+1].In = l.RemoteIf(ases[i])
	}
	return dataplane.Authorize(&combinator.Path{Hops: hops, MTU: 1472}, keys)
}

// AggregateGoodput sums each series' per-pair goodput (bytes/s).
func (r *CapacityResult) AggregateGoodput(name string) float64 {
	for _, s := range r.Series {
		if s.Name == name {
			sum := 0.0
			for _, m := range s.Multiples {
				sum += m * r.LinkCapacity
			}
			return sum
		}
	}
	return 0
}

// Print renders the per-pair goodput CDFs and the aggregate comparison.
func (r *CapacityResult) Print(w io.Writer) {
	var series []metrics.Series
	for _, s := range r.Series {
		series = append(series, metrics.Series{Name: s.Name, CDF: metrics.NewCDF(s.Multiples)})
	}
	metrics.FprintCDFs(w,
		fmt.Sprintf("capacity under load: per-pair goodput in link multiples (%d pairs, %v window)",
			len(r.Pairs), r.Window), series)
	fmt.Fprintf(w, "\naggregate goodput over all pairs (link capacity %s):\n",
		metrics.FmtRate(r.LinkCapacity))
	for _, s := range r.Series {
		fmt.Fprintf(w, "  %-18s %s\n", s.Name, metrics.FmtRate(r.AggregateGoodput(s.Name)))
	}
	fmt.Fprintf(w, "\nthe ordering diversity >= baseline >= BGP best-path is the paper's\nFigure 6b measured with packets: multipath striping turns disseminated\npath diversity into delivered bytes.\n")
}
