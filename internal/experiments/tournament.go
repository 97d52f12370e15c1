package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"scionmpr/internal/addr"
	"scionmpr/internal/chaos"
	"scionmpr/internal/metrics"
	"scionmpr/internal/sim"
	"scionmpr/internal/strategy"
	"scionmpr/internal/telemetry"
	"scionmpr/internal/topology"
	"scionmpr/internal/traffic"
	"scionmpr/scion"
)

// Tournament timeline (compressed virtual time, as in the churn
// experiment): traffic starts immediately on the bootstrapped network,
// warms up, rides out a fault storm, and recovers.
const (
	tournWarmLen     = 2 * time.Second
	tournStormLen    = 6 * time.Second
	tournRecoveryLen = 2 * time.Second
	// Each faulted link is disturbed tournFaultDown out of every
	// tournFaultPeriod during the storm.
	tournFaultDown   = 1 * time.Second
	tournFaultPeriod = 3 * time.Second
	// tournSpikeDelay is the storm's one-way latency override — an order
	// of magnitude above the 5ms base, so latency-sensitive policies have
	// something to route around.
	tournSpikeDelay = 60 * time.Millisecond
	// tournRevTTL bounds how long endpoints and path servers distrust a
	// revoked link; shorter than the fault period so healed links are
	// readopted mid-storm.
	tournRevTTL = 1500 * time.Millisecond
	// tournBeaconingTime keeps per-run bootstrap cheap (the grid rebuilds
	// the network for every run so no state leaks between cells): three
	// beacon intervals saturate dissemination on the core topology.
	tournBeaconingTime = 30 * time.Minute
	tournChunkSize     = 256 << 10
	// tournLinkRate: 100 Mbps links, the churn experiment's tradeoff —
	// only relative goodput matters and chunk serialization stays well
	// under the fault timescales.
	tournLinkRate = 1.25e7
)

// TournamentConfig is the experiment grid: every policy runs in every
// cell (topology variant x workload x chaos axis) on identical inputs.
type TournamentConfig struct {
	// Topologies selects the beaconing algorithm disseminating the path
	// sets: "diversity" and/or "baseline".
	Topologies []string
	// Workloads: "steady" (one open-ended flow per pair) and/or "bursty"
	// (Poisson arrivals, heavy-tailed sizes, Zipf pair popularity).
	Workloads []string
	// Chaos: "calm" (no faults), "flap" (links fail and heal on a seeded
	// schedule) and/or "spike" (latency storms; no revocations, so only
	// telemetry-driven policies can react).
	Chaos []string
	// Policies are strategy specs accepted by strategy.New.
	Policies []string
}

// DefaultTournamentConfig is the full grid over every registered policy.
func DefaultTournamentConfig() TournamentConfig {
	return TournamentConfig{
		Topologies: []string{"diversity", "baseline"},
		Workloads:  []string{"steady", "bursty"},
		Chaos:      []string{"calm", "flap", "spike"},
		Policies:   strategy.Names(),
	}
}

// TournamentRun is one (cell, policy) measurement.
type TournamentRun struct {
	Topology, Workload, Chaos, Policy string

	// GoodputBps is aggregate delivered bytes per second of run time.
	GoodputBps float64
	// PathLifetime is the mean time a flow stays on a chosen path set
	// before the policy switches it.
	PathLifetime time.Duration
	// SwitchRate is path switches per flow-second.
	SwitchRate float64
	// LookupOps is the control-plane read pressure: path-server lookups
	// plus endpoint requeries and reprobes.
	LookupOps uint64
	// LossFrac is lost bytes over attempted bytes.
	LossFrac float64

	Flows, Completed, Failed, Outages int
	Revocations, Injections           uint64
}

// Cell names the grid cell the run belongs to.
func (r *TournamentRun) Cell() string {
	return r.Topology + "/" + r.Workload + "/" + r.Chaos
}

// TournamentResult is the full strategy comparison with its
// deterministic fingerprint.
type TournamentResult struct {
	Scale  Scale
	Config TournamentConfig
	Pairs  [][2]addr.IA
	// FaultedLinks/CandidateLinks describe the chaos target pool (links
	// drawn from the evaluated path sets, per topology variant).
	FaultedLinks, CandidateLinks map[string]int
	Runs                         []TournamentRun
	// Winner is the policy with the highest mean cell-normalized goodput
	// (ties break toward the earlier entry in Config.Policies). The
	// traffic engine's default scheduler is pinned to this winner.
	Winner string

	fingerprint string
}

// Fingerprint digests every numeric observable plus each run's telemetry
// snapshot and structured trace. Equal scales, configs and seeds must
// produce equal fingerprints for every worker count.
func (r *TournamentResult) Fingerprint() string { return r.fingerprint }

// RunTournament plays every policy against every grid cell. Each run
// bootstraps a fresh SCION network (so no revocation or cache state
// leaks between runs), derives the fault schedule from the links the
// sampled pairs' path sets actually traverse, and drives all flows
// through one shared traffic engine — contention between flows is part
// of the game, which is what makes disjointness-aware policies
// interesting.
func RunTournament(s Scale, tc TournamentConfig) (*TournamentResult, error) {
	if len(tc.Topologies) == 0 || len(tc.Workloads) == 0 ||
		len(tc.Chaos) == 0 || len(tc.Policies) == 0 {
		return nil, fmt.Errorf("experiments: tournament needs a non-empty grid")
	}
	e, err := newEnv(s)
	if err != nil {
		return nil, err
	}
	pairs := e.samplePairs()
	if len(pairs) == 0 {
		return nil, fmt.Errorf("experiments: no pairs to sample on the core topology")
	}
	res := &TournamentResult{
		Scale:          s,
		Config:         tc,
		Pairs:          pairs,
		FaultedLinks:   map[string]int{},
		CandidateLinks: map[string]int{},
	}
	h := sha256.New()
	for _, topo := range tc.Topologies {
		for _, wl := range tc.Workloads {
			for _, ch := range tc.Chaos {
				for _, pol := range tc.Policies {
					run, err := tournamentRun(e, pairs, topo, wl, ch, pol, res, h)
					if err != nil {
						return nil, fmt.Errorf("experiments: tournament %s/%s/%s %q: %w",
							topo, wl, ch, pol, err)
					}
					res.Runs = append(res.Runs, run)
				}
			}
		}
	}
	res.Winner = tournamentWinner(tc.Policies, res.Runs)
	res.fingerprint = hex.EncodeToString(h.Sum(nil))
	return res, nil
}

// tournEnd is the virtual duration of one tournament run.
func tournEnd() sim.Time {
	return sim.Time(tournWarmLen + tournStormLen + tournRecoveryLen)
}

// tournamentRun executes one (cell, policy) run and folds its
// observables into the tournament fingerprint.
func tournamentRun(e *env, pairs [][2]addr.IA, topoAxis, wl, ch, pol string,
	res *TournamentResult, h io.Writer) (TournamentRun, error) {

	factory, err := strategy.New(pol)
	if err != nil {
		return TournamentRun{}, err
	}
	opts := scion.DefaultOptions()
	if topoAxis == "baseline" {
		opts.Algorithm = scion.Baseline
	} else if topoAxis != "diversity" {
		return TournamentRun{}, fmt.Errorf("unknown topology axis %q", topoAxis)
	}
	opts.DisseminationLimit = e.scale.DissemLimit
	opts.StoreLimit = e.scale.StoreLimit
	opts.BeaconingTime = tournBeaconingTime
	opts.RevocationTTL = tournRevTTL
	opts.Workers = e.scale.Workers
	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(1 << 16)
	opts.Telemetry = reg
	opts.Tracer = tracer
	n, err := scion.NewNetwork(e.core, opts)
	if err != nil {
		return TournamentRun{}, err
	}
	// The fault pool comes from the paths actually under evaluation, so
	// storms are guaranteed to hit the path sets being scored. The lookups
	// this performs also warm the path cache identically for every policy.
	cands, err := tournamentFaultCandidates(n, pairs)
	if err != nil {
		return TournamentRun{}, err
	}
	cell := topoAxis + "/" + wl + "/" + ch
	res.CandidateLinks[topoAxis] = len(cands)

	end := tournEnd()
	stormStart := sim.Time(tournWarmLen)
	stormEnd := stormStart + sim.Time(tournStormLen)
	nfault := stormSize(len(cands), 3, 4)
	var eng *chaos.Engine
	switch ch {
	case "calm":
	case "flap":
		res.FaultedLinks[topoAxis] = nfault
		sched := chaos.FlapChurn(e.scale.Seed, cands, nfault, stormStart, stormEnd,
			tournFaultDown, tournFaultPeriod)
		eng = chaos.NewEngine(n.Clock(), n.Fabric())
		// A data-plane failure propagates to the control plane: the first
		// SCMP already revokes at the source, and NoteLinkDown models the
		// beacon servers revoking registered state at the path servers.
		eng.OnFail = func(id topology.LinkID) {
			if l := e.core.LinkByID(id); l != nil {
				n.NoteLinkDown(l)
			}
		}
		if err := eng.Apply(sched); err != nil {
			return TournamentRun{}, err
		}
	case "spike":
		res.FaultedLinks[topoAxis] = nfault
		sched := chaos.FlapChurn(e.scale.Seed, cands, nfault, stormStart, stormEnd,
			tournFaultDown, tournFaultPeriod)
		for i := range sched.Events {
			sched.Events[i].Kind = chaos.Spike
			sched.Events[i].Delay = tournSpikeDelay
		}
		eng = chaos.NewEngine(n.Clock(), n.Fabric())
		if err := eng.Apply(sched); err != nil {
			return TournamentRun{}, err
		}
	default:
		return TournamentRun{}, fmt.Errorf("unknown chaos axis %q", ch)
	}

	specs, err := tournamentWorkload(wl, pairs, e.scale.Seed)
	if err != nil {
		return TournamentRun{}, err
	}
	// One engine with one shared link model: flows contend for the same
	// token buckets, so spreading over disjoint paths pays off.
	te, err := traffic.NewEngine(traffic.Config{
		Fabric:        n.Fabric(),
		Provider:      n.Paths,
		Links:         traffic.NewLinkModel(traffic.UniformCapacity(tournLinkRate)),
		Scheduler:     factory,
		ChunkSize:     tournChunkSize,
		MinGrant:      tournChunkSize / 4,
		MaxPaths:      8,
		RetryDelayMax: 1 * time.Second,
		// Flows ride out outages; disconnection shows up in the outage
		// and goodput columns, not as flow failure.
		MaxRetries:    1 << 20,
		Seed:          e.scale.Seed,
		Telemetry:     reg,
		RevocationAge: n.PathRevocationAge,
	})
	if err != nil {
		return TournamentRun{}, err
	}
	flows := make([]*traffic.Flow, len(specs))
	for i, spec := range specs {
		flows[i] = te.Add(spec)
	}
	n.Clock().RunUntil(end)

	run := TournamentRun{Topology: topoAxis, Workload: wl, Chaos: ch, Policy: pol, Flows: len(flows)}
	var sent, lost int64
	var switches int
	var flowSeconds float64
	for i, f := range flows {
		sent += f.Sent()
		lost += f.Lost()
		switches += f.PathSwitches()
		run.Outages += len(f.Outages())
		if f.OpenOutage(end) > 0 {
			run.Outages++
		}
		switch {
		case f.Done():
			run.Completed++
			flowSeconds += f.FCT().Seconds()
		case f.Failed():
			run.Failed++
		default:
			if active := time.Duration(end) - specs[i].Start; active > 0 {
				flowSeconds += active.Seconds()
			}
		}
	}
	run.GoodputBps = float64(sent) / time.Duration(end).Seconds()
	if sent+lost > 0 {
		run.LossFrac = float64(lost) / float64(sent+lost)
	}
	if flowSeconds > 0 {
		run.SwitchRate = float64(switches) / flowSeconds
		// Every flow makes one initial choice; each switch starts a new
		// path residency.
		run.PathLifetime = time.Duration(flowSeconds / float64(switches+len(flows)) * float64(time.Second))
	}
	run.Revocations = te.Revocations
	run.LookupOps = n.Lookups + te.Requeries + te.Reprobes
	if eng != nil {
		run.Injections = eng.Injections[chaos.Flap] + eng.Injections[chaos.Spike]
	}
	fingerprintRun(h, cell, &run, reg, tracer)
	return run, nil
}

// tournamentWorkload builds the cell's flow specs; the same workload
// (same seed) is replayed for every policy in the cell.
func tournamentWorkload(wl string, pairs [][2]addr.IA, seed int64) ([]traffic.FlowSpec, error) {
	switch wl {
	case "steady":
		specs := make([]traffic.FlowSpec, len(pairs))
		for i, pr := range pairs {
			specs[i] = traffic.FlowSpec{ID: i, Src: pr[0], Dst: pr[1], Start: 0, Size: 0}
		}
		return specs, nil
	case "bursty":
		flows := 3 * len(pairs)
		return traffic.Generate(traffic.WorkloadParams{
			Flows: flows,
			Pairs: pairs,
			// Arrivals span warm and storm; the recovery tail drains.
			ArrivalRate:   float64(flows) / (tournWarmLen + tournStormLen).Seconds(),
			MeanSize:      8 << 20,
			TailAlpha:     1.5,
			MaxSizeFactor: 20,
			ZipfS:         1.2,
			Seed:          seed,
		}), nil
	default:
		return nil, fmt.Errorf("unknown workload axis %q", wl)
	}
}

// tournamentFaultCandidates collects the distinct links traversed by the
// sampled pairs' looked-up path sets, in deterministic pair order.
func tournamentFaultCandidates(n *scion.Network, pairs [][2]addr.IA) ([]topology.LinkID, error) {
	seen := map[topology.LinkID]bool{}
	var out []topology.LinkID
	for _, pr := range pairs {
		paths, err := n.Paths(pr[0], pr[1])
		if err != nil {
			return nil, err
		}
		for _, fp := range paths {
			refs, err := fp.LinkRefs(n.Topo)
			if err != nil {
				return nil, err
			}
			for _, ref := range refs {
				if id := ref.Link.ID; !seen[id] {
					seen[id] = true
					out = append(out, id)
				}
			}
		}
	}
	return out, nil
}

// fingerprintRun folds one run's deterministic observables into the
// tournament digest: the cell and policy, every numeric field, the
// run's telemetry snapshot, and its structured trace.
func fingerprintRun(h io.Writer, cell string, run *TournamentRun,
	reg *telemetry.Registry, tracer *telemetry.Tracer) {

	io.WriteString(h, cell)
	io.WriteString(h, "|")
	io.WriteString(h, run.Policy)
	io.WriteString(h, "\n")
	var b [8]byte
	w64 := func(v uint64) {
		binary.BigEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	w64(math.Float64bits(run.GoodputBps))
	w64(math.Float64bits(run.SwitchRate))
	w64(math.Float64bits(run.LossFrac))
	w64(uint64(run.PathLifetime))
	w64(run.LookupOps)
	w64(uint64(run.Flows))
	w64(uint64(run.Completed))
	w64(uint64(run.Failed))
	w64(uint64(run.Outages))
	w64(run.Revocations)
	w64(run.Injections)
	reg.WriteSnapshot(h)
	tracer.WriteJSONL(h)
}

// tournamentWinner scores each policy by its goodput normalized to the
// best policy of the same cell (so easy cells do not dominate) and
// returns the highest mean; ties break toward the earlier policy.
func tournamentWinner(policies []string, runs []TournamentRun) string {
	cellMax := map[string]float64{}
	for i := range runs {
		if g := runs[i].GoodputBps; g > cellMax[runs[i].Cell()] {
			cellMax[runs[i].Cell()] = g
		}
	}
	score := map[string]float64{}
	for i := range runs {
		if max := cellMax[runs[i].Cell()]; max > 0 {
			score[runs[i].Policy] += runs[i].GoodputBps / max
		}
	}
	winner, best := "", math.Inf(-1)
	for _, pol := range policies {
		if s := score[pol]; s > best {
			winner, best = pol, s
		}
	}
	return winner
}

// NormalizedScores returns each policy's mean cell-normalized goodput.
func (r *TournamentResult) NormalizedScores() map[string]float64 {
	cellMax := map[string]float64{}
	cells := map[string]bool{}
	for i := range r.Runs {
		cells[r.Runs[i].Cell()] = true
		if g := r.Runs[i].GoodputBps; g > cellMax[r.Runs[i].Cell()] {
			cellMax[r.Runs[i].Cell()] = g
		}
	}
	out := map[string]float64{}
	for i := range r.Runs {
		if max := cellMax[r.Runs[i].Cell()]; max > 0 {
			out[r.Runs[i].Policy] += r.Runs[i].GoodputBps / max / float64(len(cells))
		}
	}
	return out
}

// Print renders the Table-1-style comparison: the per-cell goodput
// matrix, the aggregate per-policy summary, and the winner.
func (r *TournamentResult) Print(w io.Writer) {
	fmt.Fprintf(w, "== Path-selection strategy tournament ==\n")
	fmt.Fprintf(w, "%d pairs; grid %s x %s x %s; %d policies; seed %d\n",
		len(r.Pairs), strings.Join(r.Config.Topologies, ","),
		strings.Join(r.Config.Workloads, ","), strings.Join(r.Config.Chaos, ","),
		len(r.Config.Policies), r.Scale.Seed)
	fmt.Fprintf(w, "timeline: warm %v, storm %v (down %v of every %v), recovery %v; revocation TTL %v\n",
		tournWarmLen, tournStormLen, tournFaultDown, tournFaultPeriod,
		tournRecoveryLen, tournRevTTL)
	for _, topo := range r.Config.Topologies {
		if c := r.CandidateLinks[topo]; c > 0 {
			fmt.Fprintf(w, "%s: %d of %d path-set links faulted during storms\n",
				topo, r.FaultedLinks[topo], c)
		}
	}

	fmt.Fprintf(w, "\nper-cell goodput, normalized to the cell's best policy:\n")
	matrix := metrics.Table{Header: append([]string{"cell"}, r.Config.Policies...)}
	byCell := map[string]map[string]*TournamentRun{}
	var cellOrder []string
	for i := range r.Runs {
		run := &r.Runs[i]
		if byCell[run.Cell()] == nil {
			byCell[run.Cell()] = map[string]*TournamentRun{}
			cellOrder = append(cellOrder, run.Cell())
		}
		byCell[run.Cell()][run.Policy] = run
	}
	for _, cell := range cellOrder {
		max := 0.0
		for _, run := range byCell[cell] {
			if run.GoodputBps > max {
				max = run.GoodputBps
			}
		}
		row := []string{cell}
		for _, pol := range r.Config.Policies {
			run := byCell[cell][pol]
			if run == nil || max <= 0 {
				row = append(row, "-")
				continue
			}
			row = append(row, fmt.Sprintf("%.3f", run.GoodputBps/max))
		}
		matrix.Rows = append(matrix.Rows, row)
	}
	matrix.Fprint(w)

	fmt.Fprintf(w, "\nper-policy aggregate over all %d cells:\n", len(cellOrder))
	scores := r.NormalizedScores()
	agg := metrics.Table{Header: []string{
		"policy", "norm goodput", "path lifetime", "switch/flow-s",
		"lookup ops", "loss", "done/fail", "outages"}}
	for _, pol := range r.Config.Policies {
		var lifetime float64
		var switchRate, loss float64
		var lookups uint64
		var done, failed, outages, cells int
		for i := range r.Runs {
			run := &r.Runs[i]
			if run.Policy != pol {
				continue
			}
			cells++
			lifetime += run.PathLifetime.Seconds()
			switchRate += run.SwitchRate
			loss += run.LossFrac
			lookups += run.LookupOps
			done += run.Completed
			failed += run.Failed
			outages += run.Outages
		}
		if cells == 0 {
			continue
		}
		agg.Rows = append(agg.Rows, []string{
			pol,
			fmt.Sprintf("%.3f", scores[pol]),
			(time.Duration(lifetime / float64(cells) * float64(time.Second))).Round(time.Millisecond).String(),
			fmt.Sprintf("%.3f", switchRate/float64(cells)),
			fmt.Sprintf("%d", lookups),
			fmt.Sprintf("%.4f", loss/float64(cells)),
			fmt.Sprintf("%d/%d", done, failed),
			fmt.Sprintf("%d", outages),
		})
	}
	agg.Fprint(w)
	fmt.Fprintf(w, "\nwinner: %s (promoted to the traffic engine's default scheduler)\n", r.Winner)
	fmt.Fprintf(w, "fingerprint: %s\n", r.Fingerprint())
}
