package beacon

import (
	"fmt"
	"time"

	"scionmpr/internal/addr"
	"scionmpr/internal/chaos"
	"scionmpr/internal/core"
	"scionmpr/internal/graphalg"
	"scionmpr/internal/seg"
	"scionmpr/internal/sim"
	"scionmpr/internal/telemetry"
	"scionmpr/internal/topology"
	"scionmpr/internal/trust"
)

// RunConfig describes one beaconing simulation, defaulting to the paper's
// setup (§5.1): six hours of beaconing, ten-minute intervals, six-hour PCB
// lifetime, dissemination limit 5, and a configurable PCB storage limit.
type RunConfig struct {
	Topo     *topology.Graph
	Mode     Mode
	Selector core.Factory
	// StoreLimit is the per-origin PCB storage limit (<= 0: unlimited).
	StoreLimit int
	Interval   time.Duration
	Lifetime   time.Duration
	Duration   time.Duration
	LinkDelay  time.Duration
	// Verify enables cryptographic verification of every received PCB.
	Verify bool
	// Infra supplies key material; a Sized-mode Infra is built if nil.
	Infra *trust.Infra
	// Policies are per-AS beaconing policies (nil entries allow all).
	Policies map[addr.IA]*Policy
	// Chaos, if set, applies a full fault-injection schedule to the run:
	// flaps, gray failures, latency spikes, and beacon-server crashes.
	// A failed link stops carrying beacons and every beacon server
	// revokes the state over it; on restore, neighbors re-propagate over
	// the healed link at their next interval, repopulating that state.
	Chaos *chaos.Schedule
	// Workers is the simulator's parallel worker count: 1 forces
	// sequential execution, 0 resolves the default (SCIONMPR_WORKERS or
	// GOMAXPROCS). Beacon servers are independent per-AS actors, so
	// same-timestamp ticks and deliveries run on a worker pool; the
	// result is byte-identical for every setting (see internal/sim).
	Workers int
	// Telemetry, if set, receives sharded counters from every subsystem
	// of the run; its deterministic snapshot is folded into Fingerprint.
	Telemetry *telemetry.Registry
	// Tracer, if set, records structured trace events (origination,
	// propagation, filtering, chaos faults) in deterministic order; its
	// JSONL encoding is folded into Fingerprint.
	Tracer *telemetry.Tracer
}

// DefaultRunConfig returns the paper's simulation parameters with the
// given topology and selector.
func DefaultRunConfig(topo *topology.Graph, mode Mode, selector core.Factory, storeLimit int) RunConfig {
	return RunConfig{
		Topo:       topo,
		Mode:       mode,
		Selector:   selector,
		StoreLimit: storeLimit,
		Interval:   10 * time.Minute,
		Lifetime:   6 * time.Hour,
		Duration:   6 * time.Hour,
		LinkDelay:  20 * time.Millisecond,
	}
}

// Run executes a beaconing simulation and returns the final state.
type RunResult struct {
	Cfg     RunConfig
	Sim     *sim.Simulator
	Net     *sim.Network
	Servers map[addr.IA]*Server
	// Chaos is the fault-injection engine, set when Cfg.Chaos was applied
	// (its per-kind injection counts summarize what the run endured).
	Chaos *chaos.Engine
	// End is the final virtual time.
	End sim.Time
}

// Plane is a live beaconing control plane: trust infra, a simulator, a
// sharded control network and one beacon server per AS, built from a
// RunConfig with no event scheduled yet. Run, RunWithCheckpoint and
// Resume drive one to completion; the live experiments (churn, serving,
// failover) add their data plane and periodic work on Sim and run it
// themselves.
//
// Same-timestamp events execute in registration order, so the order of
// the calls that register events is part of the result. A fresh run
// registers ScheduleTicks, then the caller's own periodic work, then the
// chaos plan. Resume registers the chaos plan before the ticks: that
// reproduces the relative order the original run's pending events had at
// the checkpoint (setup-registered fault actions carry smaller sequence
// numbers than self-rescheduled ticks).
type Plane struct {
	Cfg     RunConfig
	Infra   *trust.Infra
	Sim     *sim.Simulator
	Net     *sim.Network
	Servers map[addr.IA]*Server
	end     sim.Time
}

// NewPlane validates cfg and constructs the simulator, network, and
// beacon servers, without scheduling any events.
func NewPlane(cfg RunConfig) (*Plane, error) {
	if cfg.Topo == nil || cfg.Selector == nil {
		return nil, fmt.Errorf("beacon: run config missing topology or selector")
	}
	if cfg.Interval <= 0 || cfg.Lifetime <= 0 || cfg.Duration <= 0 {
		return nil, fmt.Errorf("beacon: run config has non-positive timing")
	}
	infra := cfg.Infra
	if infra == nil {
		var err error
		infra, err = trust.NewInfra(cfg.Topo, trust.Sized)
		if err != nil {
			return nil, err
		}
	}
	s := &sim.Simulator{}
	s.SetWorkers(cfg.Workers)
	s.SetTracer(cfg.Tracer)
	s.SetTelemetry(cfg.Telemetry)
	net := sim.NewNetwork(s, cfg.Topo, cfg.LinkDelay)
	net.SetTelemetry(cfg.Telemetry)
	// Each beacon server touches only its own AS's state in its handler
	// and tick, so ASes are sharded into parallel actors.
	net.EnableSharding()
	servers := map[addr.IA]*Server{}
	var verifier trust.Verifier
	if cfg.Verify {
		verifier = infra
	}
	for _, ia := range cfg.Topo.IAs() {
		srv, err := newServer(serverConfig{
			Local:       ia,
			Topo:        cfg.Topo,
			Net:         net,
			Signer:      infra.SignerFor(ia),
			Verifier:    verifier,
			Selector:    cfg.Selector(ia),
			StoreLimit:  cfg.StoreLimit,
			Mode:        cfg.Mode,
			PCBLifetime: cfg.Lifetime,
			Policy:      cfg.Policies[ia],
		})
		if err != nil {
			return nil, err
		}
		srv.SetTelemetry(cfg.Telemetry)
		servers[ia] = srv
	}
	return &Plane{Cfg: cfg, Infra: infra, Sim: s, Net: net, Servers: servers, end: sim.Time(cfg.Duration)}, nil
}

// ScheduleTicks registers every AS's beaconing interval on its own shard,
// from the simulator's current time (zero for a fresh run, the checkpoint
// time for a resumed one, where the original run's ticks for that
// timestamp were pending but unexecuted) to the end of the run.
func (p *Plane) ScheduleTicks() {
	for _, ia := range p.Cfg.Topo.IAs() {
		p.Sim.EveryShard(p.Net.Shard(ia), 0, p.Cfg.Interval, p.end, p.Servers[ia].Tick)
	}
}

// NewChaos builds a fault-injection engine over the control network with
// the plane's reactions wired: a failed link is revoked at every beacon
// server (paper §4.1), and a crashed AS's beacon server is deaf and mute
// until it restarts. Callers may add crash targets before they Apply a
// schedule.
func (p *Plane) NewChaos() *chaos.Engine {
	eng := chaos.NewEngine(p.Sim, p.Net)
	eng.SetTelemetry(p.Cfg.Telemetry)
	eng.AddCrashTarget(serverCrashTarget{p.Servers})
	ias := p.Cfg.Topo.IAs()
	eng.OnFail = func(id topology.LinkID) {
		if l := p.Cfg.Topo.LinkByID(id); l != nil {
			for _, ia := range ias {
				p.Servers[ia].handleLinkFailure(l)
			}
		}
	}
	return eng
}

// applyChaos applies Cfg.Chaos, if set, on a NewChaos engine. state,
// when non-nil, restores the engine's bookkeeping (overlap depths,
// injection counts) from a checkpoint before the plan is re-derived;
// Apply itself drops actions in the simulated past, so a resumed engine
// re-registers exactly the actions that were pending at the checkpoint.
func (p *Plane) applyChaos(state []byte) (*chaos.Engine, error) {
	if p.Cfg.Chaos == nil {
		return nil, nil
	}
	eng := p.NewChaos()
	if state != nil {
		if err := eng.RestoreState(state); err != nil {
			return nil, err
		}
	}
	if err := eng.Apply(p.Cfg.Chaos); err != nil {
		return nil, err
	}
	return eng, nil
}

// finish drains the event queue and assembles the result.
func (p *Plane) finish(eng *chaos.Engine) *RunResult {
	p.Sim.RunUntil(p.end)
	// Drain in-flight deliveries scheduled before the end time.
	final := p.Sim.Run()
	if final < p.end {
		final = p.end
	}
	return &RunResult{Cfg: p.Cfg, Sim: p.Sim, Net: p.Net, Servers: p.Servers, Chaos: eng, End: final}
}

// Run builds the beacon servers, schedules interval ticks for the whole
// duration, and drains the event queue.
func Run(cfg RunConfig) (*RunResult, error) {
	p, err := NewPlane(cfg)
	if err != nil {
		return nil, err
	}
	p.ScheduleTicks()
	eng, err := p.applyChaos(nil)
	if err != nil {
		return nil, err
	}
	return p.finish(eng), nil
}

// serverCrashTarget adapts the server map to chaos.CrashTarget.
type serverCrashTarget struct {
	servers map[addr.IA]*Server
}

func (t serverCrashTarget) Crash(ia addr.IA) {
	if s := t.servers[ia]; s != nil {
		s.SetDown(true)
	}
}

func (t serverCrashTarget) Restart(ia addr.IA) {
	if s := t.servers[ia]; s != nil {
		s.SetDown(false)
	}
}

// PathSet returns the disseminated paths from origin available at dst as
// link sequences resolved against the topology, ready for the
// resilience/capacity metrics. Unresolvable links (should not happen on a
// consistent topology) are skipped along with their path.
func (r *RunResult) PathSet(origin, dst addr.IA) [][]graphalg.PathLink {
	srv := r.Servers[dst]
	if srv == nil || origin == dst {
		return nil
	}
	var out [][]graphalg.PathLink
	for _, links := range srv.Segments(r.End, origin) {
		pl := make([]graphalg.PathLink, 0, len(links))
		ok := true
		for _, lk := range links {
			l := r.Cfg.Topo.LinkByIf(lk.IA, lk.If)
			if l == nil {
				ok = false
				break
			}
			pl = append(pl, graphalg.PathLink{A: l.A, B: l.B, ID: l.ID})
		}
		if ok && len(pl) > 0 {
			out = append(out, pl)
		}
	}
	return out
}

// Quality computes the Figure 6a/6b metric for one AS pair: the max-flow
// over the union of disseminated paths from src to dst.
func (r *RunResult) Quality(src, dst addr.IA) int {
	return graphalg.UnionFlow(r.PathSet(src, dst), src, dst)
}

// Terminate converts the beacons from origin stored at `at` into
// registrable path segments: each gets a terminating AS entry (no egress,
// 1472-byte MTU) signed by signer and carrying peers, so peering shortcuts
// work when the entries are given. An AS without a beacon server yields
// none.
func (r *RunResult) Terminate(signer trust.Signer, origin, at addr.IA, peers []seg.PeerEntry) ([]*seg.PCB, error) {
	srv := r.Servers[at]
	if srv == nil {
		return nil, nil
	}
	var out []*seg.PCB
	for _, e := range srv.Store().Entries(r.End, origin) {
		t, err := e.PCB.Extend(signer, addr.IA{}, e.Ingress, 0, peers, 1472)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// TotalOverheadBytes is the total control-plane bytes transmitted.
func (r *RunResult) TotalOverheadBytes() uint64 { return r.Net.GrandTotalTx() }

// PerInterfaceBandwidth returns the average transmitted bytes/second per
// traffic-bearing interface over the run (Figure 9).
func (r *RunResult) PerInterfaceBandwidth() []float64 {
	secs := time.Duration(r.End).Seconds()
	if secs <= 0 {
		return nil
	}
	bytes := r.Net.PerInterfaceTxBytes()
	out := make([]float64, len(bytes))
	for i, b := range bytes {
		out[i] = float64(b) / secs
	}
	return out
}
