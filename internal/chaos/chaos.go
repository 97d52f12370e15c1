// Package chaos is a deterministic, seeded fault-injection engine. It
// applies a declarative Schedule of fault events — link flaps, gray
// failures, latency spikes, and per-AS process crashes — to a running
// simulation through a small FaultTarget interface that sim.Network
// (control plane), dataplane.Fabric and dataplane.Engine (data plane)
// satisfy; the planes of one world share its fault table, so a single
// schedule degrades every plane consistently.
//
// Determinism: every injection time (including jitter) is drawn from
// the schedule's seeded RNG when Apply is called, in a fixed order,
// before any event fires. The run itself only executes the precomputed
// plan, so two runs with the same schedule and seed produce identical
// fault timelines regardless of what else the simulation does.
package chaos

import (
	"fmt"
	"math/rand"
	"time"

	"scionmpr/internal/addr"
	"scionmpr/internal/sim"
	"scionmpr/internal/telemetry"
	"scionmpr/internal/topology"
)

// FaultTarget is the fault surface of one plane of the simulation.
// sim.Network, dataplane.Fabric and dataplane.Engine implement it.
type FaultTarget interface {
	FailLink(id topology.LinkID)
	RestoreLink(id topology.LinkID)
	SetLinkLoss(id topology.LinkID, rate float64)
	SetLinkDelay(id topology.LinkID, d time.Duration)
}

// CrashTarget can stop and resume per-AS processes (e.g. beacon
// servers): between Crash and Restart the AS neither handles nor
// originates messages.
type CrashTarget interface {
	Crash(ia addr.IA)
	Restart(ia addr.IA)
}

// Engine applies schedules to one fault target on one simulator.
type Engine struct {
	Sim    *sim.Simulator
	target FaultTarget
	crash  []CrashTarget

	// Overlap bookkeeping. Concurrent events on the same link (two
	// overlapping flaps, a flap during a gray window) must not restore
	// the link while another outage is still active, so every fault
	// class is depth-counted and the strongest active degradation wins.
	failDepth  map[topology.LinkID]int
	grayRates  map[topology.LinkID][]float64
	spikes     map[topology.LinkID][]time.Duration
	crashDepth map[addr.IA]int

	// OnFail / OnRestore are invoked when a link transitions to failed /
	// healthy (outermost flap edge only). Experiments hook these to feed
	// beacon-server revocation and to timestamp outages.
	OnFail    func(id topology.LinkID)
	OnRestore func(id topology.LinkID)

	// Injections counts fault-plan actions executed so far, by kind.
	Injections map[Kind]uint64
}

// NewEngine builds an engine driving target. A nil target stands for a
// table of no links: the faults then reach only the hooks and counters.
func NewEngine(s *sim.Simulator, target FaultTarget) *Engine {
	if target == nil {
		target = &sim.LinkFaults{}
	}
	return &Engine{
		Sim:        s,
		target:     target,
		failDepth:  map[topology.LinkID]int{},
		grayRates:  map[topology.LinkID][]float64{},
		spikes:     map[topology.LinkID][]time.Duration{},
		crashDepth: map[addr.IA]int{},
		Injections: map[Kind]uint64{},
	}
}

// SetTelemetry registers the per-kind injection counts as gauge funcs
// (the Injections map is the source of truth; gauge funcs read it at
// export time from serial context).
func (e *Engine) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	for _, k := range []Kind{Flap, Gray, Spike, CrashAS} {
		k := k
		reg.GaugeFunc(fmt.Sprintf(`chaos_injections_total{kind=%q}`, k), func() float64 {
			return float64(e.Injections[k])
		})
	}
}

// trace emits a fault lifecycle event. All chaos actions execute as
// serial simulator events, so direct serial-shard emission keeps
// deterministic order.
func (e *Engine) trace(kind telemetry.EventKind, actor, subject uint64, reason string) {
	e.Sim.Trace(sim.SerialShard, telemetry.Event{
		Kind: kind, Actor: actor, Subject: subject, Reason: reason,
	})
}

// AddCrashTarget registers a process-fault target.
func (e *Engine) AddCrashTarget(t CrashTarget) { e.crash = append(e.crash, t) }

// action is one precomputed step of the fault plan.
type action struct {
	at sim.Time
	fn func()
}

// Apply expands sched into a concrete fault plan (all times drawn from
// the schedule's seed up front) and registers it with the simulator.
// Call it before running the simulation; occurrences scheduled in the
// simulated past are dropped.
func (e *Engine) Apply(sched *Schedule) error {
	rng := rand.New(rand.NewSource(sched.Seed))
	var plan []action
	for i := range sched.Events {
		ev := &sched.Events[i]
		occ, err := ev.occurrences(sched.End, rng)
		if err != nil {
			return fmt.Errorf("chaos: event %d: %w", i, err)
		}
		for _, at := range occ {
			plan = append(plan, e.planEvent(ev, at)...)
		}
	}
	now := e.Sim.Now()
	for _, a := range plan {
		if a.at < now {
			continue
		}
		e.Sim.At(a.at, a.fn)
	}
	return nil
}

// planEvent expands one occurrence of ev starting at t into its
// inject/recover action pair.
func (e *Engine) planEvent(ev *Event, t sim.Time) []action {
	recover := t + sim.Time(ev.Down)
	switch ev.Kind {
	case Flap:
		id := ev.Link
		return []action{
			{t, func() { e.Injections[Flap]++; e.failLink(id) }},
			{recover, func() { e.restoreLink(id) }},
		}
	case Gray:
		id, rate := ev.Link, ev.Rate
		return []action{
			{t, func() { e.Injections[Gray]++; e.pushGray(id, rate) }},
			{recover, func() { e.popGray(id, rate) }},
		}
	case Spike:
		id, d := ev.Link, ev.Delay
		return []action{
			{t, func() { e.Injections[Spike]++; e.pushSpike(id, d) }},
			{recover, func() { e.popSpike(id, d) }},
		}
	case CrashAS:
		ia := ev.IA
		return []action{
			{t, func() { e.Injections[CrashAS]++; e.crashAS(ia) }},
			{recover, func() { e.restartAS(ia) }},
		}
	}
	return nil
}

func (e *Engine) failLink(id topology.LinkID) {
	e.failDepth[id]++
	if e.failDepth[id] != 1 {
		return
	}
	e.trace(telemetry.FaultApplied, 0, uint64(id), "flap")
	e.target.FailLink(id)
	if e.OnFail != nil {
		e.OnFail(id)
	}
}

func (e *Engine) restoreLink(id topology.LinkID) {
	e.failDepth[id]--
	if e.failDepth[id] > 0 {
		return
	}
	delete(e.failDepth, id)
	e.trace(telemetry.FaultHealed, 0, uint64(id), "flap")
	e.target.RestoreLink(id)
	if e.OnRestore != nil {
		e.OnRestore(id)
	}
}

func (e *Engine) pushGray(id topology.LinkID, rate float64) {
	if len(e.grayRates[id]) == 0 {
		e.trace(telemetry.FaultApplied, 0, uint64(id), "gray")
	}
	e.grayRates[id] = append(e.grayRates[id], rate)
	e.applyGray(id)
}

func (e *Engine) popGray(id topology.LinkID, rate float64) {
	rs := e.grayRates[id]
	for i, r := range rs {
		if r == rate {
			e.grayRates[id] = append(rs[:i], rs[i+1:]...)
			break
		}
	}
	if len(e.grayRates[id]) == 0 {
		delete(e.grayRates, id)
		e.trace(telemetry.FaultHealed, 0, uint64(id), "gray")
	}
	e.applyGray(id)
}

// applyGray installs the strongest active gray rate on a link.
func (e *Engine) applyGray(id topology.LinkID) {
	max := 0.0
	for _, r := range e.grayRates[id] {
		if r > max {
			max = r
		}
	}
	e.target.SetLinkLoss(id, max)
}

func (e *Engine) pushSpike(id topology.LinkID, d time.Duration) {
	if len(e.spikes[id]) == 0 {
		e.trace(telemetry.FaultApplied, 0, uint64(id), "spike")
	}
	e.spikes[id] = append(e.spikes[id], d)
	e.applySpike(id)
}

func (e *Engine) popSpike(id topology.LinkID, d time.Duration) {
	ds := e.spikes[id]
	for i, x := range ds {
		if x == d {
			e.spikes[id] = append(ds[:i], ds[i+1:]...)
			break
		}
	}
	if len(e.spikes[id]) == 0 {
		delete(e.spikes, id)
		e.trace(telemetry.FaultHealed, 0, uint64(id), "spike")
	}
	e.applySpike(id)
}

// applySpike installs the largest active delay override on a link;
// SetLinkDelay(0) restores the default latency.
func (e *Engine) applySpike(id topology.LinkID) {
	var max time.Duration
	for _, d := range e.spikes[id] {
		if d > max {
			max = d
		}
	}
	// A sim.Network and a dataplane.Fabric delay what they carry by it;
	// a queue-draining dataplane.Engine has no clock and only stores it.
	e.target.SetLinkDelay(id, max)
}

func (e *Engine) crashAS(ia addr.IA) {
	e.crashDepth[ia]++
	if e.crashDepth[ia] != 1 {
		return
	}
	e.trace(telemetry.FaultApplied, ia.Uint64(), 0, "crash")
	for _, t := range e.crash {
		t.Crash(ia)
	}
}

func (e *Engine) restartAS(ia addr.IA) {
	e.crashDepth[ia]--
	if e.crashDepth[ia] > 0 {
		return
	}
	delete(e.crashDepth, ia)
	e.trace(telemetry.FaultHealed, ia.Uint64(), 0, "crash")
	for _, t := range e.crash {
		t.Restart(ia)
	}
}

// Summary renders the injection counters deterministically.
func (e *Engine) Summary() string {
	return fmt.Sprintf("chaos: flaps=%d gray=%d spikes=%d crashes=%d",
		e.Injections[Flap], e.Injections[Gray], e.Injections[Spike], e.Injections[CrashAS])
}
