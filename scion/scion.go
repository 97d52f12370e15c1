// Package scion is the public entry point of the library: it bootstraps a
// complete simulated SCION internetwork — trust infrastructure, core and
// intra-ISD beaconing, path servers with registered segments, and a
// data-plane fabric — on any topology, and exposes endpoint-level path
// lookup and packet forwarding.
//
// A minimal session:
//
//	net, err := scion.NewNetwork(topology.Demo(), scion.DefaultOptions())
//	host := net.Host(srcIA, 10, 0, 0, 1)
//	host.OnReceive(func(from addr.Host, payload []byte) { ... })
//	err = host.Send(dstHost, []byte("hello"))
//	net.Run() // drive the virtual clock
//
// The heavy lifting lives in the internal packages (see README.md); this
// package wires them the way a SCION deployment does: beacon servers feed
// path servers, endpoints query path servers and combine segments, the
// data plane forwards on MACed hop fields and reports failures via SCMP.
package scion

import (
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"scionmpr/internal/addr"
	"scionmpr/internal/beacon"
	"scionmpr/internal/combinator"
	"scionmpr/internal/core"
	"scionmpr/internal/dataplane"
	"scionmpr/internal/pathdb"
	"scionmpr/internal/seg"
	"scionmpr/internal/sim"
	"scionmpr/internal/telemetry"
	"scionmpr/internal/topology"
	"scionmpr/internal/trust"
)

// Algorithm selects the beaconing path construction algorithm.
type Algorithm int

const (
	// Diversity is the paper's path-diversity-based algorithm (default).
	Diversity Algorithm = iota
	// Baseline is the production/SCIONLab k-shortest algorithm.
	Baseline
)

// Options configures network bootstrap.
type Options struct {
	// Algorithm used by all beacon servers.
	Algorithm Algorithm
	// DisseminationLimit is the PCB dissemination limit (default 5).
	DisseminationLimit int
	// StoreLimit is the per-origin PCB storage limit (default 60).
	StoreLimit int
	// BeaconingTime is how much virtual beaconing time to simulate
	// before the network is considered bootstrapped (default 2h).
	BeaconingTime time.Duration
	// Interval and Lifetime follow the paper's defaults (10m, 6h).
	Interval, Lifetime time.Duration
	// LinkDelay is the data-plane one-way link latency (default 5ms).
	LinkDelay time.Duration
	// Verify enables cryptographic verification of received PCBs.
	Verify bool
	// RevocationTTL bounds how long a link revocation hides path
	// segments at the path servers. Revocations are soft state (paper
	// §4.1): when the TTL lapses, previously revoked paths are
	// reinstated in lookups — if the link is still down, the next use
	// triggers a fresh SCMP revocation. Zero selects the default (10s
	// of data-plane time); negative makes revocations permanent (the
	// pre-chaos behavior).
	RevocationTTL time.Duration
	// Workers parallelizes the bootstrap beaconing runs (0 = serial).
	// Results are byte-identical for any worker count.
	Workers int
	// Telemetry, if set, receives counters from the bootstrap beaconing
	// runs, the path servers, and the data-plane fabric.
	Telemetry *telemetry.Registry
	// Tracer, if set, records structured trace events across the
	// bootstrap and data-plane phases.
	Tracer *telemetry.Tracer
}

// DefaultOptions returns the paper-aligned defaults.
func DefaultOptions() Options {
	return Options{
		Algorithm:          Diversity,
		DisseminationLimit: 5,
		StoreLimit:         60,
		BeaconingTime:      2 * time.Hour,
		Interval:           10 * time.Minute,
		Lifetime:           6 * time.Hour,
		LinkDelay:          5 * time.Millisecond,
		RevocationTTL:      10 * time.Second,
	}
}

// Network is a bootstrapped SCION internetwork.
type Network struct {
	Topo  *topology.Graph
	Infra *trust.Infra
	Opts  Options

	coreRun  *beacon.RunResult
	intraRun *beacon.RunResult

	// pathServers: every AS has one; core ASes also hold registered
	// down- and core-segments of their ISD.
	pathServers map[addr.IA]*pathdb.Server

	clock  *sim.Simulator
	netSim *sim.Network
	fabric *dataplane.Fabric
	hosts  map[string]*Host
	// svcHandlers intercept control-service replies per AS (RemoteLookup).
	svcHandlers map[addr.IA]func(*dataplane.Packet)

	pathCache map[[2]uint64][]*dataplane.FwdPath
	// revExpiries holds pending revocation-expiry times (ascending); the
	// path cache is flushed lazily when the clock passes one, so
	// reinstated segments become visible to cached lookups.
	revExpiries []sim.Time
}

// NewNetwork bootstraps the control plane on topo and prepares the data
// plane. The call simulates Opts.BeaconingTime of beaconing, terminates
// and registers the resulting segments at the path servers, and returns a
// network ready for path lookups and traffic.
func NewNetwork(topo *topology.Graph, opts Options) (*Network, error) {
	if topo == nil || topo.NumASes() == 0 {
		return nil, fmt.Errorf("scion: empty topology")
	}
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	if opts.DisseminationLimit <= 0 {
		opts.DisseminationLimit = 5
	}
	if opts.StoreLimit == 0 {
		opts.StoreLimit = 60
	}
	if opts.BeaconingTime <= 0 {
		opts.BeaconingTime = 2 * time.Hour
	}
	if opts.Interval <= 0 {
		opts.Interval = 10 * time.Minute
	}
	if opts.Lifetime <= 0 {
		opts.Lifetime = 6 * time.Hour
	}
	if opts.LinkDelay <= 0 {
		opts.LinkDelay = 5 * time.Millisecond
	}
	if opts.RevocationTTL == 0 {
		opts.RevocationTTL = 10 * time.Second
	}

	infra, err := trust.NewInfra(topo, trust.Sized)
	if err != nil {
		return nil, err
	}
	n := &Network{
		Topo:        topo,
		Infra:       infra,
		Opts:        opts,
		pathServers: map[addr.IA]*pathdb.Server{},
		hosts:       map[string]*Host{},
		svcHandlers: map[addr.IA]func(*dataplane.Packet){},
		pathCache:   map[[2]uint64][]*dataplane.FwdPath{},
	}

	factory := func() core.Factory {
		if opts.Algorithm == Baseline {
			return core.NewBaseline(opts.DisseminationLimit)
		}
		return core.NewDiversity(core.DefaultParams(opts.DisseminationLimit))
	}
	runMode := func(mode beacon.Mode) (*beacon.RunResult, error) {
		cfg := beacon.DefaultRunConfig(topo, mode, factory(), opts.StoreLimit)
		cfg.Duration = opts.BeaconingTime
		cfg.Interval = opts.Interval
		cfg.Lifetime = opts.Lifetime
		cfg.Infra = infra
		cfg.Verify = opts.Verify
		cfg.Workers = opts.Workers
		cfg.Telemetry = opts.Telemetry
		cfg.Tracer = opts.Tracer
		return beacon.Run(cfg)
	}
	if n.coreRun, err = runMode(beacon.CoreMode); err != nil {
		return nil, err
	}
	if n.intraRun, err = runMode(beacon.IntraMode); err != nil {
		return nil, err
	}
	n.clock = &sim.Simulator{}
	n.clock.SetTracer(opts.Tracer)
	n.clock.SetTelemetry(opts.Telemetry)
	if err := n.registerSegments(); err != nil {
		return nil, err
	}

	n.netSim = sim.NewNetwork(n.clock, topo, opts.LinkDelay)
	n.netSim.SetTelemetry(opts.Telemetry)
	n.fabric = dataplane.NewFabric(n.netSim, infra.ForwardingKey)
	n.fabric.SetTelemetry(opts.Telemetry)
	// One delivery demux per AS: service-addressed packets go to the
	// control service (segment requests and replies); everything else
	// fans out to the AS's hosts.
	for _, ia := range topo.IAs() {
		ia := ia
		n.fabric.OnDeliver(ia, func(pkt *dataplane.Packet) { n.dispatch(ia, pkt) })
	}
	return n, nil
}

// dispatch routes a delivered packet inside an AS.
func (n *Network) dispatch(ia addr.IA, pkt *dataplane.Packet) {
	if pkt.Dst.Type == addr.HostService {
		if len(pkt.Payload) > 0 && pkt.Payload[0] == msgSegReply {
			if h := n.svcHandlers[ia]; h != nil {
				h(pkt)
			}
			return
		}
		n.controlService(ia, pkt)
		return
	}
	for _, hh := range n.hosts {
		if hh.Addr.IA == ia && hh.Addr.Equal(pkt.Dst) && hh.recv != nil {
			hh.recv(pkt.Src, pkt.Payload)
		}
	}
}

// terminate converts the beacons stored at an AS into registrable path
// segments, attaching the AS's peer entries so peering shortcuts work.
func (n *Network) terminate(run *beacon.RunResult, origin, at addr.IA) ([]*seg.PCB, error) {
	srv := run.Servers[at]
	if srv == nil {
		return nil, nil
	}
	var peers []seg.PeerEntry
	for _, l := range n.Topo.AS(at).Links {
		if l.Rel == topology.PeerOf {
			peers = append(peers, seg.PeerEntry{
				Peer:    l.Other(at),
				PeerIf:  l.RemoteIf(at),
				LocalIf: l.LocalIf(at),
			})
		}
	}
	var out []*seg.PCB
	for _, e := range srv.Store().Entries(run.End, origin) {
		t, err := e.PCB.Extend(n.Infra.SignerFor(at), addr.IA{}, e.Ingress, 0, peers, 1472)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// registerSegments plays the registration phase: every AS terminates its
// stored beacons; leaf ASes register up-segments locally and down-
// segments at their ISD's core path servers; core ASes register
// core-segments.
func (n *Network) registerSegments() error {
	now := n.intraRun.End
	coresByISD := map[addr.ISD][]addr.IA{}
	for _, c := range n.Topo.CoreIAs() {
		coresByISD[c.ISD] = append(coresByISD[c.ISD], c)
	}
	for _, ia := range n.Topo.IAs() {
		ps := pathdb.NewServer(ia, n.Topo.AS(ia).Core, sim.Time(time.Hour))
		ps.SetTelemetry(n.Opts.Telemetry, n.clock)
		n.pathServers[ia] = ps
	}
	for _, ia := range n.Topo.IAs() {
		if n.Topo.AS(ia).Core {
			// Core segments arrive via core beaconing; register them at
			// the local (core) path server.
			for _, origin := range n.Topo.CoreIAs() {
				if origin == ia {
					continue
				}
				segs, err := n.terminate(n.coreRun, origin, ia)
				if err != nil {
					return err
				}
				for _, s := range segs {
					if err := n.pathServers[ia].RegisterCore(now, s); err != nil {
						return err
					}
				}
			}
			continue
		}
		// Leaf AS: up-segments locally, down-segments at the ISD cores.
		for _, origin := range coresByISD[ia.ISD] {
			segs, err := n.terminate(n.intraRun, origin, ia)
			if err != nil {
				return err
			}
			for _, s := range segs {
				if err := n.pathServers[ia].RegisterUp(now, s); err != nil {
					return err
				}
				for _, c := range coresByISD[ia.ISD] {
					if err := n.pathServers[c].RegisterDown(now, s); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// PathServer exposes an AS's path server (nil for unknown ASes).
func (n *Network) PathServer(ia addr.IA) *pathdb.Server { return n.pathServers[ia] }

// Paths returns authorized forwarding paths from src to dst, performing
// the endpoint's lookups: up-segments from the local path server, core-
// and down-segments from the involved core path servers, combination
// (including shortcuts and peering shortcuts), and hop-field
// authorization. Results are cached per (src, dst).
func (n *Network) Paths(src, dst addr.IA) ([]*dataplane.FwdPath, error) {
	if n.Topo.AS(src) == nil || n.Topo.AS(dst) == nil {
		return nil, fmt.Errorf("scion: unknown AS in %s -> %s", src, dst)
	}
	if src == dst {
		return nil, fmt.Errorf("scion: intra-AS communication needs no SCION path")
	}
	n.expirePathCache()
	key := [2]uint64{src.Uint64(), dst.Uint64()}
	if cached, ok := n.pathCache[key]; ok {
		return cached, nil
	}
	now := n.now()

	ups, cores, downs := n.lookupSegments(now, src, dst)
	cands := n.combineAll(src, dst, ups, cores, downs)
	// Deterministic preference: fewer hops first.
	sort.SliceStable(cands, func(i, j int) bool { return len(cands[i].Hops) < len(cands[j].Hops) })
	var out []*dataplane.FwdPath
	seen := map[string]bool{} // dedup identical interface-level paths
	var hk []byte
	for _, c := range cands {
		hk = hk[:0]
		for _, h := range c.Hops {
			hk = binary.BigEndian.AppendUint64(hk, h.IA.Uint64())
			hk = binary.BigEndian.AppendUint16(hk, uint16(h.In))
			hk = binary.BigEndian.AppendUint16(hk, uint16(h.Out))
		}
		if seen[string(hk)] {
			continue
		}
		if err := c.Check(n.Topo); err != nil {
			continue
		}
		fp, err := dataplane.Authorize(c, n.Infra.ForwardingKey)
		if err != nil {
			continue
		}
		seen[string(hk)] = true
		out = append(out, fp)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("scion: no path from %s to %s", src, dst)
	}
	n.pathCache[key] = out
	return out, nil
}

// now is the control-plane timestamp for path lookups: the bootstrap
// beaconing horizon plus the elapsed data-plane time, so timed
// revocation state ages with the live clock while segment lifetimes
// (hours) remain comfortably valid.
func (n *Network) now() sim.Time { return n.intraRun.End + n.clock.Now() }

// expirePathCache flushes the (src,dst) path cache once any pending
// revocation expiry has passed, making reinstated segments visible.
func (n *Network) expirePathCache() {
	now := n.now()
	i := 0
	for i < len(n.revExpiries) && n.revExpiries[i] <= now {
		i++
	}
	if i > 0 {
		n.revExpiries = append([]sim.Time(nil), n.revExpiries[i:]...)
		n.pathCache = map[[2]uint64][]*dataplane.FwdPath{}
	}
}

// lookupSegments gathers the up/core/down segment sets for a pair,
// handling the cases where either endpoint is itself a core AS.
func (n *Network) lookupSegments(now sim.Time, src, dst addr.IA) (ups, cores, downs []*seg.PCB) {
	srcCore := n.Topo.AS(src).Core
	dstCore := n.Topo.AS(dst).Core

	if !srcCore {
		ups = n.pathServers[src].LookupUp(now)
	}
	if !dstCore {
		// Every core of the ISD holds the same registrations and answers
		// with the same segments. A repeat can only rebuild paths its
		// first occurrence already gave, which Paths would drop as
		// duplicates, so it is dropped here before it multiplies the
		// combinations.
		seen := map[*seg.PCB]bool{}
		for _, c := range n.coresOf(dst.ISD) {
			for _, d := range n.pathServers[c].LookupDown(now, dst) {
				if !seen[d] {
					seen[d] = true
					downs = append(downs, d)
				}
			}
		}
	}
	// Core segments between every (src-side core, dst-side core) pair,
	// looked up at the src-side core path servers. A core endpoint is its
	// own side.
	fromCores := n.coresOf(src.ISD)
	if srcCore {
		fromCores = []addr.IA{src}
	}
	toCores := n.coresOf(dst.ISD)
	if dstCore {
		toCores = []addr.IA{dst}
	}
	for _, fc := range fromCores {
		ps := n.pathServers[fc]
		for _, tc := range toCores {
			if fc == tc {
				continue
			}
			cores = append(cores, ps.LookupCore(now, tc)...)
		}
	}
	return ups, cores, downs
}

// combineAll builds candidate end-to-end paths for every endpoint class:
// leaf-to-leaf uses the full three-segment combination with shortcuts;
// when an endpoint is a core AS, the corresponding up/down part is
// omitted (the path starts or ends at the core).
func (n *Network) combineAll(src, dst addr.IA, ups, cores, downs []*seg.PCB) []*combinator.Path {
	if n.Topo.AS(src).Core || n.Topo.AS(dst).Core {
		return combinator.CorePaths(src, dst, ups, cores, downs)
	}
	return combinator.AllPaths(ups, cores, downs)
}

func (n *Network) coresOf(isd addr.ISD) []addr.IA {
	var out []addr.IA
	for _, c := range n.Topo.CoreIAs() {
		if c.ISD == isd {
			out = append(out, c)
		}
	}
	return out
}

// Run drives the virtual clock until all in-flight data-plane events are
// processed and returns the virtual time.
func (n *Network) Run() time.Duration { return time.Duration(n.clock.Run()) }

// Clock exposes the virtual clock for scheduling traffic.
func (n *Network) Clock() *sim.Simulator { return n.clock }

// Fabric exposes the data-plane fabric (failure injection, stats).
func (n *Network) Fabric() *dataplane.Fabric { return n.fabric }

// FailLink fails the i-th link between a and b (0 = first), returning
// the failed link or an error if none exists. Beacon stores and path
// servers are revoked so fresh lookups avoid the link; endpoints with
// in-flight traffic fail over on SCMP.
func (n *Network) FailLink(a, b addr.IA, i int) (*topology.Link, error) {
	links := n.Topo.LinksBetween(a, b)
	if i < 0 || i >= len(links) {
		return nil, fmt.Errorf("scion: no link %d between %s and %s", i, a, b)
	}
	l := links[i]
	n.fabric.FailLink(l.ID)
	n.NoteLinkDown(l)
	return l, nil
}

// NoteLinkDown propagates a data-plane link failure through the control
// plane without touching the fabric: both directions of the link are
// revoked at every path server (timed when RevocationTTL > 0, permanent
// otherwise) and the endpoint path cache is flushed. FailLink uses it
// after failing the fabric link; chaos hooks use it directly when the
// fault injector already owns the fabric side.
func (n *Network) NoteLinkDown(l *topology.Link) {
	now := n.now()
	ttl := sim.Time(n.Opts.RevocationTTL)
	// Topology order, not map order: revocations emit trace events, and
	// the event stream must be deterministic.
	for _, key := range []seg.LinkKey{{IA: l.A, If: l.AIf}, {IA: l.B, If: l.BIf}} {
		for _, ia := range n.Topo.IAs() {
			// RevokeFor records the revocation instant (the policies'
			// recency feed) and falls back to a permanent Revoke when the
			// TTL is non-positive.
			n.pathServers[ia].RevokeFor(now, key, ttl)
		}
	}
	if ttl > 0 {
		n.noteRevocationExpiry(now + ttl)
	} else {
		// Permanent revocations also empty the beacon stores, the
		// pre-reinstatement behavior.
		n.coreRun.RevokeLink(l)
		n.intraRun.RevokeLink(l)
	}
	n.pathCache = map[[2]uint64][]*dataplane.FwdPath{}
}

// PathRevocationAge reports how long ago the control plane last recorded
// a revocation on any of the given links, as seen from ia's path server
// (negative = never) — the pathdb-backed revocation-recency feed for the
// traffic engine's path-selection policies (traffic.Config.RevocationAge).
func (n *Network) PathRevocationAge(ia addr.IA, links []dataplane.LinkRef) time.Duration {
	ps := n.pathServers[ia]
	if ps == nil {
		return -1
	}
	now := n.now()
	age := time.Duration(-1)
	for _, ref := range links {
		l := ref.Link
		for _, key := range []seg.LinkKey{{IA: l.A, If: l.AIf}, {IA: l.B, If: l.BIf}} {
			if t, ok := ps.LastRevocation(key); ok {
				if a := time.Duration(now - t); age < 0 || a < age {
					age = a
				}
			}
		}
	}
	return age
}

// RestoreLink repairs the i-th link between a and b on the data plane.
// Path servers keep their revocation state until it times out
// (RevocationTTL), after which lookups return the healed paths again —
// the end-to-end reinstatement sequence.
func (n *Network) RestoreLink(a, b addr.IA, i int) (*topology.Link, error) {
	links := n.Topo.LinksBetween(a, b)
	if i < 0 || i >= len(links) {
		return nil, fmt.Errorf("scion: no link %d between %s and %s", i, a, b)
	}
	l := links[i]
	n.fabric.RestoreLink(l.ID)
	return l, nil
}

// noteRevocationExpiry records a pending expiry, keeping the slice
// sorted ascending.
func (n *Network) noteRevocationExpiry(at sim.Time) {
	i := sort.Search(len(n.revExpiries), func(i int) bool { return n.revExpiries[i] >= at })
	if i < len(n.revExpiries) && n.revExpiries[i] == at {
		return
	}
	n.revExpiries = append(n.revExpiries, 0)
	copy(n.revExpiries[i+1:], n.revExpiries[i:])
	n.revExpiries[i] = at
}

// ControlPlaneBytes reports the total beaconing overhead spent during
// bootstrap (core + intra-ISD).
func (n *Network) ControlPlaneBytes() uint64 {
	return n.coreRun.TotalOverheadBytes() + n.intraRun.TotalOverheadBytes()
}
