package beacon

import (
	"fmt"
	"time"

	"scionmpr/internal/addr"
	"scionmpr/internal/core"
	"scionmpr/internal/seg"
	"scionmpr/internal/sim"
	"scionmpr/internal/telemetry"
	"scionmpr/internal/topology"
	"scionmpr/internal/trust"
)

// Mode selects which beaconing level a simulation runs.
type Mode int

const (
	// CoreMode: selective flooding among core ASes over core links.
	CoreMode Mode = iota
	// IntraMode: uni-directional dissemination from core ASes down
	// provider-customer links; non-core ASes attach peer entries.
	IntraMode
)

func (m Mode) String() string {
	if m == CoreMode {
		return "core"
	}
	return "intra-isd"
}

// PCBMsg transports a beacon between ASes.
type PCBMsg struct {
	PCB *seg.PCB
}

// WireLen implements sim.Message with the exact encoded beacon size.
func (m PCBMsg) WireLen() int { return m.PCB.WireLen() }

// serverConfig configures one AS's beacon server.
type serverConfig struct {
	Local       addr.IA
	Topo        *topology.Graph
	Net         *sim.Network
	Signer      trust.Signer
	Verifier    trust.Verifier // nil disables verification (large sims)
	Selector    core.Selector
	StoreLimit  int
	Mode        Mode
	PCBLifetime time.Duration
	MTU         uint16
	// Policy is the AS-local beaconing policy (nil allows everything).
	Policy *Policy
}

// Server is the beacon server of one AS: it receives and stores PCBs and,
// on every beaconing interval, originates (core ASes) and propagates
// beacons according to its selector.
type Server struct {
	cfg   serverConfig
	store *Store
	segID uint16
	// down marks a crashed server: it neither handles incoming PCBs nor
	// originates/propagates until restarted (chaos crash/restart fault).
	down bool
	// Stats
	Originated, Propagated, Received, Rejected uint64
	// DroppedWhileDown counts PCBs that arrived while crashed.
	DroppedWhileDown uint64

	// egress caches the per-neighbor egress link sets. Topology and
	// policy never change during a run (link failures act at the network
	// layer, not on the graph), so this is computed once on first use.
	egress     []neighborLinks
	egressDone bool
	// peers caches the static peering advertisement of peerEntries.
	peers     []seg.PeerEntry
	peersDone bool
	// selCands/selIngress are propagate's per-(origin, neighbor)
	// candidate scratch, reused across ticks to keep the hot path off
	// the allocator. Safe because selectors copy what they keep.
	selCands   []*seg.PCB
	selIngress []addr.IfID
	// interner dedups the identity caches (hop key, link list) of
	// repeated extensions: steady-state beaconing re-extends the same
	// stored paths every interval. Per-server, so parallel shards never
	// share it.
	interner seg.Interner
	// base is the reusable zero-entry origination beacon (extensions copy
	// its Info by value, so re-initializing it in place is safe).
	base *seg.PCB

	// shard is the AS's simulator shard, cached for telemetry cells and
	// trace attribution.
	shard uint32
	// Telemetry cells (nil no-ops when telemetry is disabled). Each cell
	// belongs to this server's shard, so parallel handler execution never
	// shares a cell.
	cReceived, cOriginated, cPropagated, cDroppedDown *telemetry.Cell
	cRejVerify, cRejLoop, cRejPolicy, cRejStore       *telemetry.Cell
}

// newServer creates a beacon server and registers it as the AS's message
// handler on the network.
func newServer(cfg serverConfig) (*Server, error) {
	if cfg.Topo.AS(cfg.Local) == nil {
		return nil, fmt.Errorf("beacon: unknown AS %s", cfg.Local)
	}
	if cfg.MTU == 0 {
		cfg.MTU = 1472
	}
	s := &Server{cfg: cfg, store: NewStore(cfg.StoreLimit)}
	cfg.Net.Register(cfg.Local, s)
	s.shard = cfg.Net.Shard(cfg.Local)
	return s, nil
}

// SetTelemetry resolves the server's per-shard metric cells in reg.
// Call after newServer, before the simulation runs. Metric names carry
// the beaconing mode so core and intra-ISD runs sharing one registry
// stay separable.
func (s *Server) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	mode := s.cfg.Mode.String()
	c := func(name string) *telemetry.Cell {
		return reg.Counter(fmt.Sprintf(`beacon_%s_total{mode=%q}`, name, mode)).Cell(s.shard)
	}
	rej := func(reason string) *telemetry.Cell {
		return reg.Counter(fmt.Sprintf(`beacon_rejected_total{mode=%q,reason=%q}`, mode, reason)).Cell(s.shard)
	}
	s.cReceived = c("received")
	s.cOriginated = c("originated")
	s.cPropagated = c("propagated")
	s.cDroppedDown = c("dropped_down")
	s.cRejVerify = rej("verify")
	s.cRejLoop = rej("loop")
	s.cRejPolicy = rej("policy")
	s.cRejStore = rej("store")
}

// Store exposes the beacon store (read-mostly; experiments extract
// disseminated path sets from it).
func (s *Server) Store() *Store { return s.store }

// IsCore reports whether the server's AS is a core AS.
func (s *Server) IsCore() bool { return s.cfg.Topo.AS(s.cfg.Local).Core }

// SetDown crashes (true) or restarts (false) the server. A crashed
// server is deaf and mute: arriving PCBs are dropped and ticks do
// nothing. Its store survives the crash (persistent state); entries
// simply age out and are repopulated by neighbors after restart.
func (s *Server) SetDown(down bool) { s.down = down }

// Down reports whether the server is crashed.
func (s *Server) Down() bool { return s.down }

// HandleMessage implements sim.Handler: verify (optionally) and store.
func (s *Server) HandleMessage(from addr.IA, link *topology.Link, msg sim.Message) {
	pm, ok := msg.(PCBMsg)
	if !ok {
		return
	}
	// Every reject path below recycles the beacon: this server is the
	// message's only receiver, and a PCB that was never stored left no
	// references behind (see seg.Recycle).
	if s.down {
		s.DroppedWhileDown++
		s.cDroppedDown.Inc()
		s.filtered(from, pm.PCB, "down")
		seg.Recycle(pm.PCB)
		return
	}
	s.Received++
	s.cReceived.Inc()
	now := s.cfg.Net.Sim.Now()
	if s.cfg.Verifier != nil {
		if err := pm.PCB.Verify(s.cfg.Verifier); err != nil {
			s.Rejected++
			s.cRejVerify.Inc()
			s.filtered(from, pm.PCB, "verify")
			seg.Recycle(pm.PCB)
			return
		}
	}
	if pm.PCB.ContainsAS(s.cfg.Local) {
		s.Rejected++ // loop
		s.cRejLoop.Inc()
		s.filtered(from, pm.PCB, "loop")
		seg.Recycle(pm.PCB)
		return
	}
	if !s.cfg.Policy.AcceptsReceive(pm.PCB) {
		s.Rejected++ // policy
		s.cRejPolicy.Inc()
		s.filtered(from, pm.PCB, "policy")
		seg.Recycle(pm.PCB)
		return
	}
	switch s.store.InsertPCB(now, pm.PCB, link.LocalIf(s.cfg.Local)) {
	case Stored, Refreshed:
		// The store took the reference.
	case DupStale:
		seg.Recycle(pm.PCB) // path already represented; not a rejection
	default: // DropExpired, DropWorse
		s.Rejected++
		s.cRejStore.Inc()
		s.filtered(from, pm.PCB, "store")
		seg.Recycle(pm.PCB)
	}
}

// filtered emits the BeaconFiltered trace event. Called from the
// server's own sharded handler, so parallel emissions stage on this
// shard's event frame (see sim.Trace).
func (s *Server) filtered(from addr.IA, p *seg.PCB, reason string) {
	s.cfg.Net.Sim.Trace(s.shard, telemetry.Event{
		Kind:    telemetry.BeaconFiltered,
		Actor:   s.cfg.Local.Uint64(),
		Subject: from.Uint64(),
		Aux:     uint64(p.NumHops()),
		Reason:  reason,
	})
}

// Tick runs one beaconing interval: origination (core ASes) followed by
// propagation of stored beacons.
func (s *Server) Tick(now sim.Time) {
	if s.down {
		return
	}
	if s.IsCore() {
		s.originate(now)
	}
	s.propagate(now)
}

// egressLinks returns, per downstream neighbor, the links beaconing may
// use in the configured mode, in deterministic neighbor order. The
// result is computed once and cached: it depends only on topology,
// mode, and policy, all fixed for the lifetime of a run.
func (s *Server) egressLinks() []neighborLinks {
	if s.egressDone {
		return s.egress
	}
	s.egressDone = true
	local := s.cfg.Local
	byNeighbor := map[addr.IA][]*topology.Link{}
	for _, l := range s.cfg.Topo.AS(local).Links {
		switch s.cfg.Mode {
		case CoreMode:
			if l.Rel != topology.Core {
				continue
			}
		case IntraMode:
			// Only provider-to-customer direction, local as provider.
			if l.Rel != topology.ProviderOf || l.A != local {
				continue
			}
		}
		if !s.cfg.Policy.AllowsEgress(l.LocalIf(local)) {
			continue
		}
		o := l.Other(local)
		byNeighbor[o] = append(byNeighbor[o], l)
	}
	for _, nb := range s.cfg.Topo.Neighbors(local) {
		links := byNeighbor[nb]
		if len(links) == 0 {
			continue
		}
		nl := neighborLinks{
			Neighbor: nb,
			Links:    links,
			IfIDs:    make([]addr.IfID, len(links)),
			ByIf:     make(map[addr.IfID]*topology.Link, len(links)),
		}
		for i, l := range links {
			nl.IfIDs[i] = l.LocalIf(local)
			nl.ByIf[nl.IfIDs[i]] = l
		}
		s.egress = append(s.egress, nl)
	}
	return s.egress
}

type neighborLinks struct {
	Neighbor addr.IA
	Links    []*topology.Link
	// IfIDs[i] is Links[i].LocalIf(local); ByIf resolves a selected
	// egress interface back to its link.
	IfIDs []addr.IfID
	ByIf  map[addr.IfID]*topology.Link
}

// originate creates a fresh beacon per egress link, as core ASes initiate
// PCBs every interval on every (core or customer, depending on mode)
// interface.
func (s *Server) originate(now sim.Time) {
	local := s.cfg.Local
	for _, nl := range s.egressLinks() {
		for _, l := range nl.Links {
			s.segID++
			if s.base == nil {
				s.base = seg.NewPCB(local, s.segID, now, sim.Time(s.cfg.PCBLifetime))
			} else {
				s.base.Reinit(s.segID, now, sim.Time(s.cfg.PCBLifetime))
			}
			ext, err := s.base.ExtendInterned(&s.interner, s.cfg.Signer, nl.Neighbor, 0, l.LocalIf(local), s.peerEntries(), s.cfg.MTU)
			if err != nil {
				continue
			}
			s.cfg.Net.Send(local, l, PCBMsg{PCB: ext})
			s.Originated++
			s.cOriginated.Inc()
			s.cfg.Net.Sim.Trace(s.shard, telemetry.Event{
				Kind:    telemetry.BeaconOriginated,
				Actor:   local.Uint64(),
				Subject: uint64(l.LocalIf(local)),
				Aux:     uint64(s.segID),
			})
		}
	}
}

// propagate runs the selector per (origin, neighbor) pair over the stored
// beacons and disseminates the chosen combinations.
func (s *Server) propagate(now sim.Time) {
	local := s.cfg.Local
	neighbors := s.egressLinks()
	if len(neighbors) == 0 {
		return
	}
	for _, origin := range s.store.Origins() {
		entries := s.store.Entries(now, origin)
		if len(entries) == 0 {
			continue
		}
		for _, nl := range neighbors {
			if origin == nl.Neighbor {
				continue // never send the origin its own beacons back
			}
			// Filter loops through this neighbor into the reused
			// candidate scratch, keeping the ingress association for
			// extension (selIngress[i] belongs to selCands[i]).
			cands := s.selCands[:0]
			ingress := s.selIngress[:0]
			for _, e := range entries {
				if e.PCB.ContainsAS(nl.Neighbor) {
					continue
				}
				cands = append(cands, e.PCB)
				ingress = append(ingress, e.Ingress)
			}
			s.selCands, s.selIngress = cands, ingress
			if len(cands) == 0 {
				continue
			}
			for _, sel := range s.cfg.Selector.Select(now, origin, nl.Neighbor, nl.IfIDs, cands) {
				link := nl.ByIf[sel.Egress]
				if link == nil {
					continue
				}
				var ingressIf addr.IfID
				for i := len(cands) - 1; i >= 0; i-- {
					if cands[i] == sel.PCB {
						ingressIf = ingress[i]
						break
					}
				}
				ext, err := sel.PCB.ExtendInterned(&s.interner, s.cfg.Signer, nl.Neighbor, ingressIf, sel.Egress, s.peerEntries(), s.cfg.MTU)
				if err != nil {
					continue
				}
				s.cfg.Net.Send(local, link, PCBMsg{PCB: ext})
				s.Propagated++
				s.cPropagated.Inc()
				s.cfg.Net.Sim.Trace(s.shard, telemetry.Event{
					Kind:    telemetry.BeaconPropagated,
					Actor:   local.Uint64(),
					Subject: uint64(sel.Egress),
					Aux:     uint64(ext.NumHops()),
				})
			}
		}
	}
}

// peerEntries advertises the AS's peering links inside its AS entries
// (only meaningful in intra-ISD beaconing; core beaconing carries none).
// The result is cached: peering links are static, and Extend shares the
// slice without mutating it (see the PCB immutability contract).
func (s *Server) peerEntries() []seg.PeerEntry {
	if s.cfg.Mode != IntraMode {
		return nil
	}
	if s.peersDone {
		return s.peers
	}
	s.peersDone = true
	local := s.cfg.Local
	for _, l := range s.cfg.Topo.AS(local).Links {
		if l.Rel != topology.PeerOf {
			continue
		}
		s.peers = append(s.peers, seg.PeerEntry{
			Peer:    l.Other(local),
			PeerIf:  l.RemoteIf(local),
			LocalIf: l.LocalIf(local),
		})
	}
	return s.peers
}

// handleLinkFailure reacts to an inter-domain link failure: affected
// beacons are revoked from the store and the selector's per-link state is
// cleared so alternatives are re-disseminated (paper §4.1 path
// revocation, applied at the beacon server). Plane.NewChaos wires it to
// every link the chaos engine fails.
func (s *Server) handleLinkFailure(l *topology.Link) {
	for _, key := range []seg.LinkKey{{IA: l.A, If: l.AIf}, {IA: l.B, If: l.BIf}} {
		s.store.RevokeLink(key)
		if r, ok := s.cfg.Selector.(core.Revoker); ok {
			r.Revoke(key)
		}
	}
}

// Segments returns the disseminated path segments currently available at
// this AS from the given origin, as link sequences resolvable against the
// topology — the observable the Figure 6/7/8 metrics consume. The final
// hop is the arrival link at this AS (already encoded in the sender's AS
// entry), so the stored links describe the complete origin-to-here path.
func (s *Server) Segments(now sim.Time, origin addr.IA) [][]seg.LinkKey {
	var out [][]seg.LinkKey
	for _, e := range s.store.Entries(now, origin) {
		out = append(out, e.PCB.Links())
	}
	return out
}
