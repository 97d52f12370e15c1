package combinator

import (
	"fmt"

	"scionmpr/internal/addr"
	"scionmpr/internal/seg"
)

// The combination rules as they were before AllPaths became a join: one
// attempt per (up, core, down) triple, hop slices and index maps rebuilt
// for each. Kept verbatim as the oracle the join is compared against;
// the only additions are the nil guards the old code lacked.

// terminated checks the segment ends with a leaf entry (egress 0).
func refTerminated(s *seg.PCB) error {
	if s == nil || s.NumHops() == 0 {
		return ErrEmptySegment
	}
	if s.ASEntries[s.NumHops()-1].Hop.ConsEgress != 0 {
		return ErrNotTerminated
	}
	return nil
}

// segMTU returns the smallest AS-entry MTU of the segment (0 if none set).
func refSegMTU(s *seg.PCB) uint16 {
	var m uint16
	for i := range s.ASEntries {
		v := s.ASEntries[i].MTU
		if v == 0 {
			continue
		}
		if m == 0 || v < m {
			m = v
		}
	}
	return m
}

// minMTU combines segment MTUs, ignoring zeros.
func refMinMTU(vals ...uint16) uint16 {
	var m uint16
	for _, v := range vals {
		if v == 0 {
			continue
		}
		if m == 0 || v < m {
			m = v
		}
	}
	return m
}

// forward converts a terminated segment into hops in beaconing direction
// (origin first): the beacon entered each AS via ConsIngress and left via
// ConsEgress, which is exactly the data-plane direction core -> leaf.
func refForward(s *seg.PCB) []Hop {
	hops := make([]Hop, s.NumHops())
	for i := range s.ASEntries {
		e := &s.ASEntries[i]
		hops[i] = Hop{IA: e.Local, In: e.Hop.ConsIngress, Out: e.Hop.ConsEgress}
	}
	return hops
}

// backward converts a terminated segment into hops against beaconing
// direction (leaf first), the direction an up-segment is used.
func refBackward(s *seg.PCB) []Hop {
	f := refForward(s)
	out := make([]Hop, len(f))
	for i, h := range f {
		out[len(f)-1-i] = Hop{IA: h.IA, In: h.Out, Out: h.In}
	}
	return out
}

// joinAdjacent concatenates hop lists where the junction AS appears as
// the last hop of a and the first hop of b; the two half-hops merge.
func refJoinAdjacent(a, b []Hop) ([]Hop, error) {
	if len(a) == 0 || len(b) == 0 {
		return nil, ErrEmptySegment
	}
	last, first := a[len(a)-1], b[0]
	if last.IA != first.IA {
		return nil, fmt.Errorf("%w: %s vs %s", ErrNoJunction, last.IA, first.IA)
	}
	merged := Hop{IA: last.IA, In: last.In, Out: first.Out}
	out := make([]Hop, 0, len(a)+len(b)-1)
	out = append(out, a[:len(a)-1]...)
	out = append(out, merged)
	out = append(out, b[1:]...)
	return out, nil
}

// Combine builds the full three-segment path src -> core1 -> core2 -> dst
// from a terminated up-segment (origin core1, leaf src), core-segment
// (origin core2, leaf core1), and down-segment (origin core2, leaf dst).
// Either up or down may be nil when the corresponding endpoint is itself
// a core AS; core may be nil when both ISD cores coincide.
func refCombine(up, core, down *seg.PCB) (*Path, error) {
	var parts [][]Hop
	if up != nil {
		if err := refTerminated(up); err != nil {
			return nil, fmt.Errorf("up: %w", err)
		}
		parts = append(parts, refBackward(up))
	}
	if core != nil {
		if err := refTerminated(core); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		parts = append(parts, refBackward(core))
	}
	if down != nil {
		if err := refTerminated(down); err != nil {
			return nil, fmt.Errorf("down: %w", err)
		}
		parts = append(parts, refForward(down))
	}
	if len(parts) == 0 {
		return nil, ErrEmptySegment
	}
	hops := parts[0]
	for _, p := range parts[1:] {
		var err error
		hops, err = refJoinAdjacent(hops, p)
		if err != nil {
			return nil, err
		}
	}
	var mtus []uint16
	for _, s := range []*seg.PCB{up, core, down} {
		if s != nil {
			mtus = append(mtus, refSegMTU(s))
		}
	}
	return &Path{Hops: hops, MTU: refMinMTU(mtus...)}, nil
}

// Shortcut builds a path that crosses over at a non-core AS common to the
// up- and down-segment, avoiding the core (paper §2.2). The crossover is
// the common AS closest to the endpoints (deepest in both segments).
func refShortcut(up, down *seg.PCB) (*Path, error) {
	if err := refTerminated(up); err != nil {
		return nil, fmt.Errorf("up: %w", err)
	}
	if err := refTerminated(down); err != nil {
		return nil, fmt.Errorf("down: %w", err)
	}
	upHops := refBackward(up)    // src ... core1
	downHops := refForward(down) // core2 ... dst
	// Find the crossover: the earliest hop in upHops (deepest AS) that
	// also appears in downHops.
	downIdx := map[addr.IA]int{}
	for i, h := range downHops {
		if _, ok := downIdx[h.IA]; !ok {
			downIdx[h.IA] = i
		}
	}
	for i, h := range upHops {
		j, ok := downIdx[h.IA]
		if !ok {
			continue
		}
		cross := Hop{IA: h.IA, In: h.In, Out: downHops[j].Out}
		hops := make([]Hop, 0, i+len(downHops)-j)
		hops = append(hops, upHops[:i]...)
		hops = append(hops, cross)
		hops = append(hops, downHops[j+1:]...)
		return &Path{Hops: hops, MTU: refMinMTU(refSegMTU(up), refSegMTU(down))}, nil
	}
	return nil, ErrNoJunction
}

// PeeringShortcut joins the up- and down-segment over a peering link that
// both advertise: an AS U on the up-segment carries a peer entry to an AS
// D on the down-segment, and D carries the mirrored entry (valley-free
// peering requires the same link in both segments, paper §2.2).
func refPeeringShortcut(up, down *seg.PCB) (*Path, error) {
	if err := refTerminated(up); err != nil {
		return nil, fmt.Errorf("up: %w", err)
	}
	if err := refTerminated(down); err != nil {
		return nil, fmt.Errorf("down: %w", err)
	}
	upHops := refBackward(up)
	downHops := refForward(down)

	// Index down-segment peer entries: AS -> peer -> (localIf, peerIf).
	type peerIf struct{ local, remote addr.IfID }
	downPeers := map[addr.IA]map[addr.IA]peerIf{}
	downPos := map[addr.IA]int{}
	for i, h := range downHops {
		downPos[h.IA] = i
	}
	for i := range down.ASEntries {
		e := &down.ASEntries[i]
		m := map[addr.IA]peerIf{}
		for _, pe := range e.Peers {
			m[pe.Peer] = peerIf{local: pe.LocalIf, remote: pe.PeerIf}
		}
		downPeers[e.Local] = m
	}

	// Walk the up-segment from the endpoint: the first matching peering
	// link gives the shortest detour.
	for i := range upHops {
		u := upHops[i].IA
		var uEntry *seg.ASEntry
		for j := range up.ASEntries {
			if up.ASEntries[j].Local == u {
				uEntry = &up.ASEntries[j]
				break
			}
		}
		if uEntry == nil {
			continue
		}
		for _, pe := range uEntry.Peers {
			dm, onDown := downPeers[pe.Peer]
			if !onDown {
				continue
			}
			mirror, ok := dm[u]
			if !ok {
				continue
			}
			// The same physical link: U's local interface must be the
			// far side of D's entry and vice versa.
			if mirror.remote != pe.LocalIf || mirror.local != pe.PeerIf {
				continue
			}
			j := downPos[pe.Peer]
			crossU := Hop{IA: u, In: upHops[i].In, Out: pe.LocalIf}
			crossD := Hop{IA: pe.Peer, In: pe.PeerIf, Out: downHops[j].Out}
			hops := make([]Hop, 0, i+2+len(downHops)-j)
			hops = append(hops, upHops[:i]...)
			hops = append(hops, crossU, crossD)
			hops = append(hops, downHops[j+1:]...)
			return &Path{Hops: hops, MTU: refMinMTU(refSegMTU(up), refSegMTU(down))}, nil
		}
	}
	return nil, ErrNoJunction
}

// refContainsLoop reports whether an AS appears twice.
func refContainsLoop(p *Path) bool {
	seen := map[addr.IA]bool{}
	for _, h := range p.Hops {
		if seen[h.IA] {
			return true
		}
		seen[h.IA] = true
	}
	return false
}

// refAllPaths is the cross product: every (up, down) pair tries both
// shortcuts, every core segment and the same-core junction. A nil entry
// is skipped (to Combine it would mean "segment absent").
func refAllPaths(ups, cores, downs []*seg.PCB) []*Path {
	var out []*Path
	add := func(p *Path, err error) {
		if err == nil && !refContainsLoop(p) {
			out = append(out, p)
		}
	}
	for _, up := range ups {
		for _, down := range downs {
			if up == nil || down == nil {
				continue
			}
			add(refShortcut(up, down))
			add(refPeeringShortcut(up, down))
			for _, c := range cores {
				if c != nil {
					add(refCombine(up, c, down))
				}
			}
			// Same-core junction without a core segment.
			add(refCombine(up, nil, down))
		}
	}
	return out
}
