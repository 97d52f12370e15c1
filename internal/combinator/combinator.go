// Package combinator builds end-to-end forwarding paths from path
// segments, implementing the combination rules of paper §2.2/§2.3: an
// end-to-end path consists of up to three segments (up, core, down); a
// shortcut omits the core segment by crossing over at a non-core AS
// common to the up- and down-segments; a peering shortcut joins the two
// segments over a peering link advertised in both.
//
// All segments are taken in beaconing direction (origin core AS first)
// and must be terminated: their last AS entry is the leaf with egress 0.
package combinator

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"scionmpr/internal/addr"
	"scionmpr/internal/seg"
	"scionmpr/internal/topology"
)

// Hop is one AS traversal: packets enter through In and leave through
// Out; 0 marks the path end (source's Out on the first hop is always
// non-zero unless the path is intra-AS).
type Hop struct {
	IA  addr.IA
	In  addr.IfID
	Out addr.IfID
}

func (h Hop) String() string { return string(h.appendFormat(nil)) }

// appendFormat appends "isd-as in>out" to b.
func (h Hop) appendFormat(b []byte) []byte {
	b = append(h.IA.AppendFormat(b), ' ')
	b = append(strconv.AppendUint(b, uint64(h.In), 10), '>')
	return strconv.AppendUint(b, uint64(h.Out), 10)
}

// Path is an end-to-end forwarding path at interface granularity.
type Path struct {
	Hops []Hop
	// MTU is the end-to-end path MTU: the minimum of the AS-entry MTUs
	// of every segment used to build the path (0 if unknown).
	MTU uint16
}

// Src returns the first AS, or a zero IA for an empty path.
func (p *Path) Src() addr.IA {
	if len(p.Hops) == 0 {
		return addr.IA{}
	}
	return p.Hops[0].IA
}

// Dst returns the last AS.
func (p *Path) Dst() addr.IA {
	if len(p.Hops) == 0 {
		return addr.IA{}
	}
	return p.Hops[len(p.Hops)-1].IA
}

func (p *Path) String() string {
	var b strings.Builder
	b.Grow(8 + 24*len(p.Hops))
	b.WriteString("path[")
	var hop [40]byte
	for i, h := range p.Hops {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.Write(h.appendFormat(hop[:0]))
	}
	b.WriteByte(']')
	return b.String()
}

// Reverse returns the path in the opposite direction (SCION paths are
// bidirectional; up- and down-segments are interchangeable, §2.2).
func (p *Path) Reverse() *Path {
	out := &Path{Hops: make([]Hop, len(p.Hops)), MTU: p.MTU}
	for i, h := range p.Hops {
		out.Hops[len(p.Hops)-1-i] = Hop{IA: h.IA, In: h.Out, Out: h.In}
	}
	return out
}

// Links returns the traversed inter-domain links keyed by the upstream
// side, for failure analysis.
func (p *Path) Links() []seg.LinkKey {
	var out []seg.LinkKey
	for _, h := range p.Hops {
		if h.Out != 0 {
			out = append(out, seg.LinkKey{IA: h.IA, If: h.Out})
		}
	}
	return out
}

// Check validates the path against a topology: every Out interface must
// attach to a link whose far side is the next hop's AS and In interface.
func (p *Path) Check(topo *topology.Graph) error {
	for i := 0; i+1 < len(p.Hops); i++ {
		cur, next := p.Hops[i], p.Hops[i+1]
		l := topo.LinkByIf(cur.IA, cur.Out)
		if l == nil {
			return fmt.Errorf("combinator: %s has no interface %s", cur.IA, cur.Out)
		}
		if l.Other(cur.IA) != next.IA || l.RemoteIf(cur.IA) != next.In {
			return fmt.Errorf("combinator: hop %d: link %s does not lead to %s#%s", i, l, next.IA, next.In)
		}
	}
	return nil
}

// ContainsLoop reports whether an AS appears twice.
func (p *Path) ContainsLoop() bool { return hasLoop(p.Hops) }

// hasLoop scans instead of hashing: paths are a dozen hops at most, and
// AllPaths asks once per candidate.
func hasLoop(hops []Hop) bool {
	for i := 1; i < len(hops); i++ {
		for j := 0; j < i; j++ {
			if hops[j].IA == hops[i].IA {
				return true
			}
		}
	}
	return false
}

// Errors returned by combination.
var (
	ErrNotTerminated = errors.New("combinator: segment not terminated")
	ErrNoJunction    = errors.New("combinator: segments do not share a junction")
	ErrEmptySegment  = errors.New("combinator: empty segment")
)

// view is what combination needs of one segment, derived once however
// many partners the segment is tried with.
type view struct {
	// err says why the segment cannot be combined: nil or empty, or not
	// terminated (its last AS entry is not a leaf entry with egress 0).
	err error
	s   *seg.PCB
	// fwd are the hops in beaconing direction (origin first): the beacon
	// entered each AS via ConsIngress and left via ConsEgress, which is
	// the data-plane direction core -> leaf. bwd is the same segment
	// leaf first, the direction an up-segment is used.
	fwd, bwd []Hop
	// mtu is the smallest AS-entry MTU (0 if none set).
	mtu uint16
	// peered says some AS entry carries a peer entry.
	peered bool
}

func newView(s *seg.PCB) view {
	if s == nil || s.NumHops() == 0 {
		return view{err: ErrEmptySegment}
	}
	n := len(s.ASEntries)
	if s.ASEntries[n-1].Hop.ConsEgress != 0 {
		return view{err: ErrNotTerminated}
	}
	hops := make([]Hop, 2*n)
	v := view{s: s, fwd: hops[:n:n], bwd: hops[n:]}
	for i := range s.ASEntries {
		e := &s.ASEntries[i]
		v.fwd[i] = Hop{IA: e.Local, In: e.Hop.ConsIngress, Out: e.Hop.ConsEgress}
		v.bwd[n-1-i] = Hop{IA: e.Local, In: e.Hop.ConsEgress, Out: e.Hop.ConsIngress}
		v.mtu = minMTU(v.mtu, e.MTU)
		v.peered = v.peered || len(e.Peers) > 0
	}
	return v
}

// views returns the views of the segments that can be combined, in order.
func views(segs []*seg.PCB) []*view {
	all := make([]view, len(segs))
	out := make([]*view, 0, len(segs))
	for i, s := range segs {
		if all[i] = newView(s); all[i].err == nil {
			out = append(out, &all[i])
		}
	}
	return out
}

func (v *view) origin() addr.IA { return v.fwd[0].IA }
func (v *view) leaf() addr.IA   { return v.bwd[0].IA }

// minMTU combines MTUs, ignoring zeros (unknown).
func minMTU(a, b uint16) uint16 {
	if a == 0 || (b != 0 && b < a) {
		return b
	}
	return a
}

// combine builds in buf, which must be empty (its capacity is reused), the
// hops of src -> core1 -> core2 -> dst from the segments present (nil =
// absent): where two segments meet, the junction AS is the last hop of one
// and the first of the next, and the two half-hops merge.
func combine(buf []Hop, up, core, down *view) ([]Hop, uint16, error) {
	parts := [3]*view{up, core, down}
	for _, v := range parts {
		if v != nil && v.err != nil {
			return nil, 0, v.err
		}
	}
	var mtu uint16
	for i, v := range parts {
		if v == nil {
			continue
		}
		part := v.bwd
		if i == 2 {
			part = v.fwd
		}
		if len(buf) > 0 {
			last := &buf[len(buf)-1]
			if last.IA != part[0].IA {
				return nil, 0, ErrNoJunction
			}
			last.Out = part[0].Out
			part = part[1:]
		}
		buf = append(buf, part...)
		mtu = minMTU(mtu, v.mtu)
	}
	if len(buf) == 0 {
		return nil, 0, ErrEmptySegment
	}
	return buf, mtu, nil
}

// shortcut crosses over at the common AS closest to the endpoints: the
// earliest hop of up (leaf first) that down also has.
func shortcut(buf []Hop, up, down *view) ([]Hop, uint16, error) {
	if err := firstErr(up, down); err != nil {
		return nil, 0, err
	}
	for i, h := range up.bwd {
		for j := range down.fwd {
			if down.fwd[j].IA == h.IA {
				buf = append(buf, up.bwd[:i]...)
				buf = append(buf, Hop{IA: h.IA, In: h.In, Out: down.fwd[j].Out})
				return append(buf, down.fwd[j+1:]...), minMTU(up.mtu, down.mtu), nil
			}
		}
	}
	return nil, 0, ErrNoJunction
}

// peering walks up from the endpoint, so the first peering link that
// both segments advertise gives the shortest detour. Should a segment
// list an AS twice, up's first entry for it counts, down's last, and of
// several entries D holds for U the last.
func peering(buf []Hop, up, down *view) ([]Hop, uint16, error) {
	if err := firstErr(up, down); err != nil {
		return nil, 0, err
	}
	if !up.peered || !down.peered {
		return nil, 0, ErrNoJunction
	}
	for i, h := range up.bwd {
		ue := 0
		for up.s.ASEntries[ue].Local != h.IA {
			ue++
		}
		for _, pe := range up.s.ASEntries[ue].Peers {
			j := len(down.fwd) - 1
			for j >= 0 && down.fwd[j].IA != pe.Peer {
				j--
			}
			if j < 0 {
				continue
			}
			// The same physical link: U's local interface must be the
			// far side of D's entry and vice versa.
			dp := down.s.ASEntries[j].Peers
			k := len(dp) - 1
			for k >= 0 && dp[k].Peer != h.IA {
				k--
			}
			if k < 0 || dp[k].PeerIf != pe.LocalIf || dp[k].LocalIf != pe.PeerIf {
				continue
			}
			buf = append(buf, up.bwd[:i]...)
			buf = append(buf, Hop{IA: h.IA, In: h.In, Out: pe.LocalIf}, Hop{IA: pe.Peer, In: pe.PeerIf, Out: down.fwd[j].Out})
			return append(buf, down.fwd[j+1:]...), minMTU(up.mtu, down.mtu), nil
		}
	}
	return nil, 0, ErrNoJunction
}

func firstErr(up, down *view) error {
	if up.err != nil {
		return up.err
	}
	return down.err
}

func newPath(hops []Hop, mtu uint16, err error) (*Path, error) {
	if err != nil {
		return nil, err
	}
	return &Path{Hops: hops, MTU: mtu}, nil
}

// viewOrNil keeps Combine's "nil = segment absent".
func viewOrNil(s *seg.PCB) *view {
	if s == nil {
		return nil
	}
	v := newView(s)
	return &v
}

// Combine builds the full three-segment path src -> core1 -> core2 -> dst
// from a terminated up-segment (origin core1, leaf src), core-segment
// (origin core2, leaf core1), and down-segment (origin core2, leaf dst).
// Either up or down may be nil when the corresponding endpoint is itself
// a core AS; core may be nil when both ISD cores coincide.
func Combine(up, core, down *seg.PCB) (*Path, error) {
	return newPath(combine(nil, viewOrNil(up), viewOrNil(core), viewOrNil(down)))
}

// Shortcut builds a path that crosses over at a non-core AS common to the
// up- and down-segment, avoiding the core (paper §2.2). The crossover is
// the common AS closest to the endpoints (deepest in both segments).
func Shortcut(up, down *seg.PCB) (*Path, error) {
	u, d := newView(up), newView(down)
	return newPath(shortcut(nil, &u, &d))
}

// PeeringShortcut joins the up- and down-segment over a peering link that
// both advertise: an AS U on the up-segment carries a peer entry to an AS
// D on the down-segment, and D carries the mirrored entry (valley-free
// peering requires the same link in both segments, paper §2.2).
func PeeringShortcut(up, down *seg.PCB) (*Path, error) {
	u, d := newView(up), newView(down)
	return newPath(peering(nil, &u, &d))
}

// joiner combines the segment sets of one endpoint pair. Core segments
// are bucketed by the junctions they connect, so an (up, down) pair
// splices only the core segments that fit it, in their original order.
// Nil, empty and unterminated segments are left out.
type joiner struct {
	ups, downs []*view
	cores      map[[2]addr.IA][]*view // by (leaf, origin)
	buf        []Hop                  // candidate under construction
	out        []*Path
}

func newJoiner(ups, cores, downs []*seg.PCB) *joiner {
	j := &joiner{ups: views(ups), downs: views(downs), cores: map[[2]addr.IA][]*view{}}
	for _, c := range views(cores) {
		k := [2]addr.IA{c.leaf(), c.origin()}
		j.cores[k] = append(j.cores[k], c)
	}
	return j
}

// add keeps a candidate that was built without error and has no loop.
func (j *joiner) add(hops []Hop, mtu uint16, err error) {
	if err != nil {
		return
	}
	if !hasLoop(hops) {
		j.out = append(j.out, &Path{Hops: append([]Hop(nil), hops...), MTU: mtu})
	}
	j.buf = hops[:0]
}

// AllPaths combines every compatible (up, core, down) triple plus all
// shortcuts into the candidate path set an endpoint can choose from,
// dropping looping paths. The order is part of the contract (callers
// sort stably and policies pick by index): ups outermost, then downs,
// and per pair shortcut, peering shortcut, the fitting core segments in
// the order given, and last the same-core junction without a core
// segment. Nil, empty and unterminated segments are skipped.
func AllPaths(ups, cores, downs []*seg.PCB) []*Path {
	j := newJoiner(ups, cores, downs)
	for _, up := range j.ups {
		for _, down := range j.downs {
			j.add(shortcut(j.buf, up, down))
			j.add(peering(j.buf, up, down))
			for _, c := range j.cores[[2]addr.IA{up.origin(), down.origin()}] {
				j.add(combine(j.buf, up, c, down))
			}
			if up.origin() == down.origin() {
				j.add(combine(j.buf, up, nil, down))
			}
		}
	}
	return j.out
}

// CorePaths is AllPaths for a pair with a core AS at one or both ends,
// which has no segment of its own on that side: the caller passes no ups
// when src is the junction the core segments must end at, and no downs
// when dst is the one they must start from. With both given no end is a
// core AS and the answer is nil (that pair is AllPaths'). Shortcuts need
// both an up- and a down-segment and do not apply. Per up- or
// down-segment the direct junction comes first, then the fitting core
// segments in the order given; paths that loop or do not run from src to
// dst are dropped.
func CorePaths(src, dst addr.IA, ups, cores, downs []*seg.PCB) []*Path {
	if len(ups) > 0 && len(downs) > 0 {
		return nil
	}
	j := newJoiner(ups, cores, downs)
	if len(ups) == 0 {
		j.ups = []*view{nil}
	}
	if len(downs) == 0 {
		j.downs = []*view{nil}
	}
	for _, up := range j.ups {
		for _, down := range j.downs {
			from, to := src, dst
			if up != nil {
				from = up.origin()
			}
			if down != nil {
				to = down.origin()
			}
			if from == to {
				j.add(combine(j.buf, up, nil, down))
			}
			for _, c := range j.cores[[2]addr.IA{from, to}] {
				j.add(combine(j.buf, up, c, down))
			}
		}
	}
	var out []*Path
	for _, p := range j.out {
		if p.Src() == src && p.Dst() == dst {
			out = append(out, p)
		}
	}
	return out
}
