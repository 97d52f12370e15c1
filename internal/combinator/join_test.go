package combinator

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"scionmpr/internal/addr"
	"scionmpr/internal/seg"
	"scionmpr/internal/topology"
)

// The differential tests draw segments over the demo topology's ASes so
// that the fixtures of combinator_test.go can seed the fuzz corpus, with
// interfaces and MTUs from small tables so that junctions, common ASes,
// loops and mirrored peer entries all happen often.
var (
	pool = topology.Demo().IAs()
	mtus = [4]uint16{0, 1200, 1472, 9000}
)

// peerIf is the interface AS x uses on its (imagined) peering link to y;
// entries built from it mirror each other the way real ones do.
func peerIf(x, y addr.IA) addr.IfID { return addr.IfID(1 + (3*x.AS+y.AS)%5) }

// randomSegment draws a segment of at most six ASes whose origin is one of
// the first three pool ASes; one in four is nil, empty or unterminated.
func randomSegment(r *rand.Rand, leaves []addr.IA) *seg.PCB {
	kind := r.Intn(16)
	if kind == 0 {
		return nil
	}
	s := &seg.PCB{}
	if kind == 1 {
		return s
	}
	n := 1 + r.Intn(6)
	for i := 0; i < n; i++ {
		e := seg.ASEntry{Local: pool[r.Intn(8)], MTU: mtus[r.Intn(len(mtus))]}
		if i == 0 {
			e.Local = pool[r.Intn(3)]
		} else {
			e.Hop.ConsIngress = addr.IfID(1 + r.Intn(3))
		}
		if i == n-1 && r.Intn(2) == 0 {
			e.Local = leaves[r.Intn(len(leaves))]
		}
		if i < n-1 {
			e.Hop.ConsEgress = addr.IfID(1 + r.Intn(3))
		} else if kind <= 3 {
			e.Hop.ConsEgress = 7 // not terminated
		}
		for k := r.Intn(3); k > 0; k-- {
			p := pool[r.Intn(8)]
			pe := seg.PeerEntry{Peer: p, LocalIf: peerIf(e.Local, p), PeerIf: peerIf(p, e.Local)}
			if r.Intn(8) == 0 {
				pe.LocalIf++ // a link only one side advertises
			}
			e.Peers = append(e.Peers, pe)
		}
		s.ASEntries = append(s.ASEntries, e)
	}
	return s
}

// randomSet draws up to max segments; some entries repeat an earlier
// pointer, as a lookup that asks several servers returns them.
func randomSet(r *rand.Rand, max int, leaves []addr.IA) []*seg.PCB {
	var out []*seg.PCB
	for i := r.Intn(max + 1); i > 0; i-- {
		if len(out) > 0 && r.Intn(8) == 0 {
			out = append(out, out[r.Intn(len(out))])
		} else {
			out = append(out, randomSegment(r, leaves))
		}
	}
	return out
}

// randomSets draws the three sets of one pair. Core segments end at the
// ASes up- and down-segments start from; cores is empty one time in six.
func randomSets(r *rand.Rand) (ups, cores, downs []*seg.PCB) {
	return randomSet(r, 5, pool[3:8]), randomSet(r, 5, pool[:3]), randomSet(r, 5, pool[3:8])
}

func comparePaths(t *testing.T, what string, got, want []*Path) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: join gives %d paths, cross product %d:\n got  %v\n want %v", what, len(got), len(want), got, want)
	}
}

// compareOne checks one of the three exported rules against its old
// implementation: same path, or the same sentinel error.
func compareOne(t *testing.T, what string, got *Path, gotErr error, want *Path, wantErr error) bool {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || !errors.Is(wantErr, gotErr) || !reflect.DeepEqual(got, want) {
		t.Fatalf("%s = %v, %v; want %v, %v", what, got, gotErr, want, wantErr)
	}
	return gotErr == nil
}

func TestAllPathsMatchesCrossProduct(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var paths, shortcuts, peerings, threeSeg, emptyCores int
	for i := 0; i < 3000; i++ {
		ups, cores, downs := randomSets(r)
		got := AllPaths(ups, cores, downs)
		comparePaths(t, "AllPaths", got, refAllPaths(ups, cores, downs))
		paths += len(got)
		if len(cores) == 0 && len(got) > 0 {
			emptyCores++
		}
		for _, u := range ups {
			for _, d := range downs {
				p, err := Shortcut(u, d)
				w, werr := refShortcut(u, d)
				if compareOne(t, "Shortcut", p, err, w, werr) {
					shortcuts++
				}
				p, err = PeeringShortcut(u, d)
				w, werr = refPeeringShortcut(u, d)
				if compareOne(t, "PeeringShortcut", p, err, w, werr) {
					peerings++
				}
				for _, c := range append([]*seg.PCB{nil}, cores...) {
					p, err = Combine(u, c, d)
					w, werr = refCombine(u, c, d)
					if compareOne(t, "Combine", p, err, w, werr) && u != nil && c != nil && d != nil {
						threeSeg++
					}
				}
			}
		}
	}
	// The draw must exercise every rule, or equality above says little.
	if paths < 3000 || shortcuts < 300 || peerings < 300 || threeSeg < 300 || emptyCores < 30 {
		t.Errorf("draw too thin: %d paths, %d shortcuts, %d peering shortcuts, %d three-segment paths, %d non-empty results without cores",
			paths, shortcuts, peerings, threeSeg, emptyCores)
	}
}

// refCorePaths is scion.combineAll's old handling of a pair with a core
// AS at one or both ends: every core segment tried against every
// up- or down-segment, most attempts failing on the junction.
func refCorePaths(src, dst addr.IA, ups, cores, downs []*seg.PCB) []*Path {
	var out []*Path
	add := func(p *Path, err error) {
		if err == nil && !refContainsLoop(p) && p.Src() == src && p.Dst() == dst {
			out = append(out, p)
		}
	}
	try := func(u, d *seg.PCB) {
		add(refCombine(u, nil, d))
		for _, c := range cores {
			if c != nil {
				add(refCombine(u, c, d))
			}
		}
	}
	switch {
	case len(ups) == 0 && len(downs) == 0:
		try(nil, nil)
	case len(ups) == 0:
		for _, d := range downs {
			if d != nil {
				try(nil, d)
			}
		}
	case len(downs) == 0:
		for _, u := range ups {
			if u != nil {
				try(u, nil)
			}
		}
	}
	return out
}

func TestCorePathsMatchesLoops(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	found := [3]int{}
	for i := 0; i < 6000; i++ {
		ups, cores, downs := randomSets(r)
		src, dst := pool[3+r.Intn(5)], pool[3+r.Intn(5)]
		side := i % 3 // both ends core, src core, dst core
		if side <= 1 {
			ups, src = nil, pool[r.Intn(3)]
		}
		if side != 1 {
			downs, dst = nil, pool[r.Intn(3)]
		}
		got := CorePaths(src, dst, ups, cores, downs)
		comparePaths(t, "CorePaths", got, refCorePaths(src, dst, ups, cores, downs))
		found[side] += len(got)
	}
	for side, n := range found {
		if n < 50 {
			t.Errorf("draw too thin: case %d found %d paths", side, n)
		}
	}
}

// With an up- and a down-segment neither end is a core AS: that pair
// belongs to AllPaths, and CorePaths must not answer with half of it.
func TestCorePathsNeedsACoreEnd(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		ups, cores, downs := randomSets(r)
		if len(ups) == 0 || len(downs) == 0 {
			continue
		}
		src, dst := pool[3+r.Intn(5)], pool[3+r.Intn(5)]
		if got := CorePaths(src, dst, ups, cores, downs); got != nil {
			t.Fatalf("CorePaths with %d ups and %d downs returned %d paths, want nil", len(ups), len(downs), len(got))
		}
		comparePaths(t, "CorePaths", nil, refCorePaths(src, dst, ups, cores, downs))
	}
}

// Fuzz input: for each of ups, cores, downs a count (mod 7), then per
// entry a tag — 0 nil, 1 a repeat of an earlier entry, else a segment: its
// length (mod 7, 0 = empty) and per AS the pool index, both interfaces
// (the last egress is 0 unless its byte is 7 mod 8), the MTU index, and
// up to two peer entries (pool index, peer interface, local interface).
// Missing bytes read as 0.
type fuzzBytes struct{ b []byte }

func (f *fuzzBytes) next() byte {
	if len(f.b) == 0 {
		return 0
	}
	v := f.b[0]
	f.b = f.b[1:]
	return v
}

func decodeSets(data []byte) (sets [3][]*seg.PCB) {
	f := &fuzzBytes{data}
	for si := range sets {
		for i := int(f.next() % 7); i > 0; i-- {
			var s *seg.PCB
			switch tag := f.next() % 8; {
			case tag == 0:
			case tag == 1:
				if k := int(f.next()); len(sets[si]) > 0 {
					s = sets[si][k%len(sets[si])]
				}
			default:
				s = &seg.PCB{}
				n := int(f.next() % 7)
				for j := 0; j < n; j++ {
					e := seg.ASEntry{Local: pool[int(f.next())%len(pool)]}
					e.Hop.ConsIngress = addr.IfID(f.next())
					e.Hop.ConsEgress = addr.IfID(f.next())
					if j == n-1 && e.Hop.ConsEgress%8 != 7 {
						e.Hop.ConsEgress = 0
					}
					e.MTU = mtus[f.next()%4]
					for k := f.next() % 3; k > 0; k-- {
						e.Peers = append(e.Peers, seg.PeerEntry{Peer: pool[int(f.next())%len(pool)], PeerIf: addr.IfID(f.next()), LocalIf: addr.IfID(f.next())})
					}
					s.ASEntries = append(s.ASEntries, e)
				}
			}
			sets[si] = append(sets[si], s)
		}
	}
	return sets
}

// encodeSets is decodeSets' inverse for sets it can express (at most six
// segments a set, six ASes a segment, two peer entries an AS, pool ASes,
// table MTUs, one-byte interfaces).
func encodeSets(sets [3][]*seg.PCB) []byte {
	index := func(ia addr.IA) byte {
		for i, p := range pool {
			if p == ia {
				return byte(i)
			}
		}
		panic("AS not in pool")
	}
	var b []byte
	for _, set := range sets {
		b = append(b, byte(len(set)))
	next:
		for i, s := range set {
			if s == nil {
				b = append(b, 0)
				continue
			}
			for k := 0; k < i; k++ {
				if set[k] == s {
					b = append(b, 1, byte(k))
					continue next
				}
			}
			b = append(b, 2, byte(len(s.ASEntries)))
			for j, e := range s.ASEntries {
				eg := byte(e.Hop.ConsEgress)
				if j == len(s.ASEntries)-1 && eg != 0 {
					eg = 7
				}
				mtu := 0
				for mtus[mtu] != e.MTU {
					mtu++
				}
				b = append(b, index(e.Local), byte(e.Hop.ConsIngress), eg, byte(mtu), byte(len(e.Peers)))
				for _, pe := range e.Peers {
					b = append(b, index(pe.Peer), byte(pe.PeerIf), byte(pe.LocalIf))
				}
			}
		}
	}
	return b
}

func FuzzAllPaths(f *testing.F) {
	// The fixtures of combinator_test.go: three segments across ISDs, a
	// shortcut below the shared core, the peering link A-5 -- B-4.
	fx := newFixture(f)
	for _, s := range [][3][]*seg.PCB{
		{fx.terminated(f, fx.intraRun, b2, b3), fx.terminated(f, fx.coreRun, a2, b2), fx.terminated(f, fx.intraRun, a2, a6)},
		{fx.terminated(f, fx.intraRun, a2, a6), nil, fx.terminated(f, fx.intraRun, a2, a5)},
		{fx.terminated(f, fx.intraRun, a1, a6), fx.terminated(f, fx.coreRun, b2, a1), fx.terminated(f, fx.intraRun, b2, b5)},
	} {
		for i := range s {
			if len(s[i]) > 6 {
				s[i] = s[i][:6]
			}
		}
		seed := encodeSets(s)
		if d := decodeSets(seed); len(AllPaths(d[0], d[1], d[2])) == 0 {
			f.Fatal("fixture seed combines to nothing")
		}
		f.Add(seed)
	}
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 8; i++ {
		ups, cores, downs := randomSets(r)
		f.Add(encodeSets([3][]*seg.PCB{ups, cores, downs}))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s := decodeSets(data)
		got := AllPaths(s[0], s[1], s[2])
		comparePaths(t, "AllPaths", got, refAllPaths(s[0], s[1], s[2]))
		leaves := func(set []*seg.PCB) map[addr.IA]bool {
			m := map[addr.IA]bool{}
			for _, p := range set {
				if refTerminated(p) == nil {
					m[p.ASEntries[len(p.ASEntries)-1].Local] = true
				}
			}
			return m
		}
		srcs, dsts := leaves(s[0]), leaves(s[2])
		for _, p := range got {
			if refContainsLoop(p) || !srcs[p.Src()] || !dsts[p.Dst()] {
				t.Fatalf("path %v: loop, or ends that are no segment's leaf", p)
			}
		}
	})
}

// TestFuzzCodecRoundTrip keeps the seeds honest: what encodeSets writes,
// decodeSets reads back.
func TestFuzzCodecRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		ups, cores, downs := randomSets(r)
		want := [3][]*seg.PCB{ups, cores, downs}
		if got := decodeSets(encodeSets(want)); !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip %d changed the sets", i)
		}
	}
}
