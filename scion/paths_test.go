package scion

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"scionmpr/internal/addr"
	"scionmpr/internal/combinator"
	"scionmpr/internal/seg"
)

// isd364 is the benchmark's endpoint_cold network: 400 generated ASes
// carved into a 364-AS single ISD with five cores, bootstrapped with the
// defaults. Tests only read it, so one instance serves them all.
var isd364 struct {
	once sync.Once
	net  *Network
	err  error
}

func isdNet(t testing.TB) *Network {
	t.Helper()
	isd364.once.Do(func() { isd364.net, isd364.err = buildISDNet() })
	if isd364.err != nil {
		t.Fatal(isd364.err)
	}
	return isd364.net
}

// newISDNet builds a private copy of the isd364 network, for a test that
// changes it.
func newISDNet(t *testing.T) *Network {
	t.Helper()
	n, err := buildISDNet()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func buildISDNet() (*Network, error) {
	topo, err := GenerateISDTopology(400, 10, 5, 1)
	if err != nil {
		return nil, err
	}
	return NewNetwork(topo, DefaultOptions())
}

// leafPairs draws k distinct leaf-to-leaf pairs, deterministically.
func leafPairs(n *Network, k int, seed int64) [][2]addr.IA {
	var leaves []addr.IA
	for _, ia := range n.Topo.IAs() {
		if !n.Topo.AS(ia).Core {
			leaves = append(leaves, ia)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	seen := map[[2]addr.IA]bool{}
	var out [][2]addr.IA
	for len(out) < k {
		p := [2]addr.IA{leaves[rng.Intn(len(leaves))], leaves[rng.Intn(len(leaves))]}
		if p[0] != p[1] && !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

// pathsOrderGolden was recorded at the commit before AllPaths became a
// join (PR 18's tree): SHA-256 over every hop (IA, In, Out, MAC) and the
// MTU of every path Paths returns, in returned order, for 50 fixed leaf
// pairs. Policies pick by index, so the order is part of the contract.
const pathsOrderGolden = "61da71482dec5651c77877c1ae53e169d4d83caa036e2f260c041a86fbab00b1"

func TestPathsOrderGolden(t *testing.T) {
	n := isdNet(t)
	h := sha256.New()
	var buf [20]byte
	total := 0
	for _, pr := range leafPairs(n, 50, 1) {
		paths, err := n.Paths(pr[0], pr[1])
		if err != nil {
			t.Fatal(err)
		}
		total += len(paths)
		for _, p := range paths {
			for _, hf := range p.Hops {
				binary.BigEndian.PutUint64(buf[0:8], hf.Hop.IA.Uint64())
				binary.BigEndian.PutUint16(buf[8:10], uint16(hf.Hop.In))
				binary.BigEndian.PutUint16(buf[10:12], uint16(hf.Hop.Out))
				copy(buf[12:18], hf.MAC[:])
				h.Write(buf[:18])
			}
			binary.BigEndian.PutUint16(buf[18:20], p.MTU)
			h.Write(buf[18:20])
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != pathsOrderGolden {
		t.Errorf("paths fingerprint over %d paths = %s, want %s", total, got, pathsOrderGolden)
	}
}

// rawSegments is the lookup an endpoint makes, repeats included: every
// core answers for dst with the same down-segments (lookupSegments drops
// the repeats; the benchmark's decomposed lookup and this do not).
func rawSegments(n *Network, src, dst addr.IA) (ups, cores, downs []*seg.PCB) {
	now := n.now()
	ups = n.PathServer(src).LookupUp(now)
	for _, c := range n.Topo.CoreIAs() {
		downs = append(downs, n.PathServer(c).LookupDown(now, dst)...)
		for _, tc := range n.Topo.CoreIAs() {
			if c != tc {
				cores = append(cores, n.PathServer(c).LookupCore(now, tc)...)
			}
		}
	}
	return ups, cores, downs
}

// containsLoop reports whether an AS appears twice on the path.
func containsLoop(p *combinator.Path) bool {
	seen := map[addr.IA]bool{}
	for _, h := range p.Hops {
		if seen[h.IA] {
			return true
		}
		seen[h.IA] = true
	}
	return false
}

// crossProduct is AllPaths as it was before it became a join: every
// (up, down) pair tries both shortcuts, every core segment and the
// same-core junction, most attempts failing on the junction.
func crossProduct(ups, cores, downs []*seg.PCB) []*combinator.Path {
	var out []*combinator.Path
	add := func(p *combinator.Path, err error) {
		if err == nil && !containsLoop(p) {
			out = append(out, p)
		}
	}
	for _, up := range ups {
		for _, down := range downs {
			add(combinator.Shortcut(up, down))
			add(combinator.PeeringShortcut(up, down))
			for _, c := range cores {
				add(combinator.Combine(up, c, down))
			}
			add(combinator.Combine(up, nil, down))
		}
	}
	return out
}

func TestAllPathsMatchesCrossProduct(t *testing.T) {
	n := isdNet(t)
	total := 0
	for _, pr := range leafPairs(n, 200, 2) {
		ups, cores, downs := rawSegments(n, pr[0], pr[1])
		got := combinator.AllPaths(ups, cores, downs)
		if want := crossProduct(ups, cores, downs); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s -> %s: join gives %d paths, cross product %d (or another order)", pr[0], pr[1], len(got), len(want))
		}
		total += len(got)
	}
	if total < 200*100 {
		t.Errorf("only %d candidate paths over 200 pairs", total)
	}
}

// combineAllLoops is combineAll's old handling of a core AS at one or
// both ends: every core segment tried against every up- or down-segment.
func combineAllLoops(n *Network, src, dst addr.IA, ups, cores, downs []*seg.PCB) []*combinator.Path {
	var cands []*combinator.Path
	add := func(p *combinator.Path, err error) {
		if err == nil && !containsLoop(p) && p.Src() == src && p.Dst() == dst {
			cands = append(cands, p)
		}
	}
	switch srcCore, dstCore := n.Topo.AS(src).Core, n.Topo.AS(dst).Core; {
	case srcCore && dstCore:
		for _, c := range cores {
			add(combinator.Combine(nil, c, nil))
		}
	case srcCore:
		for _, d := range downs {
			add(combinator.Combine(nil, nil, d)) // dst homed at src itself
			for _, c := range cores {
				add(combinator.Combine(nil, c, d))
			}
		}
	case dstCore:
		for _, u := range ups {
			add(combinator.Combine(u, nil, nil)) // src homed at dst itself
			for _, c := range cores {
				add(combinator.Combine(u, c, nil))
			}
		}
	}
	return cands
}

func TestCombineAllCoreEndpoints(t *testing.T) {
	for name, n := range map[string]*Network{"isd364": isdNet(t), "demo": demoNet(t)} {
		cores := n.Topo.CoreIAs()
		var pairs [][2]addr.IA
		for _, c := range cores {
			for _, d := range cores {
				if c != d {
					pairs = append(pairs, [2]addr.IA{c, d})
				}
			}
		}
		for i, ia := range n.Topo.IAs() {
			if !n.Topo.AS(ia).Core && i%3 == 0 {
				c := cores[i%len(cores)]
				pairs = append(pairs, [2]addr.IA{c, ia}, [2]addr.IA{ia, c})
			}
		}
		total := 0
		for _, pr := range pairs {
			ups, cs, downs := n.lookupSegments(n.now(), pr[0], pr[1])
			got := n.combineAll(pr[0], pr[1], ups, cs, downs)
			if want := combineAllLoops(n, pr[0], pr[1], ups, cs, downs); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %s -> %s: join gives %d paths, the loops %d (or another order)", name, pr[0], pr[1], len(got), len(want))
			}
			total += len(got)
		}
		if total < len(pairs) {
			t.Errorf("%s: only %d candidate paths over %d pairs with a core end", name, total, len(pairs))
		}
	}
}

// benchPair is the first pair of the benchmark's endpoint_cold population.
func benchPair(t testing.TB) (ups, cores, downs []*seg.PCB) {
	n := isdNet(t)
	pr := leafPairs(n, 1, 1)[0]
	return rawSegments(n, pr[0], pr[1])
}

// TestAllPathsAllocs: a returned path costs its struct and its hops; the
// rest — segment views, the core index, the scratch and result slices —
// is bounded by the number of segments, not of combinations.
func TestAllPathsAllocs(t *testing.T) {
	ups, cores, downs := benchPair(t)
	paths := len(combinator.AllPaths(ups, cores, downs))
	if paths < 100 {
		t.Fatalf("pair combines to only %d paths", paths)
	}
	allocs := testing.AllocsPerRun(10, func() { combinator.AllPaths(ups, cores, downs) })
	if limit := float64(2*paths + 2*(len(ups)+len(cores)+len(downs)) + 64); allocs > limit {
		t.Errorf("AllPaths: %.0f allocations for %d paths from %d+%d+%d segments, want <= %.0f",
			allocs, paths, len(ups), len(cores), len(downs), limit)
	}
}

var benchSink []*combinator.Path

func BenchmarkAllPaths(b *testing.B) {
	ups, cores, downs := benchPair(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = combinator.AllPaths(ups, cores, downs)
	}
	b.ReportMetric(float64(len(benchSink)), "paths")
}
