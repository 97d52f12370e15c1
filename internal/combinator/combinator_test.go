package combinator

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"scionmpr/internal/addr"
	"scionmpr/internal/beacon"
	"scionmpr/internal/core"
	"scionmpr/internal/seg"
	"scionmpr/internal/topology"
	"scionmpr/internal/trust"
)

// fixture runs core and intra-ISD beaconing on the Figure 1 demo topology
// and exposes terminated segments, mirroring how the control plane feeds
// the path servers.
type fixture struct {
	topo     *topology.Graph
	infra    *trust.Infra
	coreRun  *beacon.RunResult
	intraRun *beacon.RunResult
}

var (
	a1 = addr.MustIA(1, 0xff00_0000_0101)
	a2 = addr.MustIA(1, 0xff00_0000_0102)
	a4 = addr.MustIA(1, 0xff00_0000_0104)
	a5 = addr.MustIA(1, 0xff00_0000_0105)
	a6 = addr.MustIA(1, 0xff00_0000_0106)
	b2 = addr.MustIA(2, 0xff00_0000_0202)
	b3 = addr.MustIA(2, 0xff00_0000_0203)
	b4 = addr.MustIA(2, 0xff00_0000_0204)
	b5 = addr.MustIA(2, 0xff00_0000_0205)
)

func newFixture(t testing.TB) *fixture {
	t.Helper()
	topo := topology.Demo()
	infra, err := trust.NewInfra(topo, trust.Sized)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(mode beacon.Mode) *beacon.RunResult {
		cfg := beacon.DefaultRunConfig(topo, mode, core.NewBaseline(5), 20)
		cfg.Duration = time.Hour
		cfg.Infra = infra
		res, err := beacon.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	return &fixture{topo: topo, infra: infra, coreRun: mk(beacon.CoreMode), intraRun: mk(beacon.IntraMode)}
}

// terminated returns the stored segments from origin at dst, terminated
// with dst's AS entry (including dst's peer entries so that peering
// shortcuts can be built).
func (f *fixture) terminated(t testing.TB, run *beacon.RunResult, origin, dst addr.IA) []*seg.PCB {
	t.Helper()
	srv := run.Servers[dst]
	var out []*seg.PCB
	var peers []seg.PeerEntry
	for _, l := range f.topo.AS(dst).Links {
		if l.Rel == topology.PeerOf {
			peers = append(peers, seg.PeerEntry{
				Peer:    l.Other(dst),
				PeerIf:  l.RemoteIf(dst),
				LocalIf: l.LocalIf(dst),
			})
		}
	}
	for _, e := range srv.Store().Entries(run.End, origin) {
		term, err := e.PCB.Extend(f.infra.SignerFor(dst), addr.IA{}, e.Ingress, 0, peers, 1472)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, term)
	}
	return out
}

func TestCombineThreeSegments(t *testing.T) {
	f := newFixture(t)
	ups := f.terminated(t, f.intraRun, b2, b3)   // up: B-2 -> B-3, used reversed
	cores := f.terminated(t, f.coreRun, a2, b2)  // core: A-2 -> B-2, used reversed
	downs := f.terminated(t, f.intraRun, a2, a6) // down: A-2 -> A-6
	if len(ups) == 0 || len(cores) == 0 || len(downs) == 0 {
		t.Fatalf("missing segments: up=%d core=%d down=%d", len(ups), len(cores), len(downs))
	}
	p, err := Combine(ups[0], cores[0], downs[0])
	if err != nil {
		t.Fatal(err)
	}
	if p.Src() != b3 || p.Dst() != a6 {
		t.Errorf("endpoints: %s -> %s", p.Src(), p.Dst())
	}
	if err := p.Check(f.topo); err != nil {
		t.Errorf("invalid interfaces: %v", err)
	}
	if p.ContainsLoop() {
		t.Errorf("loop in %v", p)
	}
	// The reverse path is also valid.
	rev := p.Reverse()
	if rev.Src() != a6 || rev.Dst() != b3 {
		t.Error("reverse endpoints wrong")
	}
	if err := rev.Check(f.topo); err != nil {
		t.Errorf("reverse invalid: %v", err)
	}
}

func TestCombineWithoutCoreSegment(t *testing.T) {
	f := newFixture(t)
	// Up to A-2 and down from A-2 join directly at the shared core.
	ups := f.terminated(t, f.intraRun, a2, a6)
	downs := f.terminated(t, f.intraRun, a2, a4)
	if len(ups) == 0 || len(downs) == 0 {
		t.Fatal("missing segments")
	}
	p, err := Combine(ups[0], nil, downs[0])
	if err != nil {
		t.Fatal(err)
	}
	if p.Src() != a6 || p.Dst() != a4 {
		t.Errorf("endpoints: %s -> %s", p.Src(), p.Dst())
	}
	if err := p.Check(f.topo); err != nil {
		t.Error(err)
	}
}

func TestCombineJunctionMismatch(t *testing.T) {
	f := newFixture(t)
	ups := f.terminated(t, f.intraRun, a1, a6)   // ends at A-1
	downs := f.terminated(t, f.intraRun, a2, a4) // starts at A-2
	if len(ups) == 0 || len(downs) == 0 {
		t.Fatal("missing segments")
	}
	if _, err := Combine(ups[0], nil, downs[0]); err == nil {
		t.Error("mismatched junction must fail")
	}
}

func TestShortcut(t *testing.T) {
	f := newFixture(t)
	// Up A-2 -> A-4 -> A-6 (at A-6) and down A-2 -> A-4 (at A-4) share
	// the non-core AS A-4: shortcut A-6 -> A-4 without touching A-2.
	var up *seg.PCB
	for _, cand := range f.terminated(t, f.intraRun, a2, a6) {
		ias := cand.IAs()
		if len(ias) == 3 && ias[1] == a4 {
			up = cand
		}
	}
	if up == nil {
		t.Fatal("no A-2 -> A-4 -> A-6 up segment found")
	}
	downs := f.terminated(t, f.intraRun, a2, a5)
	var down *seg.PCB
	for _, cand := range downs {
		ias := cand.IAs()
		if len(ias) == 3 && ias[1] == a4 {
			down = cand
		}
	}
	if down == nil {
		t.Fatal("no A-2 -> A-4 -> A-5 down segment found")
	}
	p, err := Shortcut(up, down)
	if err != nil {
		t.Fatal(err)
	}
	if p.Src() != a6 || p.Dst() != a5 {
		t.Errorf("endpoints: %s -> %s", p.Src(), p.Dst())
	}
	for _, h := range p.Hops {
		if h.IA == a2 {
			t.Error("shortcut still crosses the core")
		}
	}
	if err := p.Check(f.topo); err != nil {
		t.Error(err)
	}
}

func TestShortcutNoJunction(t *testing.T) {
	f := newFixture(t)
	ups := f.terminated(t, f.intraRun, b2, b3)
	downs := f.terminated(t, f.intraRun, a2, a4)
	if len(ups) == 0 || len(downs) == 0 {
		t.Fatal("missing segments")
	}
	if _, err := Shortcut(ups[0], downs[0]); err == nil {
		t.Error("disjoint segments must not form a shortcut")
	}
}

func TestPeeringShortcut(t *testing.T) {
	f := newFixture(t)
	// Up A-1 -> A-3 -> A-5 -> A-6 at A-6 contains A-5, which peers with
	// B-4 on the down segment B-2 -> B-4 -> B-5 at B-5.
	var up *seg.PCB
	for _, cand := range f.terminated(t, f.intraRun, a1, a6) {
		for _, ia := range cand.IAs() {
			if ia == a5 {
				up = cand
			}
		}
	}
	if up == nil {
		t.Fatal("no up segment through A-5")
	}
	var down *seg.PCB
	for _, cand := range f.terminated(t, f.intraRun, b2, b5) {
		for _, ia := range cand.IAs() {
			if ia == b4 {
				down = cand
			}
		}
	}
	if down == nil {
		t.Fatal("no down segment through B-4")
	}
	p, err := PeeringShortcut(up, down)
	if err != nil {
		t.Fatal(err)
	}
	if p.Src() != a6 || p.Dst() != b5 {
		t.Errorf("endpoints: %s -> %s", p.Src(), p.Dst())
	}
	// Valley-free: no core AS on the path.
	for _, h := range p.Hops {
		if f.topo.AS(h.IA).Core {
			t.Errorf("peering shortcut crosses core AS %s", h.IA)
		}
	}
	if err := p.Check(f.topo); err != nil {
		t.Error(err)
	}
}

func TestAllPaths(t *testing.T) {
	f := newFixture(t)
	ups := f.terminated(t, f.intraRun, b2, b3)
	cores := f.terminated(t, f.coreRun, a2, b2)
	downs := f.terminated(t, f.intraRun, a2, a6)
	paths := AllPaths(ups, cores, downs)
	if len(paths) == 0 {
		t.Fatal("no end-to-end paths")
	}
	for _, p := range paths {
		if p.Src() != b3 || p.Dst() != a6 {
			t.Errorf("bad endpoints %s -> %s", p.Src(), p.Dst())
		}
		if err := p.Check(f.topo); err != nil {
			t.Errorf("invalid path: %v", err)
		}
	}
}

func TestNotTerminatedRejected(t *testing.T) {
	f := newFixture(t)
	// Raw stored beacons are not terminated (last egress points at us).
	srv := f.intraRun.Servers[a6]
	entries := srv.Store().Entries(f.intraRun.End, a1)
	if len(entries) == 0 {
		t.Fatal("no stored beacons")
	}
	raw := entries[0].PCB
	if _, err := Combine(raw, nil, raw); err == nil {
		t.Error("unterminated segment accepted")
	}
	if _, err := Shortcut(raw, raw); err == nil {
		t.Error("unterminated segment accepted by Shortcut")
	}
	if _, err := Combine(nil, nil, nil); err == nil {
		t.Error("all-nil combine must fail")
	}
	if _, err := PeeringShortcut(raw, raw); !errors.Is(err, ErrNotTerminated) {
		t.Errorf("PeeringShortcut(unterminated) = %v, want ErrNotTerminated", err)
	}
	if _, err := Combine(raw, nil, nil); !errors.Is(err, ErrNotTerminated) {
		t.Errorf("Combine(unterminated) = %v, want ErrNotTerminated", err)
	}

	// A nil or empty segment is an error to the shortcut rules and is
	// skipped inside an AllPaths set; neither may panic. (To Combine nil
	// means "segment absent".)
	good := f.terminated(t, f.intraRun, a2, a6)[0]
	for _, bad := range []*seg.PCB{nil, {}} {
		if _, err := Shortcut(bad, good); !errors.Is(err, ErrEmptySegment) {
			t.Errorf("Shortcut(%v, d) = %v, want ErrEmptySegment", bad, err)
		}
		if _, err := Shortcut(good, bad); !errors.Is(err, ErrEmptySegment) {
			t.Errorf("Shortcut(u, %v) = %v, want ErrEmptySegment", bad, err)
		}
		if _, err := PeeringShortcut(good, bad); !errors.Is(err, ErrEmptySegment) {
			t.Errorf("PeeringShortcut(u, %v) = %v, want ErrEmptySegment", bad, err)
		}
		if _, err := PeeringShortcut(bad, good); !errors.Is(err, ErrEmptySegment) {
			t.Errorf("PeeringShortcut(%v, d) = %v, want ErrEmptySegment", bad, err)
		}
		if got := AllPaths([]*seg.PCB{bad}, []*seg.PCB{bad}, []*seg.PCB{bad}); len(got) != 0 {
			t.Errorf("AllPaths over %v segments = %v", bad, got)
		}
		want := AllPaths([]*seg.PCB{good}, nil, []*seg.PCB{good})
		if got := AllPaths([]*seg.PCB{bad, good}, []*seg.PCB{bad}, []*seg.PCB{good, bad}); len(want) == 0 || !reflect.DeepEqual(got, want) {
			t.Errorf("AllPaths with %v entries = %v, want them skipped: %v", bad, got, want)
		}
	}
	if _, err := Combine(&seg.PCB{}, nil, good); !errors.Is(err, ErrEmptySegment) {
		t.Errorf("Combine(empty up) = %v, want ErrEmptySegment", err)
	}
	other := f.terminated(t, f.intraRun, a1, a6)[0]
	if _, err := Combine(other, nil, good); !errors.Is(err, ErrNoJunction) {
		t.Errorf("Combine across cores without a core segment = %v, want ErrNoJunction", err)
	}
}

func TestPathLinksAndString(t *testing.T) {
	f := newFixture(t)
	downs := f.terminated(t, f.intraRun, a2, a6)
	p, err := Combine(nil, nil, downs[0])
	if err != nil {
		t.Fatal(err)
	}
	links := p.Links()
	if len(links) != len(p.Hops)-1 {
		t.Errorf("links = %d for %d hops", len(links), len(p.Hops))
	}
	if p.String() == "" || p.Hops[0].String() == "" {
		t.Error("empty stringers")
	}
	var empty Path
	if !empty.Src().IsZero() || !empty.Dst().IsZero() {
		t.Error("empty path endpoints must be zero")
	}
}
