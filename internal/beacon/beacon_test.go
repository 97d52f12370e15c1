package beacon

import (
	"testing"
	"time"

	"scionmpr/internal/addr"
	"scionmpr/internal/core"
	"scionmpr/internal/seg"
	"scionmpr/internal/sim"
	"scionmpr/internal/topology"
	"scionmpr/internal/trust"
)

const hour = sim.Time(time.Hour)

type fakeSigner struct{ ia addr.IA }

func (f fakeSigner) IA() addr.IA                 { return f.ia }
func (f fakeSigner) Sign([]byte) ([]byte, error) { return make([]byte, trust.SignatureLen), nil }

func mkPCB(t *testing.T, origin addr.IA, ts sim.Time, life sim.Time, hops ...[3]uint64) *seg.PCB {
	t.Helper()
	p := seg.NewPCB(origin, 1, ts, life)
	for _, h := range hops {
		var err error
		local := addr.MustIA(1, addr.AS(h[0]))
		p, err = p.Extend(fakeSigner{ia: local}, addr.IA{}, addr.IfID(h[1]), addr.IfID(h[2]), nil, 1472)
		if err != nil {
			t.Fatal(err)
		}
	}
	return p
}

var org = addr.MustIA(1, 100)

func TestStoreInsertAndDedup(t *testing.T) {
	s := NewStore(5)
	p := mkPCB(t, org, 0, 6*hour, [3]uint64{100, 0, 1})
	if !s.InsertPCB(0, p, 3).Accepted() {
		t.Fatal("insert failed")
	}
	if s.Len() != 1 {
		t.Fatalf("len = %d", s.Len())
	}
	// Same path, newer instance replaces (no growth).
	newer := mkPCB(t, org, hour, 6*hour, [3]uint64{100, 0, 1})
	if !s.InsertPCB(hour, newer, 3).Accepted() {
		t.Fatal("replacing insert failed")
	}
	if s.Len() != 1 {
		t.Fatalf("len after replace = %d", s.Len())
	}
	got := s.PCBs(hour, org)
	if len(got) != 1 || got[0].Info.Expiry != newer.Info.Expiry {
		t.Error("newer instance did not replace")
	}
	// Older instance of the same path does not regress.
	if !s.InsertPCB(hour, p, 3).Accepted() {
		t.Fatal("stale insert should still report stored (dedup)")
	}
	if s.PCBs(hour, org)[0].Info.Expiry != newer.Info.Expiry {
		t.Error("stale instance overwrote newer one")
	}
	// Same path on a different ingress is a distinct entry.
	if !s.InsertPCB(hour, newer, 4).Accepted() {
		t.Fatal("distinct-ingress insert failed")
	}
	if s.Len() != 2 {
		t.Fatalf("len = %d, want 2", s.Len())
	}
}

func TestStoreRejectsExpired(t *testing.T) {
	s := NewStore(5)
	p := mkPCB(t, org, 0, hour, [3]uint64{100, 0, 1})
	if s.InsertPCB(2*hour, p, 1).Accepted() {
		t.Error("expired beacon stored")
	}
}

func TestStoreLimitEviction(t *testing.T) {
	s := NewStore(2)
	long := mkPCB(t, org, 0, 6*hour, [3]uint64{100, 0, 1}, [3]uint64{2, 1, 2}, [3]uint64{3, 1, 2})
	mid := mkPCB(t, org, 0, 6*hour, [3]uint64{100, 0, 2}, [3]uint64{4, 1, 2})
	short := mkPCB(t, org, 0, 6*hour, [3]uint64{100, 0, 3})
	if !s.InsertPCB(0, long, 1).Accepted() || !s.InsertPCB(0, mid, 1).Accepted() {
		t.Fatal("setup inserts failed")
	}
	// Store full; a shorter beacon evicts the longest.
	if !s.InsertPCB(0, short, 1).Accepted() {
		t.Fatal("better beacon rejected")
	}
	if s.Len() != 2 {
		t.Fatalf("len = %d", s.Len())
	}
	for _, p := range s.PCBs(0, org) {
		if p.Len() == 3 {
			t.Error("longest beacon not evicted")
		}
	}
	// A worse (longer) beacon is rejected when full.
	longer := mkPCB(t, org, 0, 6*hour, [3]uint64{100, 0, 9}, [3]uint64{8, 1, 2}, [3]uint64{7, 1, 2}, [3]uint64{6, 1, 2})
	if s.InsertPCB(0, longer, 1).Accepted() {
		t.Error("worse beacon accepted into full store")
	}
}

func TestStoreUnlimited(t *testing.T) {
	s := NewStore(0)
	for i := 0; i < 50; i++ {
		p := mkPCB(t, org, 0, 6*hour, [3]uint64{100, 0, uint64(i + 1)})
		if !s.InsertPCB(0, p, 1).Accepted() {
			t.Fatal("unlimited store rejected insert")
		}
	}
	if s.Len() != 50 {
		t.Fatalf("len = %d", s.Len())
	}
}

func TestStorePrune(t *testing.T) {
	s := NewStore(0)
	s.InsertPCB(0, mkPCB(t, org, 0, hour, [3]uint64{100, 0, 1}), 1)
	s.InsertPCB(0, mkPCB(t, org, 0, 6*hour, [3]uint64{100, 0, 2}), 1)
	if got := s.PCBs(2*hour, org); len(got) != 1 {
		t.Fatalf("valid PCBs = %d", len(got))
	}
	s2 := NewStore(0)
	s2.InsertPCB(0, mkPCB(t, org, 0, hour, [3]uint64{100, 0, 1}), 1)
	if got := s2.Entries(2*hour, org); len(got) != 0 {
		t.Error("expired entry returned")
	}
}

func TestStoreOrigins(t *testing.T) {
	s := NewStore(0)
	o2 := addr.MustIA(1, 200)
	s.InsertPCB(0, mkPCB(t, o2, 0, hour, [3]uint64{200, 0, 1}), 1)
	s.InsertPCB(0, mkPCB(t, org, 0, hour, [3]uint64{100, 0, 1}), 1)
	origins := s.Origins()
	if len(origins) != 2 || origins[0] != org || origins[1] != o2 {
		t.Errorf("origins = %v", origins)
	}
}

// runCore runs core beaconing on the demo topology's core graph.
func runCore(t *testing.T, factory core.Factory, storeLimit int, dur time.Duration) *RunResult {
	t.Helper()
	demo := topology.Demo()
	keep := map[addr.IA]bool{}
	for _, ia := range demo.CoreIAs() {
		keep[ia] = true
	}
	coreTopo := demo.Subgraph(keep)
	cfg := DefaultRunConfig(coreTopo, CoreMode, factory, storeLimit)
	cfg.Duration = dur
	cfg.Verify = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestCoreBeaconingBaselineDisseminates(t *testing.T) {
	res := runCore(t, core.NewBaseline(5), 10, time.Hour)
	cores := res.Cfg.Topo.CoreIAs()
	// Every core AS must learn paths from every other core AS.
	for _, src := range cores {
		for _, dst := range cores {
			if src == dst {
				continue
			}
			if ps := res.PathSet(src, dst); len(ps) == 0 {
				t.Errorf("no paths from %s at %s", src, dst)
			}
		}
	}
	if res.TotalOverheadBytes() == 0 {
		t.Error("no overhead recorded")
	}
	// No dropped messages (all ASes have handlers) and no rejects from
	// verification.
	if res.Net.Dropped != 0 {
		t.Errorf("dropped = %d", res.Net.Dropped)
	}
	for ia, srv := range res.Servers {
		if srv.Rejected > srv.Received/2 {
			t.Errorf("%s rejected %d of %d", ia, srv.Rejected, srv.Received)
		}
	}
}

func TestCoreBeaconingDiversityCheaperThanBaseline(t *testing.T) {
	base := runCore(t, core.NewBaseline(5), 10, 3*time.Hour)
	div := runCore(t, core.NewDiversity(core.DefaultParams(5)), 10, 3*time.Hour)
	bo, do := base.TotalOverheadBytes(), div.TotalOverheadBytes()
	if do >= bo {
		t.Errorf("diversity overhead %d not below baseline %d", do, bo)
	}
	// And it must still deliver full connectivity.
	cores := div.Cfg.Topo.CoreIAs()
	for _, src := range cores {
		for _, dst := range cores {
			if src != dst && len(div.PathSet(src, dst)) == 0 {
				t.Errorf("diversity lost connectivity %s -> %s", src, dst)
			}
		}
	}
}

func TestCoreBeaconingQualityBounds(t *testing.T) {
	res := runCore(t, core.NewDiversity(core.DefaultParams(5)), 20, 2*time.Hour)
	cores := res.Cfg.Topo.CoreIAs()
	for _, src := range cores {
		for _, dst := range cores {
			if src == dst {
				continue
			}
			q := res.Quality(src, dst)
			if q < 1 {
				t.Errorf("quality(%s,%s) = %d, want >= 1", src, dst, q)
			}
		}
	}
}

func TestIntraISDBeaconing(t *testing.T) {
	// Intra-ISD beaconing on the full demo graph: PCBs only flow down
	// provider-customer links, so the three ISDs stay isolated without
	// any explicit partitioning (paper Mechanism 5).
	demo := topology.Demo()
	cfg := DefaultRunConfig(demo, IntraMode, core.NewBaseline(5), 10)
	cfg.Duration = time.Hour
	cfg.Verify = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Every non-core AS must have up-segments from at least one core AS
	// of its own ISD (the hierarchy above it), and none from foreign ISDs.
	for _, ia := range demo.IAs() {
		if demo.AS(ia).Core {
			continue
		}
		found := 0
		for _, c := range demo.CoreIAs() {
			n := len(res.PathSet(c, ia))
			if c.ISD != ia.ISD && n > 0 {
				t.Errorf("%s received beacons from foreign core %s", ia, c)
			}
			if c.ISD == ia.ISD && n > 0 {
				found++
			}
		}
		if found == 0 {
			t.Errorf("no intra-ISD paths at %s", ia)
		}
	}
	// A-5 and A-6 sit below both cores of ISD 1 and must see both.
	a1 := addr.MustIA(1, 0xff00_0000_0101)
	a2 := addr.MustIA(1, 0xff00_0000_0102)
	a6 := addr.MustIA(1, 0xff00_0000_0106)
	if len(res.PathSet(a1, a6)) == 0 || len(res.PathSet(a2, a6)) == 0 {
		t.Error("A-6 must have up-segments to both core ASes")
	}
	// Core ASes must NOT receive beacons (uni-directional dissemination).
	for _, c := range demo.CoreIAs() {
		srv := res.Servers[c]
		if srv.Store().Len() != 0 {
			t.Errorf("core AS %s stored %d intra-ISD beacons, want 0", c, srv.Store().Len())
		}
	}
	// Non-core AS entries include peer entries where peering exists: A-5
	// peers with B-4.
	a5 := addr.MustIA(1, 0xff00_0000_0105)
	found := false
	for _, e := range res.Servers[a6].Store().Entries(res.End, a1) {
		for _, entry := range e.PCB.AppendEntries(nil) {
			if entry.Local == a5 && len(entry.Peers) > 0 {
				found = true
			}
		}
	}
	if !found {
		t.Error("peer entries of A-5 missing from intra-ISD beacons at A-6")
	}
}

func TestIntraISDOverheadBelowCore(t *testing.T) {
	// Sanity for the paper's claim that intra-ISD beaconing is far
	// cheaper: on the same AS count, intra-ISD (tree-down) sends less
	// than core (flooding).
	demo := topology.Demo()
	keepISD := map[addr.IA]bool{}
	for _, ia := range demo.IAs() {
		if ia.ISD == 1 {
			keepISD[ia] = true
		}
	}
	isd := demo.Subgraph(keepISD)
	cfgI := DefaultRunConfig(isd, IntraMode, core.NewBaseline(5), 10)
	cfgI.Duration = 2 * time.Hour
	resI, err := Run(cfgI)
	if err != nil {
		t.Fatal(err)
	}
	keepCore := map[addr.IA]bool{}
	for _, ia := range demo.CoreIAs() {
		keepCore[ia] = true
	}
	coreT := demo.Subgraph(keepCore)
	cfgC := DefaultRunConfig(coreT, CoreMode, core.NewBaseline(5), 10)
	cfgC.Duration = 2 * time.Hour
	resC, err := Run(cfgC)
	if err != nil {
		t.Fatal(err)
	}
	if resI.TotalOverheadBytes() >= resC.TotalOverheadBytes() {
		t.Errorf("intra-ISD %d >= core %d bytes", resI.TotalOverheadBytes(), resC.TotalOverheadBytes())
	}
}

func TestRunConfigValidation(t *testing.T) {
	if _, err := Run(RunConfig{}); err == nil {
		t.Error("empty config must fail")
	}
	cfg := DefaultRunConfig(topology.Demo(), CoreMode, core.NewBaseline(5), 10)
	cfg.Interval = 0
	if _, err := Run(cfg); err == nil {
		t.Error("zero interval must fail")
	}
}

func TestModeString(t *testing.T) {
	if CoreMode.String() != "core" || IntraMode.String() != "intra-isd" {
		t.Error("mode strings wrong")
	}
}

func TestPerInterfaceBandwidth(t *testing.T) {
	res := runCore(t, core.NewBaseline(5), 10, time.Hour)
	bw := res.PerInterfaceBandwidth()
	if len(bw) == 0 {
		t.Fatal("no per-interface bandwidth")
	}
	for _, v := range bw {
		if v < 0 {
			t.Error("negative bandwidth")
		}
	}
	if rx := res.Net.TotalRx(res.Cfg.Topo.CoreIAs()[0]); rx == 0 {
		t.Error("monitor received no control-plane bytes")
	}
}

func TestStoreRevokeLink(t *testing.T) {
	s := NewStore(0)
	onLink := mkPCB(t, org, 0, 6*hour, [3]uint64{100, 0, 1}, [3]uint64{2, 1, 2})
	offLink := mkPCB(t, org, 0, 6*hour, [3]uint64{100, 0, 3}, [3]uint64{4, 1, 2})
	s.InsertPCB(0, onLink, 1)
	s.InsertPCB(0, offLink, 1)
	dropped := s.RevokeLink(seg.LinkKey{IA: addr.MustIA(1, 100), If: 1})
	if dropped != 1 {
		t.Fatalf("dropped = %d, want 1", dropped)
	}
	left := s.PCBs(0, org)
	if len(left) != 1 || left[0].HopsKey() != offLink.HopsKey() {
		t.Errorf("wrong beacon survived: %v", left)
	}
	if s.RevokeLink(seg.LinkKey{IA: addr.MustIA(9, 9), If: 1}) != 0 {
		t.Error("bogus link dropped beacons")
	}
}
