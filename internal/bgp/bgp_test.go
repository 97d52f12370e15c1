package bgp

import (
	"testing"

	"scionmpr/internal/addr"
	"scionmpr/internal/topology"
)

func ia(isd addr.ISD, as uint64) addr.IA { return addr.IA{ISD: isd, AS: addr.AS(as)} }

// gaoRexfordTopo: T1 provider of M1 and M2 (transit), which are peers;
// M1 provider of S1, M2 provider of S2.
//
//	  T1
//	 /  \
//	M1 -- M2   (peer)
//	|      |
//	S1    S2
func gaoRexfordTopo() *topology.Graph {
	g := topology.New()
	for _, as := range []uint64{1, 11, 12, 21, 22} {
		g.AddAS(ia(1, as), false)
	}
	g.MustConnect(ia(1, 1), ia(1, 11), topology.ProviderOf)
	g.MustConnect(ia(1, 1), ia(1, 12), topology.ProviderOf)
	g.MustConnect(ia(1, 11), ia(1, 12), topology.PeerOf)
	g.MustConnect(ia(1, 11), ia(1, 21), topology.ProviderOf)
	g.MustConnect(ia(1, 12), ia(1, 22), topology.ProviderOf)
	return g
}

func runGR(t *testing.T) *Result {
	t.Helper()
	res, err := Run(DefaultConfig(gaoRexfordTopo()))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	return res
}

func TestConvergenceFullReachability(t *testing.T) {
	res := runGR(t)
	for src, sp := range res.Speakers {
		for dst := range res.Speakers {
			if sp.Best(dst) == nil {
				t.Errorf("%s has no route to %s", src, dst)
			}
		}
	}
}

func TestGaoRexfordPreferences(t *testing.T) {
	res := runGR(t)
	// M1 must reach S1 via its customer (direct), not via anyone else.
	m1 := res.Speakers[ia(1, 11)]
	r := m1.Best(ia(1, 21))
	if r.Rel != FromCustomer || len(r.Path) != 1 {
		t.Errorf("M1 -> S1 route: %+v", r)
	}
	// S1 reaches S2 via M1; the path must be valley-free: M1 prefers the
	// peer route via M2 over the provider route via T1 (equal length
	// would tie, but peer beats provider at same preference? No: peer
	// route is pref 1 vs provider pref 0, so M1 -> M2 -> S2).
	s1 := res.Speakers[ia(1, 21)]
	r2 := s1.Best(ia(1, 22))
	if r2 == nil {
		t.Fatal("S1 has no route to S2")
	}
	want := []addr.IA{ia(1, 11), ia(1, 12), ia(1, 22)}
	if len(r2.Path) != len(want) {
		t.Fatalf("S1 -> S2 path: %v", r2.Path)
	}
	for i := range want {
		if r2.Path[i] != want[i] {
			t.Fatalf("S1 -> S2 path: %v, want %v", r2.Path, want)
		}
	}
}

func TestValleyFreeExport(t *testing.T) {
	res := runGR(t)
	// M1 learns S2's prefix from its peer M2; peer routes must not be
	// exported to the provider T1 or to the peer M2. T1 must therefore
	// reach S2 only via M2.
	t1 := res.Speakers[ia(1, 1)]
	r := t1.Best(ia(1, 22))
	if r == nil {
		t.Fatal("T1 has no route to S2")
	}
	if r.From != ia(1, 12) {
		t.Errorf("T1 -> S2 learned from %s, want M2 (valley-free)", r.From)
	}
	// And M1's Adj-RIB-In for S2 must contain no route via T1 announcing
	// a peer-learned path.
	m1 := res.Speakers[ia(1, 11)]
	for _, route := range m1.AdjInRoutes(ia(1, 22)) {
		if route.From == ia(1, 1) {
			// T1 may export its customer/peer routes to customers: T1's
			// route to S2 is via customer M2, so this is legal.
			continue
		}
	}
}

func TestLoopSuppression(t *testing.T) {
	res := runGR(t)
	for _, sp := range res.Speakers {
		for dst := range res.Speakers {
			r := sp.Best(dst)
			if r == nil {
				continue
			}
			seen := map[addr.IA]bool{sp.Local: true}
			for _, h := range r.Path {
				if seen[h] {
					t.Errorf("loop in %s -> %s: %v", sp.Local, dst, r.Path)
				}
				seen[h] = true
			}
		}
	}
}

func TestWithdrawPropagates(t *testing.T) {
	res := runGR(t)
	res.WithdrawPrefix(ia(1, 22))
	for src, sp := range res.Speakers {
		if src == ia(1, 22) {
			continue
		}
		if sp.Best(ia(1, 22)) != nil {
			t.Errorf("%s still has a route to withdrawn prefix", src)
		}
	}
}

func TestUpdateWireLen(t *testing.T) {
	r := &Route{Prefix: ia(1, 1), Path: []addr.IA{ia(1, 2), ia(1, 1)}}
	u := Update{Announce: []*Route{r}, Withdraw: []addr.IA{ia(1, 9)}}
	want := 19 + 2 + 2 + AnnounceWireLen(2) + 5
	if got := u.WireLen(); got != want {
		t.Errorf("WireLen = %d, want %d", got, want)
	}
	if AnnounceWireLen(4) != 4+5+16+7+5 {
		t.Errorf("AnnounceWireLen(4) = %d", AnnounceWireLen(4))
	}
}

func TestOverheadAccountedAtMonitors(t *testing.T) {
	res := runGR(t)
	for ia_, sp := range res.Speakers {
		if len(sp.Received) == 0 {
			t.Errorf("%s received no updates", ia_)
		}
	}
	if res.Net.GrandTotalTx() == 0 {
		t.Error("no wire bytes counted")
	}
	acct := MonthlyAccounting{Prefixes: SyntheticPrefixCounts(res.Cfg.Topo), ChurnPerMonth: 30}
	for _, sp := range res.Speakers {
		if b := acct.BGPMonthlyBytes(sp); b <= 0 {
			t.Errorf("monthly bytes for %s = %v", sp.Local, b)
		}
	}
}

func TestPathSetMultipath(t *testing.T) {
	res := runGR(t)
	// M1 has two routes to T1's prefix? T1 is its direct provider; also
	// via peer M2? M2 does not export provider routes to peers, so only
	// one. Check S1 -> T1: via M1 only, path set size 1.
	ps := res.PathSet(ia(1, 21), ia(1, 1))
	if len(ps) == 0 {
		t.Fatal("empty path set")
	}
	for _, p := range ps {
		if len(p) == 0 {
			t.Error("empty path in set")
		}
	}
	if res.PathSet(ia(1, 21), ia(1, 21)) != nil {
		t.Error("self path set must be nil")
	}
}

func TestRunConfigValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Error("nil topology must fail")
	}
	cfg := DefaultConfig(gaoRexfordTopo())
	cfg.MRAI = 0
	if _, err := Run(cfg); err == nil {
		t.Error("zero MRAI must fail")
	}
}

func TestConvergenceOnGeneratedTopology(t *testing.T) {
	p := topology.DefaultGenParams()
	p.NumASes = 120
	p.Tier1 = 5
	topo, err := topology.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(DefaultConfig(topo))
	if err != nil {
		t.Fatal(err)
	}
	// Spot-check reachability from a stub to all tier-1s.
	sp := res.Speakers[ia(1, 120)]
	for i := 1; i <= 5; i++ {
		if sp.Best(ia(1, uint64(i))) == nil {
			t.Errorf("stub missing route to tier-1 %d", i)
		}
	}
	if res.Converged != true {
		t.Error("generated topology did not converge")
	}
}

func TestSyntheticPrefixCounts(t *testing.T) {
	g := gaoRexfordTopo()
	counts := SyntheticPrefixCounts(g)
	if counts[ia(1, 1)] <= counts[ia(1, 21)] {
		t.Errorf("tier-1 prefixes (%d) must exceed stub prefixes (%d)",
			counts[ia(1, 1)], counts[ia(1, 21)])
	}
	for iaX, n := range counts {
		if n < 1 {
			t.Errorf("%s has %d prefixes", iaX, n)
		}
	}
}

func TestRelClassStrings(t *testing.T) {
	for _, r := range []RelClass{FromProvider, FromPeer, FromCustomer, FromSelf} {
		if r.String() == "" || r.String() == "unknown" {
			t.Errorf("bad string for %d", r)
		}
	}
}

func TestCalibratePrefixCounts(t *testing.T) {
	counts := map[addr.IA]int{ia(1, 1): 10, ia(1, 2): 2, ia(1, 3): 0}
	out := CalibratePrefixCounts(counts, 66)
	sum := 0
	for _, n := range out {
		if n < 1 {
			t.Errorf("count below floor: %d", n)
		}
		sum += n
	}
	mean := float64(sum) / 3
	if mean < 40 || mean > 90 {
		t.Errorf("calibrated mean = %v, want ~66", mean)
	}
	// Skew preserved.
	if out[ia(1, 1)] <= out[ia(1, 2)] {
		t.Error("skew lost")
	}
	// Degenerate inputs pass through.
	if got := CalibratePrefixCounts(nil, 66); got != nil {
		t.Error("nil passthrough")
	}
	if got := CalibratePrefixCounts(counts, 0); got[ia(1, 1)] != 10 {
		t.Error("zero target must passthrough")
	}
}
