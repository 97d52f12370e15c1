package bgpsec

import (
	"testing"

	"scionmpr/internal/addr"
	"scionmpr/internal/bgp"
	"scionmpr/internal/topology"
)

func ia(isd addr.ISD, as uint64) addr.IA { return addr.IA{ISD: isd, AS: addr.AS(as)} }

func smallTopo() *topology.Graph {
	g := topology.New()
	for _, as := range []uint64{1, 2, 3} {
		g.AddAS(ia(1, as), false)
	}
	g.MustConnect(ia(1, 1), ia(1, 2), topology.ProviderOf)
	g.MustConnect(ia(1, 2), ia(1, 3), topology.ProviderOf)
	return g
}

func TestUpdateWireLenGrowsPerHop(t *testing.T) {
	// Each hop adds one Secure_Path segment and one Signature_Segment:
	// RFC 8205 with P-384, 124 bytes of security payload.
	if SecurePathSegmentLen+SignatureSegmentLen != 124 {
		t.Errorf("per-hop cost = %d", SecurePathSegmentLen+SignatureSegmentLen)
	}
}

func TestBGPsecDwarfsBGP(t *testing.T) {
	res, err := bgp.Run(bgp.DefaultConfig(smallTopo()))
	if err != nil {
		t.Fatal(err)
	}
	prefixes := bgp.SyntheticPrefixCounts(res.Cfg.Topo)
	bgpAcct := bgp.MonthlyAccounting{Prefixes: prefixes, ChurnPerMonth: 30}
	secAcct := DefaultAccounting(prefixes)
	for _, sp := range res.Speakers {
		b := bgpAcct.BGPMonthlyBytes(sp)
		s := secAcct.MonthlyBytes(sp)
		if s <= b {
			t.Errorf("%s: BGPsec %v not above BGP %v", sp.Local, s, b)
		}
		// The paper reports about one order of magnitude; allow a wide
		// band but require a clear separation.
		if s < 2*b {
			t.Errorf("%s: BGPsec/BGP ratio only %.2f", sp.Local, s/b)
		}
	}
}

func TestAccountingKnobs(t *testing.T) {
	res, err := bgp.Run(bgp.DefaultConfig(smallTopo()))
	if err != nil {
		t.Fatal(err)
	}
	sp := res.Speakers[ia(1, 3)]
	base := DefaultAccounting(nil).MonthlyBytes(sp)
	if base <= 0 {
		t.Fatal("zero baseline bytes")
	}
	doubled := Accounting{ChurnPerMonth: 60, Extrapolation: 1}.MonthlyBytes(sp)
	if doubled != 2*base {
		t.Errorf("churn scaling: %v vs %v", doubled, base)
	}
	extra := Accounting{ChurnPerMonth: 30, Extrapolation: 3}.MonthlyBytes(sp)
	if extra != 3*base {
		t.Errorf("extrapolation scaling: %v vs %v", extra, base)
	}
	// Degenerate knobs fall back to defaults.
	def := Accounting{}.MonthlyBytes(sp)
	if def != base {
		t.Errorf("default fallback: %v vs %v", def, base)
	}
}
