package main

import "testing"

func TestBeaconsimTopoVariants(t *testing.T) {
	base := func(kind string) graph { return graph{kind: kind, n: 100, tier1: 5, seed: 1} }
	cases := []struct {
		kind, mode string
		wantASes   int
	}{
		{"demo", "core", 7},       // core subgraph of the demo network
		{"demo", "intra", 16},     // full demo for intra-ISD
		{"scionlab", "core", 21},  // SCIONLab core ring
		{"scionlab", "intra", 63}, // full SCIONLab
	}
	for _, c := range cases {
		topo, err := beaconsimTopo(base(c.kind), c.mode, 20, 3)
		if err != nil {
			t.Fatalf("%s/%s: %v", c.kind, c.mode, err)
		}
		if topo.NumASes() != c.wantASes {
			t.Errorf("%s/%s: ASes = %d, want %d", c.kind, c.mode, topo.NumASes(), c.wantASes)
		}
	}
	// Generated topologies honor the core/ISD parameters.
	coreTopo, err := beaconsimTopo(base("gen"), "core", 20, 3)
	if err != nil {
		t.Fatal(err)
	}
	if coreTopo.NumASes() != 20 {
		t.Errorf("gen core ASes = %d, want 20", coreTopo.NumASes())
	}
	isdTopo, err := beaconsimTopo(base("gen"), "intra", 20, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(isdTopo.CoreIAs()) != 3 {
		t.Errorf("gen ISD cores = %d, want 3", len(isdTopo.CoreIAs()))
	}
	if _, err := beaconsimTopo(base("bogus"), "core", 1, 1); err == nil {
		t.Error("unknown kind accepted")
	}
}
