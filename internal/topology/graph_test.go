package topology

import (
	"strings"
	"testing"

	"scionmpr/internal/addr"
)

func ia(isd addr.ISD, as uint64) addr.IA { return addr.IA{ISD: isd, AS: addr.AS(as)} }

// providers returns the IAs that are providers of x.
func providers(g *Graph, x addr.IA) []addr.IA {
	return g.relNeighbors(x, func(l *Link) bool { return l.Rel == ProviderOf && l.B == x })
}

// peers returns the non-core peers of x.
func peers(g *Graph, x addr.IA) []addr.IA {
	return g.relNeighbors(x, func(l *Link) bool { return l.Rel == PeerOf })
}

func triangle(t *testing.T) *Graph {
	t.Helper()
	g := New()
	g.AddAS(ia(1, 1), true)
	g.AddAS(ia(1, 2), true)
	g.AddAS(ia(1, 3), false)
	g.MustConnect(ia(1, 1), ia(1, 2), Core)
	g.MustConnect(ia(1, 1), ia(1, 3), ProviderOf)
	g.MustConnect(ia(1, 2), ia(1, 3), ProviderOf)
	return g
}

func TestConnectAssignsUniqueInterfaces(t *testing.T) {
	g := triangle(t)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	as1 := g.AS(ia(1, 1))
	if len(as1.Links) != 2 {
		t.Fatalf("AS1 links = %d, want 2", len(as1.Links))
	}
	if as1.Links[0].LocalIf(ia(1, 1)) == as1.Links[1].LocalIf(ia(1, 1)) {
		t.Error("duplicate interface IDs on AS1")
	}
}

func TestConnectErrors(t *testing.T) {
	g := New()
	g.AddAS(ia(1, 1), false)
	if _, err := g.Connect(ia(1, 1), ia(1, 9), PeerOf); err == nil {
		t.Error("connect to unknown AS: want error")
	}
	if _, err := g.Connect(ia(1, 1), ia(1, 1), PeerOf); err == nil {
		t.Error("self link: want error")
	}
}

func TestLinkAccessors(t *testing.T) {
	g := triangle(t)
	l := g.LinksBetween(ia(1, 1), ia(1, 3))[0]
	if l.Other(ia(1, 1)) != ia(1, 3) || l.Other(ia(1, 3)) != ia(1, 1) {
		t.Error("Other broken")
	}
	if l.LocalIf(ia(1, 1)) != l.RemoteIf(ia(1, 3)) {
		t.Error("LocalIf/RemoteIf inconsistent")
	}
	if !strings.Contains(l.String(), "provider") {
		t.Errorf("link string %q missing relationship", l)
	}
	if got := g.LinkByIf(ia(1, 1), l.LocalIf(ia(1, 1))); got != l {
		t.Error("LinkByIf did not resolve")
	}
	if g.LinkByIf(ia(1, 1), 999) != nil {
		t.Error("LinkByIf with bogus interface must be nil")
	}
	if g.LinkByIf(ia(9, 9), 1) != nil {
		t.Error("LinkByIf with bogus AS must be nil")
	}
}

func TestRelationshipQueries(t *testing.T) {
	g := triangle(t)
	if got := g.Customers(ia(1, 1)); len(got) != 1 || got[0] != ia(1, 3) {
		t.Errorf("Customers = %v", got)
	}
	if got := providers(g, ia(1, 3)); len(got) != 2 {
		t.Errorf("Providers = %v", got)
	}
	if got := g.CoreNeighbors(ia(1, 1)); len(got) != 1 || got[0] != ia(1, 2) {
		t.Errorf("CoreNeighbors = %v", got)
	}
	if got := peers(g, ia(1, 1)); len(got) != 0 {
		t.Errorf("Peers = %v", got)
	}
	if got := g.Neighbors(ia(1, 3)); len(got) != 2 {
		t.Errorf("Neighbors = %v", got)
	}
	if g.Neighbors(ia(9, 9)) != nil {
		t.Error("Neighbors of unknown AS must be nil")
	}
}

func TestParallelLinksCountOnceInDegree(t *testing.T) {
	g := New()
	g.AddAS(ia(1, 1), false)
	g.AddAS(ia(1, 2), false)
	g.MustConnect(ia(1, 1), ia(1, 2), PeerOf)
	g.MustConnect(ia(1, 1), ia(1, 2), PeerOf)
	if d := g.AS(ia(1, 1)).Degree(); d != 1 {
		t.Errorf("degree with parallel links = %d, want 1", d)
	}
	if n := len(g.LinksBetween(ia(1, 1), ia(1, 2))); n != 2 {
		t.Errorf("parallel links = %d, want 2", n)
	}
	st := g.ComputeStats()
	if st.ParallelPairs != 1 || st.Links != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestCustomerCone(t *testing.T) {
	g := triangle(t)
	if c := g.CustomerCone(ia(1, 1)); c != 2 {
		t.Errorf("cone(1) = %d, want 2 (self + AS3)", c)
	}
	if c := g.CustomerCone(ia(1, 3)); c != 1 {
		t.Errorf("cone(3) = %d, want 1", c)
	}
}

func TestValidateRejectsCoreLinkToNonCore(t *testing.T) {
	g := New()
	g.AddAS(ia(1, 1), true)
	g.AddAS(ia(1, 2), false)
	g.MustConnect(ia(1, 1), ia(1, 2), Core)
	if err := g.Validate(); err == nil {
		t.Error("core link to non-core AS must fail validation")
	}
}

func TestSubgraph(t *testing.T) {
	g := triangle(t)
	sub := g.Subgraph(map[addr.IA]bool{ia(1, 1): true, ia(1, 2): true})
	if sub.NumASes() != 2 || len(sub.Links) != 1 {
		t.Errorf("subgraph ASes=%d links=%d", sub.NumASes(), len(sub.Links))
	}
	if !sub.AS(ia(1, 1)).Core {
		t.Error("core flag lost in subgraph")
	}
}

func TestRelString(t *testing.T) {
	for _, r := range []Rel{Core, ProviderOf, PeerOf} {
		if r.String() == "" {
			t.Errorf("rel %d has no string", r)
		}
	}
	if Rel(42).String() == "" {
		t.Error("unknown rel must still print")
	}
}
