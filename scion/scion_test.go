package scion

import (
	"strings"
	"testing"
	"time"

	"scionmpr/internal/addr"
	"scionmpr/internal/sim"
	"scionmpr/internal/topology"
)

var (
	a1 = addr.MustIA(1, 0xff00_0000_0101)
	a2 = addr.MustIA(1, 0xff00_0000_0102)
	a4 = addr.MustIA(1, 0xff00_0000_0104)
	a6 = addr.MustIA(1, 0xff00_0000_0106)
	b2 = addr.MustIA(2, 0xff00_0000_0202)
	b3 = addr.MustIA(2, 0xff00_0000_0203)
)

// TestLoadTopology loads a CAIDA serial-2 excerpt through the public
// API: every AS lands in ISD 1, provider and peer relationships survive,
// and a repeated pair becomes parallel links.
func TestLoadTopology(t *testing.T) {
	const rels = "# serial-2 excerpt\n1|2|-1|bgp\n1|3|-1|bgp\n2|3|0|bgp\n2|3|0|bgp\n"
	topo, err := LoadTopology(strings.NewReader(rels))
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumASes() != 3 {
		t.Fatalf("ASes = %d, want 3", topo.NumASes())
	}
	as1, as2, as3 := MustIA(1, 1), MustIA(1, 2), MustIA(1, 3)
	if l := topo.LinksBetween(as1, as2); len(l) != 1 || l[0].Rel != ProviderOf || l[0].A != as1 {
		t.Errorf("1|2|-1 = %v, want one link with AS 1 as provider", l)
	}
	if l := topo.LinksBetween(as2, as3); len(l) != 2 || l[0].Rel != PeerOf || l[1].Rel != PeerOf {
		t.Errorf("repeated 2|3|0 = %v, want two parallel peer links", l)
	}
	if _, err := LoadTopology(strings.NewReader("1|2|7\n")); err == nil {
		t.Error("unknown relationship code accepted")
	}
}

func demoNet(t *testing.T) *Network {
	t.Helper()
	n, err := NewNetwork(topology.Demo(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestNewNetworkValidation(t *testing.T) {
	if _, err := NewNetwork(nil, DefaultOptions()); err == nil {
		t.Error("nil topology accepted")
	}
	if _, err := NewNetwork(topology.New(), DefaultOptions()); err == nil {
		t.Error("empty topology accepted")
	}
	neg := DefaultOptions()
	neg.RevocationTTL = -1
	if _, err := NewNetwork(topology.Demo(), neg); err == nil {
		t.Error("negative RevocationTTL accepted")
	}
	// Zero options get defaulted.
	n, err := NewNetwork(topology.Demo(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n.Opts.DisseminationLimit != 5 || n.Opts.StoreLimit != 60 {
		t.Errorf("defaults not applied: %+v", n.Opts)
	}
}

func TestPathsLeafToLeafAcrossISDs(t *testing.T) {
	n := demoNet(t)
	paths, err := n.Paths(b3, a6)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no paths")
	}
	// Paths are sorted shortest-first and all start/end correctly.
	for i, p := range paths {
		if p.Hops[0].Hop.IA != b3 || p.Hops[len(p.Hops)-1].Hop.IA != a6 {
			t.Errorf("path %d endpoints wrong", i)
		}
		if i > 0 && len(p.Hops) < len(paths[i-1].Hops) {
			t.Error("paths not sorted by length")
		}
	}
	// Cache: same slice on second call.
	again, err := n.Paths(b3, a6)
	if err != nil || len(again) != len(paths) {
		t.Error("cache miss changed results")
	}
}

func TestPathsCoreCases(t *testing.T) {
	n := demoNet(t)
	// core -> core across ISDs.
	cc, err := n.Paths(b2, a2)
	if err != nil || len(cc) == 0 {
		t.Fatalf("core-core: %v (%d)", err, len(cc))
	}
	// core -> leaf.
	cl, err := n.Paths(a2, a6)
	if err != nil || len(cl) == 0 {
		t.Fatalf("core-leaf: %v (%d)", err, len(cl))
	}
	// leaf -> core.
	lc, err := n.Paths(a6, a1)
	if err != nil || len(lc) == 0 {
		t.Fatalf("leaf-core: %v (%d)", err, len(lc))
	}
	// Degenerate queries.
	if _, err := n.Paths(a6, a6); err == nil {
		t.Error("same-AS path query must fail")
	}
	if _, err := n.Paths(a6, addr.MustIA(9, 9)); err == nil {
		t.Error("unknown AS accepted")
	}
}

func TestEndToEndTraffic(t *testing.T) {
	n := demoNet(t)
	src, err := n.Host(b3, 10, 2, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := n.Host(a6, 10, 1, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	var from addr.Host
	dst.OnReceive(func(f addr.Host, payload []byte) { from, got = f, payload })

	if err := src.Send(dst.Addr, []byte("over three segments")); err != nil {
		t.Fatal(err)
	}
	n.Run()
	if string(got) != "over three segments" {
		t.Fatalf("payload = %q", got)
	}
	if !from.Equal(src.Addr) {
		t.Errorf("from = %v", from)
	}
	if hops := src.ActivePathHops(); len(hops) == 0 || hops[0] != b3 {
		t.Errorf("active path hops = %v", hops)
	}
	if sent, _ := src.Stats(); sent != 1 {
		t.Errorf("sent = %d", sent)
	}
}

func TestIntraASDelivery(t *testing.T) {
	n := demoNet(t)
	h1, _ := n.Host(a6, 10, 0, 0, 1)
	h2, _ := n.Host(a6, 10, 0, 0, 2)
	got := false
	h2.OnReceive(func(addr.Host, []byte) { got = true })
	if err := h1.Send(h2.Addr, []byte("local")); err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Error("intra-AS packet not delivered")
	}
	if err := h1.Send(addr.HostIP4(a6, 9, 9, 9, 9), nil); err == nil {
		t.Error("unknown local host accepted")
	}
}

func TestFailLinkTriggersFailover(t *testing.T) {
	n := demoNet(t)
	src, _ := n.Host(a6, 10, 0, 0, 1)
	dst, _ := n.Host(a4, 10, 0, 0, 2)
	delivered := 0
	dst.OnReceive(func(addr.Host, []byte) { delivered++ })

	if err := src.Send(dst.Addr, []byte("1")); err != nil {
		t.Fatal(err)
	}
	n.Run()
	if delivered != 1 {
		t.Fatal("baseline delivery failed")
	}

	// Fail the first link of the active path.
	hops := src.ActivePathHops()
	link, err := n.FailLink(hops[0], hops[1], 0)
	if err != nil {
		t.Fatal(err)
	}
	if !n.Fabric().Failed(link.ID) {
		t.Fatal("link not failed")
	}
	// Sending again hits the failed link, triggers SCMP failover, and a
	// retransmission succeeds on the alternative path.
	if err := src.Send(dst.Addr, []byte("2")); err != nil {
		t.Fatal(err)
	}
	n.Run()
	if err := src.Send(dst.Addr, []byte("3")); err != nil {
		t.Fatal(err)
	}
	n.Run()
	if delivered != 2 {
		t.Errorf("delivered = %d, want 2 (one lost, one rerouted)", delivered)
	}
	if _, failovers := src.Stats(); failovers == 0 {
		t.Error("no failover recorded")
	}
	// Fresh path lookups avoid the failed link too (cache flushed and
	// path servers revoked).
	paths, err := n.Paths(a6, a4)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		for _, h := range p.Hops {
			l := n.Topo.LinkByIf(h.Hop.IA, h.Hop.Out)
			if l != nil && l.ID == link.ID {
				t.Error("fresh lookup still returns the failed link")
			}
		}
	}
	if _, err := n.FailLink(a6, b3, 0); err == nil {
		t.Error("failing a non-existent link must error")
	}
}

func TestBaselineAlgorithmOption(t *testing.T) {
	opts := DefaultOptions()
	opts.Algorithm = Baseline
	opts.BeaconingTime = time.Hour
	n, err := NewNetwork(topology.Demo(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Paths(b3, a6); err != nil {
		t.Errorf("baseline network has no paths: %v", err)
	}
	if n.ControlPlaneBytes() == 0 {
		t.Error("no control plane bytes recorded")
	}
	now := n.now()
	if n.PathServer(a6).LookupUp(now) == nil || n.PathServer(addr.MustIA(9, 9)).LookupUp(now) != nil {
		t.Error("path server accessors broken")
	}
}

func TestNetworkOnSCIONLab(t *testing.T) {
	opts := DefaultOptions()
	opts.BeaconingTime = 2 * time.Hour
	n, err := NewNetwork(topology.SCIONLab(), opts)
	if err != nil {
		t.Fatal(err)
	}
	// Pick two leaf ASes in distant ISDs (ring distance ~10).
	src := MustIA(1, 0xff00_0000_1000)
	dst := MustIA(11, 0xff00_0000_1050)
	if n.Topo.AS(src) == nil || n.Topo.AS(dst) == nil {
		t.Fatal("expected SCIONLab leaf ASes missing")
	}
	paths, err := n.Paths(src, dst)
	if err != nil {
		t.Fatalf("no paths across the SCIONLab ring: %v", err)
	}
	if len(paths) == 0 {
		t.Fatal("empty path set")
	}
	// Traffic flows end to end.
	h1, err := n.Host(src, 10, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := n.Host(dst, 10, 0, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	ok := false
	h2.OnReceive(func(HostAddr, []byte) { ok = true })
	if err := h1.Send(h2.Addr, []byte("ring")); err != nil {
		t.Fatal(err)
	}
	n.Run()
	if !ok {
		t.Error("packet not delivered across the ring")
	}
}

func TestExportedHelpers(t *testing.T) {
	if _, err := ParseIA("1-64512"); err != nil {
		t.Error(err)
	}
	g, err := GenerateTopology(60, 4, 7)
	if err != nil || g.NumASes() != 60 {
		t.Fatalf("GenerateTopology: %v", err)
	}
	if NewTopology().NumASes() != 0 {
		t.Error("NewTopology not empty")
	}
	if DemoTopology().NumASes() != 16 {
		t.Error("demo topology wrong size")
	}
	h := HostIP4(MustIA(1, 5), 1, 2, 3, 4)
	if h.IA != MustIA(1, 5) {
		t.Error("HostIP4 broken")
	}
}

// TestPathsDropExpiredSegments requires the endpoint path cache to age
// with the segments it was combined from: once every 6h segment of the
// bootstrap has expired, a warm network answers as a fresh one does.
func TestPathsDropExpiredSegments(t *testing.T) {
	const past = 4*time.Hour + time.Minute
	fresh := demoNet(t)
	fresh.Clock().RunUntil(fresh.Clock().Now() + sim.Time(past))
	_, want := fresh.Paths(b3, a6)
	if want == nil {
		t.Fatal("fresh network still finds paths after every segment expired")
	}
	n := demoNet(t)
	if paths, err := n.Paths(b3, a6); err != nil || len(paths) == 0 {
		t.Fatalf("paths before expiry: %v (%d)", err, len(paths))
	}
	n.Clock().RunUntil(n.Clock().Now() + sim.Time(past))
	paths, err := n.Paths(b3, a6)
	if err == nil || err.Error() != want.Error() {
		t.Errorf("warm network after expiry: %d paths, err %v; want %v", len(paths), err, want)
	}
}

// TestRestoreLink covers the data-plane repair path: a failed link heals
// and, once the revocation TTL lapses, lookups serve it again.
func TestRestoreLink(t *testing.T) {
	opts := DefaultOptions()
	opts.RevocationTTL = 1 * time.Second
	n, err := NewNetwork(topology.Demo(), opts)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := n.Paths(b3, a6)
	if err != nil || len(paths) == 0 {
		t.Fatalf("paths: %v (%d)", err, len(paths))
	}
	refs, err := paths[0].LinkRefs(n.Topo)
	if err != nil || len(refs) == 0 {
		t.Fatalf("link refs: %v (%d)", err, len(refs))
	}
	l := refs[0].Link
	if _, err := n.FailLink(l.A, l.B, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := n.RestoreLink(l.A, l.B, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := n.RestoreLink(l.A, l.B, 99); err == nil {
		t.Error("restoring a nonexistent link must fail")
	}
	// Let the revocation lapse; the healed link serves again.
	n.Clock().RunUntil(n.Clock().Now() + 2e9)
	healed, err := n.Paths(b3, a6)
	if err != nil || len(healed) == 0 {
		t.Fatalf("paths after heal: %v (%d)", err, len(healed))
	}
}
