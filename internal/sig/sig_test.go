package sig

import (
	"net/netip"
	"testing"
	"time"

	"scionmpr/internal/addr"
	"scionmpr/internal/beacon"
	"scionmpr/internal/combinator"
	"scionmpr/internal/core"
	"scionmpr/internal/dataplane"
	"scionmpr/internal/seg"
	"scionmpr/internal/sim"
	"scionmpr/internal/topology"
	"scionmpr/internal/trust"
)

var (
	a2 = addr.MustIA(1, 0xff00_0000_0102)
	a4 = addr.MustIA(1, 0xff00_0000_0104)
	a6 = addr.MustIA(1, 0xff00_0000_0106)
)

func TestASMapLongestPrefix(t *testing.T) {
	var m ASMap
	m.Add(netip.MustParsePrefix("10.0.0.0/8"), a4)
	m.Add(netip.MustParsePrefix("10.1.0.0/16"), a6)
	if ia, ok := m.Lookup(netip.MustParseAddr("10.1.2.3")); !ok || ia != a6 {
		t.Errorf("LPM = %v %v, want %v", ia, ok, a6)
	}
	if ia, ok := m.Lookup(netip.MustParseAddr("10.9.9.9")); !ok || ia != a4 {
		t.Errorf("fallback = %v %v, want %v", ia, ok, a4)
	}
	if _, ok := m.Lookup(netip.MustParseAddr("192.168.1.1")); ok {
		t.Error("unmapped address resolved")
	}
	if len(m.entries) != 2 {
		t.Errorf("len = %d", len(m.entries))
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cases := []IPPacket{
		{Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("10.1.0.1"), Payload: []byte("v4")},
		{Src: netip.MustParseAddr("2001:db8::1"), Dst: netip.MustParseAddr("2001:db8::2"), Payload: []byte("v6 payload")},
		{Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("10.1.0.1")},
	}
	for _, c := range cases {
		back, err := decode(c.encode())
		if err != nil {
			t.Fatal(err)
		}
		if back.Src != c.Src || back.Dst != c.Dst || string(back.Payload) != string(c.Payload) {
			t.Errorf("round trip: %+v vs %+v", back, c)
		}
	}
	if _, err := decode([]byte{1, 2, 3}); err == nil {
		t.Error("truncated decode must fail")
	}
	if _, err := decode(make([]byte, 36)); err == nil {
		// length field says 0 but buffer has 36 >= 35: actually valid.
		_ = err
	}
	long := cases[0].encode()
	long[33] = 0xff // claim longer payload than present
	long[34] = 0xff
	if _, err := decode(long); err == nil {
		t.Error("over-long payload length must fail")
	}
}

func TestIPPacketWireLen(t *testing.T) {
	v4 := IPPacket{Src: netip.MustParseAddr("1.1.1.1"), Dst: netip.MustParseAddr("2.2.2.2"), Payload: make([]byte, 10)}
	if v4.WireLen() != 30 {
		t.Errorf("v4 wire len = %d", v4.WireLen())
	}
	v6 := IPPacket{Src: netip.MustParseAddr("::1"), Dst: netip.MustParseAddr("::2"), Payload: make([]byte, 10)}
	if v6.WireLen() != 50 {
		t.Errorf("v6 wire len = %d", v6.WireLen())
	}
}

// fabricTransport carries gateways straight on a fabric, whose per-AS
// delivery handler then serves the gateway alone.
type fabricTransport struct{ *dataplane.Fabric }

func (t fabricTransport) SendOn(p *dataplane.FwdPath, src, dst addr.Host, payload []byte) error {
	return t.Inject(&dataplane.Packet{Src: src, Dst: dst, Path: p, Payload: payload})
}

func (t fabricTransport) OnGateway(ia addr.IA, fn dataplane.DeliverFunc) { t.OnDeliver(ia, fn) }

// sigEnv wires two SIGs (A-6 and A-4) over real beaconed paths.
type sigEnv struct {
	s          *sim.Simulator
	fabric     *dataplane.Fabric
	gwA6, gwA4 *Gateway
}

func newSigEnv(t *testing.T) *sigEnv {
	t.Helper()
	topo := topology.Demo()
	infra, err := trust.NewInfra(topo, trust.Sized)
	if err != nil {
		t.Fatal(err)
	}
	cfg := beacon.DefaultRunConfig(topo, beacon.IntraMode, core.NewBaseline(5), 20)
	cfg.Duration = time.Hour
	cfg.Infra = infra
	run, err := beacon.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	term := func(origin, dst addr.IA) []*seg.PCB {
		var out []*seg.PCB
		for _, e := range run.Servers[dst].Store().Entries(run.End, origin) {
			tp, err := e.PCB.Extend(infra.SignerFor(dst), addr.IA{}, e.Ingress, 0, nil, 1472)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, tp)
		}
		return out
	}
	paths := func(src, dst addr.IA) []*dataplane.FwdPath {
		cands := combinator.AllPaths(term(a2, src), nil, term(a2, dst))
		var out []*dataplane.FwdPath
		for _, c := range cands {
			fp, err := dataplane.Authorize(c, infra.ForwardingKey)
			if err == nil {
				out = append(out, fp)
			}
		}
		return out
	}
	s := &sim.Simulator{}
	fab := dataplane.NewFabric(s, topo, time.Millisecond, sim.NewLinkFaults(topo), infra.ForwardingKey)

	var m ASMap
	m.Add(netip.MustParsePrefix("10.6.0.0/16"), a6)
	m.Add(netip.MustParsePrefix("10.4.0.0/16"), a4)

	gwA6 := NewGateway(fabricTransport{fab}, addr.HostIP4(a6, 10, 6, 0, 1), CPE, &m, func(dst addr.IA) []*dataplane.FwdPath {
		return paths(a6, dst)
	})
	gwA4 := NewGateway(fabricTransport{fab}, addr.HostIP4(a4, 10, 4, 0, 1), CPE, &m, func(dst addr.IA) []*dataplane.FwdPath {
		return paths(a4, dst)
	})
	return &sigEnv{s: s, fabric: fab, gwA6: gwA6, gwA4: gwA4}
}

func TestGatewayTunnel(t *testing.T) {
	env := newSigEnv(t)
	var got IPPacket
	env.gwA4.OnDeliverIP(func(p IPPacket) { got = p })

	ip := IPPacket{
		Src:     netip.MustParseAddr("10.6.0.99"),
		Dst:     netip.MustParseAddr("10.4.0.42"),
		Payload: []byte("legacy traffic"),
	}
	if err := env.gwA6.HandleIP(ip); err != nil {
		t.Fatal(err)
	}
	env.s.Run()
	if string(got.Payload) != "legacy traffic" {
		t.Fatalf("decapsulated = %+v", got)
	}
	if got.Src != ip.Src || got.Dst != ip.Dst {
		t.Error("addresses corrupted in tunnel")
	}
	if env.gwA6.Encapsulated != 1 || env.gwA4.Decapsulated != 1 {
		t.Errorf("stats: enc=%d dec=%d", env.gwA6.Encapsulated, env.gwA4.Decapsulated)
	}
	if env.gwA6.PerDstAS[a4] != 1 {
		t.Error("per-destination accounting missing")
	}
}

func TestGatewayErrors(t *testing.T) {
	env := newSigEnv(t)
	// Unmapped destination.
	err := env.gwA6.HandleIP(IPPacket{
		Src: netip.MustParseAddr("10.6.0.1"),
		Dst: netip.MustParseAddr("192.168.0.1"),
	})
	if err == nil || env.gwA6.NoMapping != 1 {
		t.Error("unmapped destination must fail")
	}
	// Local delivery bypasses SCION.
	delivered := false
	env.gwA6.OnDeliverIP(func(IPPacket) { delivered = true })
	if err := env.gwA6.HandleIP(IPPacket{
		Src: netip.MustParseAddr("10.6.0.1"),
		Dst: netip.MustParseAddr("10.6.0.2"),
	}); err != nil {
		t.Fatal(err)
	}
	if !delivered || env.gwA6.Encapsulated != 0 {
		t.Error("intra-AS packet must be delivered locally")
	}
	// No-path destination.
	var m ASMap
	m.Add(netip.MustParsePrefix("0.0.0.0/0"), addr.MustIA(3, 0xff00_0000_0305))
	gw := NewGateway(fabricTransport{env.fabric}, addr.HostIP4(a6, 1, 1, 1, 1), CPE, &m, func(addr.IA) []*dataplane.FwdPath { return nil })
	if err := gw.HandleIP(IPPacket{Src: netip.MustParseAddr("1.1.1.1"), Dst: netip.MustParseAddr("2.2.2.2")}); err == nil || gw.NoPath != 1 {
		t.Error("pathless destination must fail")
	}
}

func TestCarrierGradeAggregation(t *testing.T) {
	env := newSigEnv(t)
	// Reconfigure A-6's gateway as carrier-grade: many customer sources
	// aggregated toward the same remote AS.
	env.gwA6.Mode = CarrierGrade
	var got int
	env.gwA4.OnDeliverIP(func(IPPacket) { got++ })
	for i := 0; i < 5; i++ {
		err := env.gwA6.HandleIP(IPPacket{
			Src:     netip.AddrFrom4([4]byte{10, 6, byte(i), 1}),
			Dst:     netip.MustParseAddr("10.4.0.42"),
			Payload: []byte{byte(i)},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	env.s.Run()
	if got != 5 {
		t.Errorf("delivered = %d, want 5", got)
	}
	if env.gwA6.PerDstAS[a4] != 5 {
		t.Errorf("aggregated count = %d", env.gwA6.PerDstAS[a4])
	}
	if CarrierGrade.String() != "carrier-grade" || CPE.String() != "cpe" {
		t.Error("mode strings")
	}
}

func TestConnectionsSaved(t *testing.T) {
	leased, scion := ConnectionsSaved(20, 3)
	if leased != 60 || scion != 23 {
		t.Errorf("20x3: leased=%d scion=%d", leased, scion)
	}
}
