package dataplane

import (
	"testing"
	"time"

	"scionmpr/internal/addr"
	"scionmpr/internal/beacon"
	"scionmpr/internal/combinator"
	"scionmpr/internal/core"
	"scionmpr/internal/seg"
	"scionmpr/internal/sim"
	"scionmpr/internal/topology"
	"scionmpr/internal/trust"
)

var (
	a1 = addr.MustIA(1, 0xff00_0000_0101)
	a2 = addr.MustIA(1, 0xff00_0000_0102)
	a4 = addr.MustIA(1, 0xff00_0000_0104)
	a5 = addr.MustIA(1, 0xff00_0000_0105)
	a6 = addr.MustIA(1, 0xff00_0000_0106)
)

// env builds a demo topology with a path A-6 -> ... -> A-4 derived from
// real beaconing, plus a fresh fabric for data-plane tests.
type env struct {
	topo   *topology.Graph
	infra  *trust.Infra
	sim    *sim.Simulator
	fabric *Fabric
	paths  []*FwdPath // A-6 to A-4 candidates
	run    *beacon.RunResult
}

func newEnv(t testing.TB) *env {
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
	s := &sim.Simulator{}
	e := &env{topo: topo, infra: infra, sim: s, run: run,
		fabric: NewFabric(s, topo, time.Millisecond, sim.NewLinkFaults(topo), infra.ForwardingKey)}
	// Paths A-6 -> A-4: up segments to A-2 joined with down segments to
	// A-4, plus shortcuts.
	if e.paths = e.pathsBetween(t, a6, a4); len(e.paths) == 0 {
		t.Fatal("no candidate paths")
	}
	return e
}

// pathsBetween derives authorized forwarding paths src -> dst from the
// beaconing run (up segments of src joined with down segments of dst
// at the core A-2).
func (e *env) pathsBetween(t testing.TB, src, dst addr.IA) []*FwdPath {
	t.Helper()
	term := func(origin, d addr.IA) []*seg.PCB {
		segs, err := e.run.Terminate(e.infra.SignerFor(d), origin, d, nil)
		if err != nil {
			t.Fatal(err)
		}
		return segs
	}
	var fps []*FwdPath
	for _, c := range combinator.AllPaths(term(a2, src), nil, term(a2, dst)) {
		fp, err := Authorize(c, e.infra.ForwardingKey)
		if err != nil {
			t.Fatal(err)
		}
		fps = append(fps, fp)
	}
	return fps
}

func TestAuthorizeAndVerify(t *testing.T) {
	e := newEnv(t)
	fp := e.paths[0]
	for i := range fp.Hops {
		if err := fp.Verify(i, e.infra.ForwardingKey); err != nil {
			t.Errorf("hop %d: %v", i, err)
		}
	}
	if err := fp.Verify(99, e.infra.ForwardingKey); err == nil {
		t.Error("out-of-range verify must fail")
	}
	// Tampering with the egress interface breaks the MAC.
	mut := &FwdPath{Hops: append([]HopField(nil), fp.Hops...)}
	mut.Hops[0].Hop.Out = 42
	if err := mut.Verify(0, e.infra.ForwardingKey); err == nil {
		t.Error("tampered hop field must fail verification")
	}
}

func TestEndToEndDelivery(t *testing.T) {
	e := newEnv(t)
	src := addr.HostIP4(a6, 10, 0, 0, 1)
	dst := addr.HostIP4(a4, 10, 0, 0, 2)

	var got *Packet
	e.fabric.OnDeliver(a4, func(p *Packet) { got = p })

	pkt := &Packet{Src: src, Dst: dst, Path: e.paths[0], Payload: []byte("hello scion")}
	if err := e.fabric.Inject(pkt); err != nil {
		t.Fatal(err)
	}
	e.sim.Run()
	if got == nil {
		t.Fatal("packet not delivered")
	}
	if string(got.Payload) != "hello scion" {
		t.Errorf("payload = %q", got.Payload)
	}
	if st := e.fabric.Stats(); st.Delivered != 1 || st.DroppedBadMAC != 0 {
		t.Errorf("stats: %+v", st)
	}
}

func TestInjectValidation(t *testing.T) {
	e := newEnv(t)
	if err := e.fabric.Inject(&Packet{}); err == nil {
		t.Error("pathless packet accepted")
	}
	bad := &Packet{Src: addr.HostIP4(a1, 1, 1, 1, 1), Path: e.paths[0]}
	if err := e.fabric.Inject(bad); err == nil {
		t.Error("source/path mismatch accepted")
	}
}

func TestForgedPacketDropped(t *testing.T) {
	e := newEnv(t)
	src := addr.HostIP4(a6, 10, 0, 0, 1)
	dst := addr.HostIP4(a4, 10, 0, 0, 2)
	forged := &FwdPath{Hops: append([]HopField(nil), e.paths[0].Hops...)}
	forged.Hops[1].MAC[0] ^= 0xff
	pkt := &Packet{Src: src, Dst: dst, Path: forged}
	if err := e.fabric.Inject(pkt); err != nil {
		t.Fatal(err)
	}
	e.sim.Run()
	if e.fabric.Stats().Delivered != 0 {
		t.Error("forged packet delivered")
	}
	if e.fabric.Stats().DroppedBadMAC == 0 {
		t.Error("forged packet not counted as bad MAC")
	}
}

func TestReversePath(t *testing.T) {
	e := newEnv(t)
	fp := e.paths[0]
	rev, err := fp.Reverse(e.infra.ForwardingKey)
	if err != nil {
		t.Fatal(err)
	}
	if len(rev.Hops) != len(fp.Hops) {
		t.Fatal("hop count changed")
	}
	if rev.Hops[0].Hop.IA != fp.Hops[len(fp.Hops)-1].Hop.IA {
		t.Error("reverse does not start at the old destination")
	}
	for i := range rev.Hops {
		if err := rev.Verify(i, e.infra.ForwardingKey); err != nil {
			t.Errorf("reverse hop %d: %v", i, err)
		}
	}
	// Send a packet back along the reversed path.
	var got *Packet
	e.fabric.OnDeliver(a6, func(p *Packet) { got = p })
	pkt := &Packet{
		Src:  addr.HostIP4(rev.Hops[0].Hop.IA, 1, 1, 1, 1),
		Dst:  addr.HostIP4(a6, 2, 2, 2, 2),
		Path: rev,
	}
	if err := e.fabric.Inject(pkt); err != nil {
		t.Fatal(err)
	}
	e.sim.Run()
	if got == nil {
		t.Error("reverse packet not delivered")
	}
}

func TestAuthorizeUnknownAS(t *testing.T) {
	e := newEnv(t)
	p := &combinator.Path{Hops: []combinator.Hop{{IA: addr.MustIA(9, 9), In: 0, Out: 1}}}
	if _, err := Authorize(p, e.infra.ForwardingKey); err == nil {
		t.Error("unknown AS must fail authorization")
	}
}

func TestPacketWireLen(t *testing.T) {
	e := newEnv(t)
	pkt := &Packet{
		Src:     addr.HostIP4(a6, 1, 1, 1, 1),
		Dst:     addr.HostIP4(a4, 2, 2, 2, 2),
		Path:    e.paths[0],
		Payload: make([]byte, 100),
	}
	// Exact slayers encoding: common header, two IAs, two padded IPv4
	// hosts, payload, path header.
	want := 12 + 16 + 4 + 4 + 100 + e.paths[0].WireLen()
	if got := pkt.WireLen(); got != want {
		t.Errorf("WireLen = %d, want %d", got, want)
	}
	if SCMPRevokedLink.String() != "revoked-link" || SCMPType(9).String() == "" {
		t.Error("SCMP type strings")
	}
}
