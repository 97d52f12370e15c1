package dataplane

import (
	"strings"
	"testing"

	"scionmpr/internal/addr"
	"scionmpr/internal/slayers"
)

func TestMTUEnforcedAtSource(t *testing.T) {
	e := newEnv(t)
	fp := e.paths[0]
	if fp.MTU == 0 {
		t.Fatal("combinator path carried no MTU")
	}
	src := addr.HostIP4(a6, 10, 0, 0, 1)
	dst := addr.HostIP4(a4, 10, 0, 0, 2)

	small := &Packet{Src: src, Dst: dst, Path: fp, Payload: make([]byte, 64)}
	if err := e.fabric.Inject(small); err != nil {
		t.Fatalf("small packet rejected: %v", err)
	}
	big := &Packet{Src: src, Dst: dst, Path: fp, Payload: make([]byte, int(fp.MTU)+1)}
	err := e.fabric.Inject(big)
	if err == nil {
		t.Fatal("oversized packet accepted")
	}
	if !strings.Contains(err.Error(), "MTU") {
		t.Errorf("unexpected error: %v", err)
	}
	if n := e.fabric.Stats().DroppedTooBig; n != 1 {
		t.Errorf("DroppedTooBig = %d", n)
	}
	// Unknown MTU (0) is not enforced; the wire format's 16-bit payload
	// length still is.
	open := &FwdPath{Hops: fp.Hops}
	huge := &Packet{Src: src, Dst: dst, Path: open, Payload: make([]byte, slayers.MaxPayloadLen)}
	if err := e.fabric.Inject(huge); err != nil {
		t.Errorf("MTU-less path must not enforce: %v", err)
	}
	huge.Payload = make([]byte, slayers.MaxPayloadLen+1)
	if err := e.fabric.Inject(huge); err == nil || !strings.Contains(err.Error(), "wire limit") {
		t.Errorf("payload over the wire limit: err = %v", err)
	}
}

// TestMTUWireBoundary pins MTU enforcement to the wire encoding: the
// byte count EncodePacket produces is exactly WireLen, a packet sized
// to exactly the path MTU is accepted and delivered by both planes, one
// byte more is rejected by both, and a zero-payload packet survives the
// full wire round trip.
func TestMTUWireBoundary(t *testing.T) {
	e, eng := newWireEnv(t)
	fp := e.paths[0]
	if fp.MTU == 0 {
		t.Fatal("path carried no MTU")
	}
	src := addr.HostIP4(a6, 10, 0, 0, 1)
	dst := addr.HostIP4(a4, 10, 0, 0, 2)
	mk := func(payload int) *Packet {
		return &Packet{Src: src, Dst: dst, Path: fp, Payload: make([]byte, payload), FlowID: 5}
	}
	overhead := mk(0).WireLen()
	room := int(fp.MTU) - overhead
	if room <= 1 {
		t.Fatalf("headers (%dB) leave no payload room under MTU %d", overhead, fp.MTU)
	}

	var engDelivered, fabDelivered []int
	eng.OnDeliver(a4, func(s *slayers.SCION) { engDelivered = append(engDelivered, len(s.Payload())) })
	e.fabric.OnDeliver(a4, func(p *Packet) { fabDelivered = append(fabDelivered, len(p.Payload)) })

	for _, tc := range []struct {
		name    string
		payload int
		fits    bool
	}{
		{"zero_payload", 0, true},
		{"exact_mtu", room, true},
		{"mtu_plus_one", room + 1, false},
	} {
		pkt := mk(tc.payload)
		// Wire encoding is exactly WireLen bytes, and at the boundary
		// WireLen is exactly the MTU.
		buf := make([]byte, pkt.WireLen())
		var s slayers.SCION
		n, err := EncodePacket(&s, pkt, buf)
		if err != nil {
			t.Fatalf("%s: encode: %v", tc.name, err)
		}
		if n != pkt.WireLen() {
			t.Errorf("%s: encoded %d bytes, WireLen %d", tc.name, n, pkt.WireLen())
		}
		if tc.payload == room && n != int(fp.MTU) {
			t.Errorf("exact_mtu: wire size %d != MTU %d", n, fp.MTU)
		}

		fabErr := e.fabric.Inject(mk(tc.payload))
		engErr := eng.Inject(mk(tc.payload))
		rawErr := eng.InjectBytes(buf, fp.MTU)
		if (fabErr == nil) != tc.fits || (engErr == nil) != tc.fits || (rawErr == nil) != tc.fits {
			t.Errorf("%s: fits=%v but fabric=%v engine=%v raw=%v",
				tc.name, tc.fits, fabErr, engErr, rawErr)
		}
	}
	e.sim.Run()
	eng.Flush()

	if len(fabDelivered) != 2 || fabDelivered[0] != 0 || fabDelivered[1] != room {
		t.Errorf("fabric delivered payloads %v, want [0 %d]", fabDelivered, room)
	}
	// The engine saw each fitting packet twice (Inject + InjectBytes).
	if len(engDelivered) != 4 {
		t.Fatalf("engine delivered %v, want 4 packets", engDelivered)
	}
	for i, want := range []int{0, 0, room, room} {
		if engDelivered[i] != want {
			t.Errorf("engine payload %d = %d, want %d", i, engDelivered[i], want)
		}
	}
	if e.fabric.Stats().DroppedTooBig != 1 || eng.Stats().DroppedTooBig != 2 {
		t.Errorf("too-big counters: fabric %d engine %d",
			e.fabric.Stats().DroppedTooBig, eng.Stats().DroppedTooBig)
	}
}

func TestMTUSurvivesAuthorizeAndReverse(t *testing.T) {
	e := newEnv(t)
	fp := e.paths[0]
	rev, err := fp.Reverse(e.infra.ForwardingKey)
	if err != nil {
		t.Fatal(err)
	}
	if rev.MTU != fp.MTU {
		t.Errorf("reverse MTU = %d, want %d", rev.MTU, fp.MTU)
	}
}
