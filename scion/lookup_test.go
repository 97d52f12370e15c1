package scion

import (
	"fmt"
	"net/netip"
	"testing"

	"scionmpr/internal/addr"
	"scionmpr/internal/seg"
	"scionmpr/internal/sig"
)

func TestRemoteLookupDownSegments(t *testing.T) {
	n := demoNet(t)
	// A-6's path server asks ISD-1 core A-2 for down-segments to A-4 —
	// the core-path-server query of paper §2.2 over a real data path.
	res, err := n.RemoteLookup(a6, a2, Request{Type: DownSeg, Dst: a4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Segments) == 0 {
		t.Fatal("no down-segments returned")
	}
	for _, s := range res.Segments {
		if s.Leaf() != a4 {
			t.Errorf("segment leaf = %v, want %v", s.Leaf(), a4)
		}
		// Replied segments carry valid signatures end to end.
		if err := s.Verify(n.Infra); err != nil {
			t.Errorf("replied segment failed verification: %v", err)
		}
	}
	if res.RequestBytes <= 0 || res.ReplyBytes <= res.RequestBytes {
		t.Errorf("wire sizes: req=%d rep=%d", res.RequestBytes, res.ReplyBytes)
	}
	if res.RTT <= 0 {
		t.Errorf("rtt = %d", res.RTT)
	}
}

func TestRemoteLookupCoreSegments(t *testing.T) {
	n := demoNet(t)
	// B-3 asks its core B-2 for core-segments to A-2 (intra-ISD scope).
	res, err := n.RemoteLookup(b3, b2, Request{Type: CoreSeg, Dst: a2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Segments) == 0 {
		t.Fatal("no core segments")
	}
	for _, s := range res.Segments {
		if s.Origin() != a2 {
			t.Errorf("core segment origin = %v", s.Origin())
		}
	}
}

func TestRemoteLookupLocal(t *testing.T) {
	n := demoNet(t)
	res, err := n.RemoteLookup(a6, a6, Request{Type: UpSeg})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Segments) == 0 {
		t.Fatal("no local up segments")
	}
	if res.RequestBytes != 0 || res.RTT != 0 {
		t.Error("local lookup must not cost wire bytes")
	}
}

func TestRemoteLookupUnknownDestination(t *testing.T) {
	n := demoNet(t)
	// Asking the right server for a destination with no registrations
	// yields an empty (but successful) reply.
	res, err := n.RemoteLookup(a6, a2, Request{Type: DownSeg, Dst: b3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Segments) != 0 {
		t.Errorf("unexpected segments for foreign destination: %d", len(res.Segments))
	}
}

func TestLookupWireCodecs(t *testing.T) {
	req := Request{Type: CoreSeg, Dst: a4}
	back, err := decodeRequest(encodeRequest(req))
	if err != nil || back != req {
		t.Fatalf("request round trip: %+v %v", back, err)
	}
	if _, err := decodeRequest([]byte{9, 9}); err == nil {
		t.Error("malformed request accepted")
	}
	if _, err := decodeReply([]byte{msgSegReply, 0}); err == nil {
		t.Error("truncated reply accepted")
	}
	if _, err := decodeReply([]byte{0x7f, 0, 0}); err == nil {
		t.Error("wrong reply tag accepted")
	}
	// Empty reply round trip.
	segs, err := decodeReply(encodeReply(nil))
	if err != nil || len(segs) != 0 {
		t.Fatalf("empty reply round trip: %v %v", segs, err)
	}
}

// The lookup decoders accept exactly what the encoders write.
func TestLookupDecodersAreStrict(t *testing.T) {
	n := demoNet(t)
	res, err := n.RemoteLookup(a6, a6, Request{Type: UpSeg})
	if err != nil || len(res.Segments) == 0 {
		t.Fatalf("no segments to encode: %v", err)
	}
	request := encodeRequest(Request{Type: DownSeg, Dst: a4})
	reply := encodeReply(res.Segments[:1])
	if segs, err := decodeReply(reply); err != nil || len(segs) != 1 || segs[0].HopsKey() != res.Segments[0].HopsKey() {
		t.Fatalf("reply round trip: %v %v", segs, err)
	}
	overcount := append([]byte(nil), reply...)
	overcount[4]++ // claims two segments, carries one
	for _, tc := range []struct {
		name   string
		decode func() error
	}{
		{"request + 1 byte", func() error { _, err := decodeRequest(append(request, 0)); return err }},
		{"request - 1 byte", func() error { _, err := decodeRequest(request[:len(request)-1]); return err }},
		{"reply + 1 byte", func() error { _, err := decodeReply(append(reply, 0)); return err }},
		{"reply - 1 byte", func() error { _, err := decodeReply(reply[:len(reply)-1]); return err }},
		{"reply count exceeds what follows", func() error { _, err := decodeReply(overcount); return err }},
		{"reply count with nothing behind it", func() error { _, err := decodeReply([]byte{msgSegReply, 0, 1, 0xff, 0xff}); return err }},
	} {
		if tc.decode() == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// encodeReply frames segs as a single-frame reply.
func encodeReply(segs []*seg.PCB) []byte { return encodeReplyFrame(0, 1, segs) }

// decodeReply parses a reply that must fit in one frame.
func decodeReply(b []byte) ([]*seg.PCB, error) {
	segs, _, total, err := decodeReplyFrame(b)
	if err == nil && total != 1 {
		return nil, fmt.Errorf("scion: multi-frame reply in single-frame decode")
	}
	return segs, err
}

// TestGatewayLeavesASReachable: a SCION-IP gateway takes only the
// SvcSG-addressed packets of its AS, so the AS's path server still
// answers remote lookups and its hosts still receive, beside the
// gateway's own tunnel traffic.
func TestGatewayLeavesASReachable(t *testing.T) {
	n := demoNet(t)
	a3 := addr.MustIA(1, 0xff00_0000_0103)
	var asmap sig.ASMap
	asmap.Add(netip.MustParsePrefix("10.3.0.0/16"), a3)
	asmap.Add(netip.MustParsePrefix("10.4.0.0/16"), a4)
	paths := func(src addr.IA) sig.PathProvider {
		return func(dst addr.IA) []*FwdPath {
			p, _ := n.Paths(src, dst)
			return p
		}
	}
	gw3 := sig.NewGateway(n, HostIP4(a3, 10, 3, 0, 1), sig.CPE, &asmap, paths(a3))
	gw4 := sig.NewGateway(n, HostIP4(a4, 10, 4, 0, 1), sig.CPE, &asmap, paths(a4))

	if _, err := n.RemoteLookup(a4, a3, Request{Type: UpSeg}); err != nil {
		t.Fatalf("lookup at the gateway's AS: %v", err)
	}
	dst, _ := n.Host(a3, 10, 3, 0, 7)
	got := 0
	dst.OnReceive(func(addr.Host, []byte) { got++ })
	src, _ := n.Host(a4, 10, 4, 0, 9)
	if err := src.Send(dst.Addr, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	var tunneled []byte
	gw3.OnDeliverIP(func(p sig.IPPacket) { tunneled = p.Payload })
	err := gw4.HandleIP(sig.IPPacket{
		Src:     netip.MustParseAddr("10.4.0.5"),
		Dst:     netip.MustParseAddr("10.3.0.5"),
		Payload: []byte("tunnel"),
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Run()
	if got != 1 {
		t.Errorf("host at the gateway's AS received %d packets, want 1", got)
	}
	if string(tunneled) != "tunnel" || gw3.Decapsulated != 1 {
		t.Errorf("gateway decapsulated %q (%d packets)", tunneled, gw3.Decapsulated)
	}
}
