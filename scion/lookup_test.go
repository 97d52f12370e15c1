package scion

import (
	"testing"

	"scionmpr/internal/pathdb"
)

func TestRemoteLookupDownSegments(t *testing.T) {
	n := demoNet(t)
	// A-6's path server asks ISD-1 core A-2 for down-segments to A-4 —
	// the core-path-server query of paper §2.2 over a real data path.
	res, err := n.RemoteLookup(a6, a2, pathdb.Request{Type: pathdb.Down, Dst: a4})
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
	res, err := n.RemoteLookup(b3, b2, pathdb.Request{Type: pathdb.Core, Dst: a2})
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
	res, err := n.RemoteLookup(a6, a6, pathdb.Request{Type: pathdb.Up})
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
	res, err := n.RemoteLookup(a6, a2, pathdb.Request{Type: pathdb.Down, Dst: b3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Segments) != 0 {
		t.Errorf("unexpected segments for foreign destination: %d", len(res.Segments))
	}
}

func TestLookupWireCodecs(t *testing.T) {
	req := pathdb.Request{Type: pathdb.Core, Dst: a4}
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
	res, err := n.RemoteLookup(a6, a6, pathdb.Request{Type: pathdb.Up})
	if err != nil || len(res.Segments) == 0 {
		t.Fatalf("no segments to encode: %v", err)
	}
	request := encodeRequest(pathdb.Request{Type: pathdb.Down, Dst: a4})
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
