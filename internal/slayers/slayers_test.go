package slayers

import (
	"bytes"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"scionmpr/internal/addr"
)

var update = flag.Bool("update", false, "regenerate golden packet vectors")

func ia(isd, as uint64) addr.IA { return addr.IA{ISD: addr.ISD(isd), AS: addr.AS(as)} }

func mac6(b byte) [MACLen]byte {
	var m [MACLen]byte
	for i := range m {
		m[i] = b + byte(i)
	}
	return m
}

// goldenVectors are the committed wire-format packets: a 3-hop IPv4
// data packet mid-path, a minimal 1-hop service-addressed packet with
// no payload, a 2-hop IPv6/MAC-addressed packet, and an SCMP
// revocation quoting the first vector's header.
func goldenVectors(t *testing.T) map[string][]byte {
	t.Helper()
	vecs := map[string][]byte{}

	data3 := &SCION{
		TrafficClass: 0x20,
		FlowID:       0xabcde,
		NextHdr:      NextHdrUDP,
		PathType:     PathTypeSCION,
		DstIA:        ia(2, 221),
		SrcIA:        ia(1, 110),
		DstHost:      addr.HostIP4(ia(2, 221), 10, 0, 0, 2),
		SrcHost:      addr.HostIP4(ia(1, 110), 10, 0, 0, 1),
		CurrHF:       1,
		NumHops:      3,
		Info:         InfoField{ConsDir: true, SegID: 0xbeef, Timestamp: 0x5c100000},
		Hops: []HopField{
			{ExpTime: 63, ConsIngress: 0, ConsEgress: 2, MAC: mac6(0x10)},
			{ExpTime: 63, ConsIngress: 5, ConsEgress: 7, MAC: mac6(0x20)},
			{ExpTime: 63, ConsIngress: 3, ConsEgress: 0, MAC: mac6(0x30)},
		},
	}
	vecs["ipv4_3hop.bin"] = serializeVector(t, data3, []byte("hello scion"))

	svc := &SCION{
		FlowID:   1,
		NextHdr:  NextHdrUDP,
		PathType: PathTypeSCION,
		DstIA:    ia(1, 120),
		SrcIA:    ia(1, 110),
		DstHost:  addr.HostSvc(ia(1, 120), addr.SvcCS),
		SrcHost:  addr.HostIP4(ia(1, 110), 127, 0, 0, 1),
		CurrHF:   0,
		NumHops:  1,
		Info:     InfoField{ConsDir: true, Timestamp: 0x5c100000},
		Hops: []HopField{
			{ExpTime: 63, ConsIngress: 0, ConsEgress: 0, MAC: mac6(0x40)},
		},
	}
	vecs["svc_minimal.bin"] = serializeVector(t, svc, nil)

	v6 := &SCION{
		TrafficClass: 0xff,
		FlowID:       0xfffff,
		NextHdr:      NextHdrUDP,
		PathType:     PathTypeSCION,
		DstIA:        ia(3, 333),
		SrcIA:        ia(4, 444),
		DstHost: addr.Host{IA: ia(3, 333), Type: addr.HostMAC,
			Local: []byte{0xde, 0xad, 0xbe, 0xef, 0x00, 0x01}},
		SrcHost: addr.Host{IA: ia(4, 444), Type: addr.HostIPv6,
			Local: bytes.Repeat([]byte{0xfd, 0x00}, 8)},
		CurrHF:  0,
		NumHops: 2,
		Info:    InfoField{ConsDir: true, SegID: 7, Timestamp: 0x5c100000},
		Hops: []HopField{
			{ExpTime: 63, ConsIngress: 0, ConsEgress: 9, MAC: mac6(0x50)},
			{ExpTime: 63, ConsIngress: 4, ConsEgress: 0, MAC: mac6(0x60)},
		},
	}
	vecs["ipv6_mac_hosts.bin"] = serializeVector(t, v6, []byte{0xca, 0xfe})

	// SCMP revocation: quote the 3-hop vector's header, walk from hop 1.
	var orig SCION
	if err := orig.DecodeFromBytes(vecs["ipv4_3hop.bin"]); err != nil {
		t.Fatalf("decode own vector: %v", err)
	}
	quote := orig.HeaderBytes()
	scmpHdr := &SCION{
		FlowID:     orig.FlowID,
		NextHdr:    NextHdrSCMP,
		PayloadLen: uint16(SCMPHdrLen + len(quote)),
		PathType:   PathTypeEmpty,
		DstIA:      orig.SrcIA,
		SrcIA:      ia(1, 120),
		DstHost:    orig.SrcHost,
		SrcHost:    addr.HostSvc(ia(1, 120), addr.SvcBR),
	}
	hdrLen, err := scmpHdr.HdrLen()
	if err != nil {
		t.Fatalf("scmp hdr len: %v", err)
	}
	buf := make([]byte, hdrLen+SCMPHdrLen+len(quote))
	if _, err := scmpHdr.SerializeTo(buf); err != nil {
		t.Fatalf("serialize scmp hdr: %v", err)
	}
	msg := &SCMP{
		Type:     SCMPTypeRevokedLink,
		Offender: ia(1, 120),
		LinkIA:   ia(1, 120),
		LinkIf:   7,
		WalkIdx:  1,
		Quote:    quote,
	}
	if _, err := msg.SerializeTo(buf[hdrLen:]); err != nil {
		t.Fatalf("serialize scmp payload: %v", err)
	}
	vecs["scmp_revocation.bin"] = buf

	return vecs
}

func serializeVector(t *testing.T, s *SCION, payload []byte) []byte {
	t.Helper()
	s.PayloadLen = uint16(len(payload))
	hdr, err := s.HdrLen()
	if err != nil {
		t.Fatalf("hdr len: %v", err)
	}
	buf := make([]byte, hdr+len(payload))
	if _, err := s.SerializeTo(buf); err != nil {
		t.Fatalf("serialize: %v", err)
	}
	copy(buf[hdr:], payload)
	return buf
}

// TestGoldenVectors pins the wire format: the committed byte vectors
// must decode to the expected field values and re-serialize to the
// identical bytes. Run with -update to regenerate after a deliberate
// format change.
func TestGoldenVectors(t *testing.T) {
	vecs := goldenVectors(t)
	if *update {
		for name, b := range vecs {
			if err := os.WriteFile(filepath.Join("testdata", name), b, 0o644); err != nil {
				t.Fatalf("update %s: %v", name, err)
			}
		}
	}
	for name, want := range vecs {
		got, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatalf("read golden %s: %v (run with -update to generate)", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: committed vector differs from serializer output", name)
		}
	}

	var s SCION
	if err := s.DecodeFromBytes(vecs["ipv4_3hop.bin"]); err != nil {
		t.Fatalf("decode ipv4_3hop: %v", err)
	}
	if s.FlowID != 0xabcde || s.TrafficClass != 0x20 || s.NextHdr != NextHdrUDP {
		t.Errorf("common header fields: flow=%#x tc=%#x next=%d", s.FlowID, s.TrafficClass, s.NextHdr)
	}
	if s.SrcIA != ia(1, 110) || s.DstIA != ia(2, 221) {
		t.Errorf("IAs: %s -> %s", s.SrcIA, s.DstIA)
	}
	if !s.DstHost.Equal(addr.HostIP4(ia(2, 221), 10, 0, 0, 2)) {
		t.Errorf("dst host %s", s.DstHost)
	}
	if s.CurrHF != 1 || s.NumHops != 3 {
		t.Errorf("path meta: curr=%d hops=%d", s.CurrHF, s.NumHops)
	}
	if !s.Info.ConsDir || s.Info.SegID != 0xbeef || s.Info.Timestamp != 0x5c100000 {
		t.Errorf("info field %+v", s.Info)
	}
	hf, err := s.HopField(1)
	if err != nil || hf.ConsIngress != 5 || hf.ConsEgress != 7 || hf.MAC != mac6(0x20) {
		t.Errorf("hop 1 = %+v, %v", hf, err)
	}
	if string(s.Payload()) != "hello scion" {
		t.Errorf("payload %q", s.Payload())
	}
	if s.AtDestination() {
		t.Error("mid-path packet reports destination")
	}

	var c SCMP
	var outer SCION
	if err := outer.DecodeFromBytes(vecs["scmp_revocation.bin"]); err != nil {
		t.Fatalf("decode scmp outer: %v", err)
	}
	if outer.PathType != PathTypeEmpty || outer.NextHdr != NextHdrSCMP {
		t.Errorf("scmp outer: path=%d next=%d", outer.PathType, outer.NextHdr)
	}
	if err := c.DecodeFromBytes(outer.Payload()); err != nil {
		t.Fatalf("decode scmp payload: %v", err)
	}
	if c.Type != SCMPTypeRevokedLink || c.LinkIf != 7 || c.WalkIdx != 1 {
		t.Errorf("scmp fields: type=%d if=%d walk=%d", c.Type, c.LinkIf, c.WalkIdx)
	}
	var quoted SCION
	if err := quoted.DecodeHeader(c.Quote); err != nil {
		t.Fatalf("decode quote: %v", err)
	}
	if quoted.FlowID != 0xabcde || quoted.SrcIA != ia(1, 110) {
		t.Errorf("quoted header: flow=%#x src=%s", quoted.FlowID, quoted.SrcIA)
	}
}

// TestRoundTripProperty serializes randomized headers and asserts the
// decode inverts the encode exactly, including a second serialize to
// byte equality.
func TestRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	hostOf := func(ia addr.IA) addr.Host {
		switch rng.Intn(4) {
		case 0:
			return addr.HostIP4(ia, byte(rng.Intn(256)), 0, 0, byte(rng.Intn(256)))
		case 1:
			return addr.HostSvc(ia, uint16(rng.Intn(3)+1))
		case 2:
			local := make([]byte, 6)
			rng.Read(local)
			return addr.Host{IA: ia, Type: addr.HostMAC, Local: local}
		default:
			local := make([]byte, 16)
			rng.Read(local)
			return addr.Host{IA: ia, Type: addr.HostIPv6, Local: local}
		}
	}
	for iter := 0; iter < 500; iter++ {
		nh := rng.Intn(MaxHops) + 1
		src, dst := ia(uint64(rng.Intn(5)+1), uint64(rng.Intn(1000))), ia(uint64(rng.Intn(5)+1), uint64(rng.Intn(1000)))
		s := &SCION{
			TrafficClass: uint8(rng.Intn(256)),
			FlowID:       uint32(rng.Intn(1 << 20)),
			NextHdr:      NextHdrUDP,
			PathType:     PathTypeSCION,
			DstIA:        dst,
			SrcIA:        src,
			DstHost:      hostOf(dst),
			SrcHost:      hostOf(src),
			CurrHF:       uint8(rng.Intn(nh)),
			NumHops:      uint8(nh),
			Info: InfoField{
				ConsDir:   rng.Intn(2) == 0,
				SegID:     uint16(rng.Intn(1 << 16)),
				Timestamp: rng.Uint32(),
			},
		}
		for i := 0; i < nh; i++ {
			var m [MACLen]byte
			rng.Read(m[:])
			s.Hops = append(s.Hops, HopField{
				ExpTime:     uint8(rng.Intn(256)),
				ConsIngress: addr.IfID(rng.Intn(100)),
				ConsEgress:  addr.IfID(rng.Intn(100)),
				MAC:         m,
			})
		}
		payload := make([]byte, rng.Intn(200))
		rng.Read(payload)
		wire := serializeVector(t, s, payload)

		var d SCION
		if err := d.DecodeFromBytes(wire); err != nil {
			t.Fatalf("iter %d: decode: %v", iter, err)
		}
		if d.FlowID != s.FlowID || d.TrafficClass != s.TrafficClass ||
			d.SrcIA != s.SrcIA || d.DstIA != s.DstIA ||
			!d.SrcHost.Equal(s.SrcHost) || !d.DstHost.Equal(s.DstHost) ||
			d.CurrHF != s.CurrHF || d.NumHops != s.NumHops || d.Info != s.Info {
			t.Fatalf("iter %d: fields do not round-trip", iter)
		}
		hops, err := d.DecodeHops(nil)
		if err != nil {
			t.Fatalf("iter %d: hops: %v", iter, err)
		}
		for i, h := range hops {
			if h != s.Hops[i] {
				t.Fatalf("iter %d: hop %d = %+v, want %+v", iter, i, h, s.Hops[i])
			}
		}
		if !bytes.Equal(d.Payload(), payload) {
			t.Fatalf("iter %d: payload mismatch", iter)
		}
		// Re-serialize from decoded fields: byte-identical.
		d.Hops = hops
		again := serializeVector(t, &d, payload)
		if !bytes.Equal(again, wire) {
			t.Fatalf("iter %d: re-serialization differs", iter)
		}
	}
}

func TestInPlaceMutation(t *testing.T) {
	vecs := goldenVectors(t)
	wire := append([]byte(nil), vecs["ipv4_3hop.bin"]...)
	var s SCION
	if err := s.DecodeFromBytes(wire); err != nil {
		t.Fatal(err)
	}
	if err := s.IncPath(); err != nil {
		t.Fatal(err)
	}
	if s.CurrHF != 2 || !s.AtDestination() {
		t.Errorf("after inc: curr=%d", s.CurrHF)
	}
	var d SCION
	if err := d.DecodeFromBytes(wire); err != nil {
		t.Fatalf("re-decode mutated buffer: %v", err)
	}
	if d.CurrHF != 2 {
		t.Errorf("in-place CurrHF not visible on re-decode: %d", d.CurrHF)
	}
	if err := s.IncPath(); err == nil {
		t.Error("IncPath past last hop succeeded")
	}

	scmp := append([]byte(nil), vecs["scmp_revocation.bin"]...)
	var outer SCION
	var m SCMP
	if err := outer.DecodeFromBytes(scmp); err != nil {
		t.Fatal(err)
	}
	if err := m.DecodeFromBytes(outer.Payload()); err != nil {
		t.Fatal(err)
	}
	if err := m.SetWalkIdx(0); err != nil {
		t.Fatal(err)
	}
	var m2 SCMP
	var o2 SCION
	if err := o2.DecodeFromBytes(scmp); err != nil {
		t.Fatal(err)
	}
	if err := m2.DecodeFromBytes(o2.Payload()); err != nil {
		t.Fatal(err)
	}
	if m2.WalkIdx != 0 {
		t.Errorf("in-place WalkIdx not visible on re-decode: %d", m2.WalkIdx)
	}
}

// TestDecodeRejects enumerates structural violations the decoder must
// refuse.
func TestDecodeRejects(t *testing.T) {
	base := goldenVectors(t)["ipv4_3hop.bin"]
	mut := func(mutate func(b []byte)) []byte {
		b := append([]byte(nil), base...)
		mutate(b)
		return b
	}
	cases := map[string][]byte{
		"short":          base[:8],
		"truncated":      base[:len(base)-1],
		"trailing":       append(append([]byte(nil), base...), 0),
		"bad version":    mut(func(b []byte) { b[0] |= 0xf0 }),
		"bad path type":  mut(func(b []byte) { b[8] = 9 }),
		"bad host code":  mut(func(b []byte) { b[9] = 0xff }),
		"hdrlen zero":    mut(func(b []byte) { b[5] = 0 }),
		"hdrlen oversub": mut(func(b []byte) { b[5] = 255 }),
		"currhf high": mut(func(b []byte) {
			b[36] = b[36]&0xc0 | 3 // CurrHF == NumHops
		}),
		"currinf set": mut(func(b []byte) { b[36] |= 0x40 }),
		"seg1 set":    mut(func(b []byte) { b[39] |= 0x40 }),
	}
	for name, data := range cases {
		var s SCION
		if err := s.DecodeFromBytes(data); err == nil {
			t.Errorf("%s: decode accepted invalid packet", name)
		}
	}
	var s SCION
	if err := s.DecodeHeader(base); err == nil {
		t.Error("DecodeHeader accepted header+payload bytes")
	}
	var m SCMP
	if err := m.DecodeFromBytes(make([]byte, SCMPHdrLen-1)); err == nil {
		t.Error("SCMP decode accepted short payload")
	}
}

func TestSerializeRejects(t *testing.T) {
	ok := &SCION{
		NextHdr: NextHdrUDP, PathType: PathTypeSCION,
		DstIA: ia(1, 1), SrcIA: ia(1, 2),
		DstHost: addr.HostIP4(ia(1, 1), 1, 1, 1, 1),
		SrcHost: addr.HostIP4(ia(1, 2), 2, 2, 2, 2),
		NumHops: 1, Hops: []HopField{{}},
	}
	big := make([]byte, 4096)
	if _, err := ok.SerializeTo(big); err != nil {
		t.Fatalf("valid header rejected: %v", err)
	}
	for name, brk := range map[string]func(s *SCION){
		"flow too wide": func(s *SCION) { s.FlowID = 1 << 20 },
		"hop mismatch":  func(s *SCION) { s.NumHops = 2 },
		"zero hops":     func(s *SCION) { s.NumHops = 0; s.Hops = nil },
		"currhf high":   func(s *SCION) { s.CurrHF = 1 },
		"bad host":      func(s *SCION) { s.DstHost.Type = addr.HostNone },
		"short local":   func(s *SCION) { s.DstHost.Local = s.DstHost.Local[:2] },
		"bad path type": func(s *SCION) { s.PathType = 7 },
		"too many hops": func(s *SCION) { s.NumHops = 64; s.Hops = make([]HopField, 64) },
	} {
		s := *ok
		s.Hops = append([]HopField(nil), ok.Hops...)
		brk(&s)
		if _, err := s.SerializeTo(big); err == nil {
			t.Errorf("%s: serialize accepted invalid header", name)
		}
	}
	if _, err := ok.SerializeTo(big[:10]); err == nil {
		t.Error("serialize into short buffer succeeded")
	}
}

func TestSerializeAllocFree(t *testing.T) {
	vec := goldenVectors(t)["ipv4_3hop.bin"]
	var s SCION
	if err := s.DecodeFromBytes(vec); err != nil {
		t.Fatal(err)
	}
	hops, _ := s.DecodeHops(nil)
	s.Hops = hops
	buf := make([]byte, len(vec))
	var d SCION
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := s.SerializeTo(buf); err != nil {
			t.Fatal(err)
		}
		if err := d.DecodeFromBytes(vec); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("serialize+decode allocates %.1f times per packet", allocs)
	}
}

func TestHdrLenEncoding(t *testing.T) {
	// HdrLen is carried in 4-byte units; every supported host
	// combination must produce a 4-divisible header.
	for _, dt := range []addr.HostAddrType{addr.HostIPv4, addr.HostIPv6, addr.HostMAC, addr.HostService} {
		for _, st := range []addr.HostAddrType{addr.HostIPv4, addr.HostIPv6, addr.HostMAC, addr.HostService} {
			s := &SCION{
				PathType: PathTypeSCION,
				DstHost:  addr.Host{Type: dt, Local: make([]byte, dt.Len())},
				SrcHost:  addr.Host{Type: st, Local: make([]byte, st.Len())},
				NumHops:  3,
			}
			n, err := s.HdrLen()
			if err != nil {
				t.Fatalf("%s/%s: %v", dt, st, err)
			}
			if n%4 != 0 {
				t.Errorf("%s/%s: header length %d not 4-divisible", dt, st, n)
			}
		}
	}
}

// TestSerializeRawPath: the geometry SerializeTo records is the one a
// decode of the bytes finds, so an encoded packet needs no decode.
func TestSerializeRawPath(t *testing.T) {
	vecs := goldenVectors(t)
	for _, name := range []string{"ipv4_3hop.bin", "svc_minimal.bin", "ipv6_mac_hosts.bin"} {
		var d, e SCION
		if err := d.DecodeFromBytes(vecs[name]); err != nil {
			t.Fatal(err)
		}
		hops, _ := d.DecodeHops(nil)
		e = d
		e.Hops, e.raw, e.pathOff = hops, nil, 0 // only SerializeTo may set it
		serializeVector(t, &e, d.Payload())
		if e.RawPath() != d.RawPath() || e.RawPath() == (RawPath{}) {
			t.Errorf("%s: serialized geometry %+v, decoded %+v", name, e.RawPath(), d.RawPath())
		}
	}
}

// TestQuoteWalk builds an SCMP frame quoting each golden data packet, as
// a border router raises one, and holds the walk geometry its encoder
// hands over (QuoteWalk on the decoded original) to what a strict decode
// of the frame finds.
func TestQuoteWalk(t *testing.T) {
	vecs := goldenVectors(t)
	for _, name := range []string{"ipv4_3hop.bin", "svc_minimal.bin", "ipv6_mac_hosts.bin"} {
		var orig SCION
		if err := orig.DecodeFromBytes(vecs[name]); err != nil {
			t.Fatal(err)
		}
		quote := orig.HeaderBytes()
		hdr := SCION{NextHdr: NextHdrSCMP, PayloadLen: uint16(SCMPHdrLen + len(quote)), PathType: PathTypeEmpty,
			DstIA: orig.SrcIA, SrcIA: orig.DstIA, DstHost: orig.SrcHost, SrcHost: addr.HostSvc(orig.DstIA, addr.SvcBR)}
		hdrLen, err := hdr.HdrLen()
		if err != nil {
			t.Fatal(err)
		}
		frame := make([]byte, hdrLen+SCMPHdrLen+len(quote))
		if _, err := hdr.SerializeTo(frame); err != nil {
			t.Fatal(err)
		}
		msg := SCMP{Type: SCMPTypeRevokedLink, WalkIdx: orig.NumHops - 1, Quote: quote}
		if _, err := msg.SerializeTo(frame[hdrLen:]); err != nil {
			t.Fatal(err)
		}
		var s, q SCION
		var m SCMP
		if err := s.DecodeFromBytes(frame); err != nil {
			t.Fatal(err)
		}
		if got, want := orig.QuoteWalk(hdrLen), s.DecodeWalk(&m, &q); got != want || want == (RawWalk{}) {
			t.Errorf("%s: encoder's walk %+v, decoded %+v", name, got, want)
		}
	}
}

// TestRawWalk steps the golden SCMP frame home through its walk
// geometry: hop 1's ingress interface, then home, WalkIdx rewritten in
// place; a WalkIdx past the quoted path yields no geometry.
func TestRawWalk(t *testing.T) {
	frame := append([]byte(nil), goldenVectors(t)["scmp_revocation.bin"]...)
	var s, quote SCION
	var m SCMP
	if err := s.DecodeFromBytes(frame); err != nil {
		t.Fatal(err)
	}
	w := s.DecodeWalk(&m, &quote)
	if w == (RawWalk{}) || m.WalkIdx != 1 {
		t.Fatalf("no walk geometry (WalkIdx %d)", m.WalkIdx)
	}
	if in, home := w.Step(frame); in != 5 || home {
		t.Errorf("first step: ingress %d, home %v; want 5, false", in, home)
	}
	if s.DecodeWalk(&m, &quote) == (RawWalk{}) || m.WalkIdx != 0 {
		t.Errorf("WalkIdx %d after one step, want 0 in the bytes", m.WalkIdx)
	}
	if _, home := w.Step(frame); !home {
		t.Error("second step not home")
	}
	frame[len(frame)-len(m.Quote)-2] = 3 // WalkIdx = NumHops
	if w := s.DecodeWalk(&m, &quote); w != (RawWalk{}) {
		t.Errorf("WalkIdx %d past a 3-hop quote gave geometry %+v", m.WalkIdx, w)
	}
}
