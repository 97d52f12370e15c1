package dataplane

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"testing"

	"scionmpr/internal/addr"
	"scionmpr/internal/combinator"
	"scionmpr/internal/slayers"
)

// FuzzHopFieldMAC fuzzes the hop-field MAC with arbitrary keys and hop
// coordinates against an independent reference (a fresh HMAC-SHA256
// over the 12 covered bytes, truncated): the MAC must be a pure
// function of (key, IA, in, out), and a router's expected-MAC table
// must accept the genuine MAC, reject any single-bit tamper of it, and
// answer the same once the pair's entry is filled. A table keeps the
// pair when the AS has both interfaces and keeps nothing when it lacks
// one.
func FuzzHopFieldMAC(f *testing.F) {
	f.Add([]byte("0123456789abcdef"), uint64(0x0001_ff00_0000_0106), uint16(1), uint16(3), uint8(0))
	f.Add([]byte{}, uint64(0), uint16(0), uint16(0), uint8(47))
	f.Add([]byte{0xff}, ^uint64(0), ^uint16(0), ^uint16(0), uint8(13))

	f.Fuzz(func(t *testing.T, key []byte, iaRaw uint64, in, out uint16, flip uint8) {
		ia := addr.IAFromUint64(iaRaw)
		hop := combinator.Hop{IA: ia, In: addr.IfID(in), Out: addr.IfID(out)}

		var covered [12]byte
		binary.BigEndian.PutUint64(covered[:8], iaRaw)
		binary.BigEndian.PutUint16(covered[8:10], in)
		binary.BigEndian.PutUint16(covered[10:12], out)
		ref := hmac.New(sha256.New, key)
		ref.Write(covered[:])
		var want [MACLen]byte
		copy(want[:], ref.Sum(nil))

		m1 := hopMAC(key, hop)
		m2 := hopMAC(key, hop)
		if m1 != want || m2 != want {
			t.Fatalf("hopMAC %x, %x; reference %x", m1, m2, want)
		}

		bad := want
		bad[int(flip)%MACLen] ^= 1 << (flip % 8)
		// One table has every interface the hop names and keeps the
		// pair, one lacks the higher of them and keeps nothing.
		ifs := int(max(in, out)) + 1
		for _, n := range []int{ifs, ifs - 1} {
			tab := macTable{key: key, ia: ia, want: make([][]expectedMAC, n)}
			for round := 0; round < 2; round++ {
				if !tab.check(hop.In, hop.Out, want) {
					t.Fatalf("%d interfaces, round %d: table rejected genuine MAC %x", n, round, want)
				}
				if tab.check(hop.In, hop.Out, bad) {
					t.Fatalf("%d interfaces, round %d: table accepted tampered MAC %x (genuine %x)", n, round, bad, want)
				}
			}
			got, keeps := filled(&tab), n == ifs
			if keeps && (len(got) != 1 || got[0] != [2]addr.IfID{hop.In, hop.Out}) || !keeps && len(got) != 0 {
				t.Fatalf("%d interfaces: table keeps %v", n, got)
			}
		}
	})
}

// scmpFrame builds the wire bytes of an SCMP message about the packet
// whose encoding is orig, as a router at orig's hop walk would emit it.
func scmpFrame(t testing.TB, orig []byte, walk uint8, offender addr.IA) []byte {
	t.Helper()
	var o slayers.SCION
	if err := o.DecodeFromBytes(orig); err != nil {
		t.Fatal(err)
	}
	quote := o.HeaderBytes()
	hdr := slayers.SCION{
		FlowID:     o.FlowID,
		NextHdr:    slayers.NextHdrSCMP,
		PayloadLen: uint16(slayers.SCMPHdrLen + len(quote)),
		PathType:   slayers.PathTypeEmpty,
		DstIA:      o.SrcIA,
		SrcIA:      offender,
		DstHost:    o.SrcHost,
		SrcHost:    addr.HostSvc(offender, addr.SvcBR),
	}
	hdrLen, err := hdr.HdrLen()
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, hdrLen+slayers.SCMPHdrLen+len(quote))
	if _, err := hdr.SerializeTo(b); err != nil {
		t.Fatal(err)
	}
	msg := slayers.SCMP{Type: wireSCMPType(SCMPBadMAC), Offender: offender, WalkIdx: walk, Quote: quote}
	if _, err := msg.SerializeTo(b[hdrLen:]); err != nil {
		t.Fatal(err)
	}
	return b
}

// FuzzEngineInject pushes arbitrary bytes through InjectBytes + Flush
// on a default-constructed engine (one transit link failed, so
// revocations fire): it must never panic, Flush must return with
// every queue empty, and data frames are conserved — every accepted
// non-SCMP frame ends in exactly one of delivered or a drop counter.
func FuzzEngineInject(f *testing.F) {
	e := newEnv(f)
	transit := e.paths[1].Hops[1].Hop // the 3-hop path's middle AS
	failed := e.topo.LinkByIf(transit.IA, transit.Out)
	if failed == nil {
		f.Fatal("no transit link")
	}
	for i := range e.paths {
		pkt := testPacket(e, i, []byte("fuzz seed"), uint32(i+1))
		buf := encodeTestPacket(f, pkt)
		f.Add(buf)
		bad := append([]byte(nil), buf...)
		bad[len(bad)-len(pkt.Payload)-1] ^= 1 // last byte of the last hop field's MAC
		f.Add(bad)
		if i == 1 {
			f.Add(scmpFrame(f, buf, 1, transit.IA))
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		eng := NewEngine(e.topo, e.infra.ForwardingKey)
		eng.FailLink(failed.ID)
		var hdr slayers.SCION
		isSCMP := hdr.DecodeFromBytes(data) == nil && hdr.NextHdr == slayers.NextHdrSCMP
		var accepted uint64
		if err := eng.InjectBytes(data, 0); err == nil && !isSCMP {
			accepted = 1
		}
		eng.Flush()
		for a, q := range eng.queues {
			if len(q) != 0 || eng.queued != 0 {
				t.Fatalf("AS %s holds %d frames after Flush (%d queued in all)", eng.ias[a], len(q), eng.queued)
			}
		}
		st := eng.Stats()
		ended := st.Delivered + st.DroppedBadMAC + st.DroppedNoRoute + st.Revocations + st.DroppedGray
		if !isSCMP {
			ended += st.DroppedMalformed
		}
		if ended != accepted {
			t.Fatalf("accepted %d data frames, %d ended: %+v", accepted, ended, st)
		}
	})
}
