package dataplane

import (
	"crypto/hmac"
	"testing"

	"scionmpr/internal/addr"
	"scionmpr/internal/combinator"
	"scionmpr/internal/slayers"
)

// mapMACTable is the expected-MAC table the dense rows replaced, kept
// verbatim but for its name as their oracle.
//
// macTable is one AS's expected hop-field MACs, keyed by interface
// pair (ingress<<16 | egress). A MAC is a pure function of (key, IA,
// in, out), so an entry never goes stale; only pairs of interfaces
// below ifs (the AS's own, 0 included) are kept, which bounds the table
// by the AS's interface pairs. The table belongs to its AS's router,
// which runs on one goroutine at a time, and is filled on a miss under
// macStates.
type mapMACTable struct {
	key  []byte
	ia   addr.IA
	ifs  int
	want map[uint32][MACLen]byte
}

// check reports whether mac is the genuine MAC of hop field (in, out).
func (t *mapMACTable) check(in, out addr.IfID, mac [MACLen]byte) bool {
	k := uint32(in)<<16 | uint32(out)
	want, ok := t.want[k]
	if !ok {
		want = hopMAC(t.key, combinator.Hop{IA: t.ia, In: in, Out: out})
		if int(in) < t.ifs && int(out) < t.ifs {
			if t.want == nil {
				t.want = map[uint32][MACLen]byte{}
			}
			t.want[k] = want
		}
	}
	return hmac.Equal(want[:], mac[:])
}

// filled lists the interface pairs whose expected MAC t keeps, in
// (in, out) order, and fails on a row not sized to the interface table.
func filled(t *macTable) [][2]addr.IfID {
	var pairs [][2]addr.IfID
	for in, row := range t.want {
		if row != nil && len(row) != len(t.want) {
			panic("macTable row not sized to the interface table")
		}
		for out, w := range row {
			if w.ok {
				pairs = append(pairs, [2]addr.IfID{addr.IfID(in), addr.IfID(out)})
			}
		}
	}
	return pairs
}

// FuzzMACTableMatchesMap runs the dense table and the map table it
// replaced in lockstep over an arbitrary interface count (below 4 096,
// which bounds the rows one input allocates) and a stream of hop fields,
// three bytes each: an ingress and an egress selector, and a tamper byte
// (0 leaves the genuine MAC, any other value flips bits of one MAC
// byte). A selector names interface 0, the last interface, one past the
// table or anything in [0, ifs]. Both tables must give the same verdict,
// the genuine one, on every hop field, and keep the same pairs.
func FuzzMACTableMatchesMap(f *testing.F) {
	f.Add([]byte("0123456789abcdef"), uint16(4), []byte{0, 1, 0, 1, 0, 0, 5, 9, 3, 2, 2, 0, 7, 1, 1})
	f.Add([]byte{}, uint16(0), []byte{0, 0, 0, 1, 1, 7, 2, 3, 0})
	f.Add([]byte{0xff}, uint16(1), []byte{0, 0, 0, 1, 0, 0, 0, 1, 9, 6, 10, 0})
	f.Add([]byte("k"), uint16(4095), []byte{1, 1, 0, 0, 1, 0, 1, 0, 0, 254, 255, 0, 2, 2, 1})

	f.Fuzz(func(t *testing.T, key []byte, ifs uint16, ops []byte) {
		ia := addr.MustIA(1, 0xff00_0000_0110)
		n := int(ifs % 4096)
		dense := macTable{key: key, ia: ia, want: make([][]expectedMAC, n)}
		ref := mapMACTable{key: key, ia: ia, ifs: n}
		iface := func(b byte) addr.IfID {
			switch b % 4 {
			case 0:
				return 0
			case 1:
				return addr.IfID(max(n-1, 0))
			case 2:
				return addr.IfID(n + int(b>>2))
			}
			return addr.IfID(int(b>>2) % (n + 1))
		}
		for ; len(ops) >= 3; ops = ops[3:] {
			in, out, tamper := iface(ops[0]), iface(ops[1]), ops[2]
			mac := hopMAC(key, combinator.Hop{IA: ia, In: in, Out: out})
			mac[int(tamper)%MACLen] ^= tamper
			got, want := dense.check(in, out, mac), ref.check(in, out, mac)
			if got != want || got != (tamper == 0) {
				t.Fatalf("hop (%d, %d) tamper %d on %d interfaces: dense %v, map %v", in, out, tamper, n, got, want)
			}
		}
		pairs := filled(&dense)
		if len(pairs) != len(ref.want) {
			t.Fatalf("dense table keeps %d pairs, map %d", len(pairs), len(ref.want))
		}
		for _, p := range pairs {
			if _, ok := ref.want[uint32(p[0])<<16|uint32(p[1])]; !ok {
				t.Fatalf("dense table keeps %v, the map does not", p)
			}
		}
	})
}

// TestFreeListFramesStartClean drives an engine through deliveries, bad
// MACs and revocations (whose SCMP frames walk home) and holds every
// frame on its free list, and every frame taken from it, to carrying
// nothing of its last journey: no path or walk geometry, no packet, not
// arrived.
func TestFreeListFramesStartClean(t *testing.T) {
	e, eng := newWireEnv(t)
	hop := e.paths[1].Hops[1].Hop
	eng.FailLink(e.topo.LinkByIf(hop.IA, hop.Out).ID)
	bad := testPacket(e, 0, []byte("bad"), 3)
	bad.Path = &FwdPath{Hops: append([]HopField(nil), bad.Path.Hops...)}
	bad.Path.Hops[1].MAC[0] ^= 1
	for _, pkt := range []*Packet{testPacket(e, 0, []byte("ok"), 1), testPacket(e, 1, []byte("revoked"), 2), bad} {
		if err := eng.Inject(pkt); err != nil {
			t.Fatal(err)
		}
	}
	eng.Flush()
	if st := eng.Stats(); st.Delivered != 1 || st.Revocations != 1 || st.DroppedBadMAC != 1 {
		t.Fatalf("stats %+v", st)
	}
	stale := func(f *frame) bool {
		return f.path != (slayers.RawPath{}) || f.walk != (slayers.RawWalk{}) || f.pkt != nil || f.arrived
	}
	free := len(eng.pool.free)
	if free == 0 {
		t.Fatal("no frame on the free list")
	}
	for i, f := range eng.pool.free {
		if stale(f) || len(f.b) != 0 {
			t.Errorf("free frame %d: %+v", i, *f)
		}
	}
	for i := 0; i < free; i++ {
		if f := eng.pool.get(64); stale(f) || len(f.b) != 64 {
			t.Errorf("frame %d from the free list: %+v", i, *f)
		}
	}
}
