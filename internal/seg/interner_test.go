package seg

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"scionmpr/internal/addr"
	"scionmpr/internal/trust"
)

// hop is one extension step of the chain the interner tests build.
type hop struct {
	local, next     addr.IA
	ingress, egress addr.IfID
	peers           []PeerEntry
}

var internHops = []hop{
	{addr.MustIA(1, 0xff00_0000_0101), addr.MustIA(1, 0xff00_0000_0103), 0, 2, nil},
	{addr.MustIA(1, 0xff00_0000_0103), addr.MustIA(1, 0xff00_0000_0105), 1, 2, nil},
	{addr.MustIA(1, 0xff00_0000_0105), addr.IA{}, 1, 0, []PeerEntry{
		{Peer: addr.MustIA(2, 0xff00_0000_0204), PeerIf: 9, LocalIf: 3},
	}},
}

// extendChain extends a fresh beacon along internHops with extend and
// returns every step.
func extendChain(t *testing.T, inf *trust.Infra, extend func(p *PCB, signer trust.Signer, h hop) (*PCB, error)) []*PCB {
	t.Helper()
	p := NewPCB(internHops[0].local, 7, 0, 6*hour)
	var out []*PCB
	for _, h := range internHops {
		var err error
		if p, err = extend(p, inf.SignerFor(h.local), h); err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
	return out
}

func plainExtend(p *PCB, signer trust.Signer, h hop) (*PCB, error) {
	return p.Extend(signer, h.next, h.ingress, h.egress, h.peers, 1472)
}

func internedExtend(it *Interner) func(p *PCB, signer trust.Signer, h hop) (*PCB, error) {
	return func(p *PCB, signer trust.Signer, h hop) (*PCB, error) {
		return p.ExtendInterned(it, signer, h.next, h.ingress, h.egress, h.peers, 1472)
	}
}

// assertSameBeacon compares wire bytes and the identity caches, the
// incrementally extended path hash against one of the whole key.
func assertSameBeacon(t *testing.T, what string, got, want *PCB) {
	t.Helper()
	if !bytes.Equal(got.Encode(), want.Encode()) {
		t.Errorf("%s: encoding differs from Extend's", what)
	}
	if got.HopsKey() != want.HopsKey() {
		t.Errorf("%s: HopsKey %q, Extend gives %q", what, got.HopsKey(), want.HopsKey())
	}
	if h := HashHops(got.HopsKey()); got.HopsHash() != h || want.HopsHash() != h {
		t.Errorf("%s: HopsHash %x, Extend gives %x, the key hashes to %x", what, got.HopsHash(), want.HopsHash(), h)
	}
	if !reflect.DeepEqual(got.Links(), want.Links()) {
		t.Errorf("%s: Links %v, Extend gives %v", what, got.Links(), want.Links())
	}
}

func TestExtendInternedMatchesExtend(t *testing.T) {
	inf := infra(t)
	want := extendChain(t, inf, plainExtend)
	it := &Interner{}
	for _, c := range []struct {
		name   string
		extend func(*PCB, trust.Signer, hop) (*PCB, error)
	}{
		{"no interner", internedExtend(nil)},
		{"interner", internedExtend(it)},
		{"interner, again", internedExtend(it)}, // every identity cache is a hit
	} {
		for i, p := range extendChain(t, inf, c.extend) {
			assertSameBeacon(t, fmt.Sprintf("%s, step %d", c.name, i), p, want[i])
		}
	}
	// A repeated extension shares the interned caches instead of building
	// them again.
	a, b := extendChain(t, inf, internedExtend(it)), extendChain(t, inf, internedExtend(it))
	if &a[1].Links()[0] != &b[1].Links()[0] {
		t.Error("repeated extension did not share the interned link slice")
	}
}

// TestRecycledCarcassReextends: a recycled beacon's node, drawn again by
// the next extension, must yield the bytes a fresh extension yields.
func TestRecycledCarcassReextends(t *testing.T) {
	inf := infra(t)
	it := &Interner{}
	base := extendChain(t, inf, internedExtend(it))[1]
	h := internHops[2]
	signer := inf.SignerFor(h.local)
	want, err := base.Extend(signer, h.next, h.ingress, h.egress, h.peers, 1472)
	if err != nil {
		t.Fatal(err)
	}
	reused := false
	for try := 0; try < 64 && !reused; try++ {
		p, err := base.ExtendInterned(it, signer, h.next, h.ingress, h.egress, h.peers, 1472)
		if err != nil {
			t.Fatal(err)
		}
		assertSameBeacon(t, "extension", p, want)
		Recycle(p)
		if p.parent != nil || p.peers != nil || p.links != nil || p.hopsKey != "" || p.n != 0 {
			t.Fatal("recycled node still references its parent, peers or caches")
		}
		q, err := base.ExtendInterned(it, signer, h.next, h.ingress, h.egress, h.peers, 1472)
		if err != nil {
			t.Fatal(err)
		}
		reused = q == p
		assertSameBeacon(t, "re-extension", q, want)
	}
	if !reused {
		t.Fatal("the extension pool never handed a recycled carcass back")
	}
	if err := base.Verify(inf); err != nil {
		t.Errorf("recycling its children broke the parent: %v", err)
	}
	Recycle(nil) // a no-op
}

// TestSiblingSlicesAreCapped: the slices a beacon hands out (entries,
// signatures, the interned link list siblings share) are capped at their
// length, so an append reallocates instead of writing into a sibling's.
func TestSiblingSlicesAreCapped(t *testing.T) {
	it := &Interner{}
	inf := infra(t)
	parent := extendChain(t, inf, internedExtend(it))[1]
	h := internHops[2]
	signer := inf.SignerFor(h.local)
	c1, err := parent.ExtendInterned(it, signer, h.next, h.ingress, h.egress, h.peers, 1472)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := parent.ExtendInterned(it, signer, h.next, 2, h.egress, nil, 1472)
	if err != nil {
		t.Fatal(err)
	}
	before, links := c2.Encode(), append([]LinkKey(nil), c2.Links()...)
	entries := append(c1.AppendEntries(nil), ASEntry{MTU: 1})
	signature := append(c1.Entry(c1.Len()-1).Signature, 0xff)
	grown := append(c1.Links(), LinkKey{If: 99})
	if !bytes.Equal(c2.Encode(), before) || !reflect.DeepEqual(c2.Links(), links) ||
		len(entries) != 4 || len(signature) != trust.SignatureLen+1 || len(grown) != len(links)+1 {
		t.Error("appending to one arena-built beacon changed its sibling")
	}
}

func TestReinitPanicsOnExtendedPCB(t *testing.T) {
	inf := infra(t)
	base := NewPCB(internHops[0].local, 7, 0, 6*hour)
	key := base.HopsKey()
	base.Reinit(8, hour, 2*hour)
	if base.Info.SegID != 8 || base.Info.Timestamp != hour || base.Info.Expiry != 3*hour || base.HopsKey() != key {
		t.Errorf("Reinit: info %+v, hops key %q (was %q)", base.Info, base.HopsKey(), key)
	}
	extended := extendChain(t, inf, plainExtend)[0]
	defer func() {
		if recover() == nil {
			t.Error("Reinit of an extended PCB did not panic")
		}
	}()
	extended.Reinit(9, 0, hour)
}
