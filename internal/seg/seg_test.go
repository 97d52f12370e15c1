package seg

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"scionmpr/internal/addr"
	"scionmpr/internal/sim"
	"scionmpr/internal/topology"
	"scionmpr/internal/trust"
	"scionmpr/internal/wire"
)

const hour = sim.Time(time.Hour)

func infra(t testing.TB) *trust.Infra {
	t.Helper()
	inf, err := trust.NewInfra(topology.Demo(), trust.Sized)
	if err != nil {
		t.Fatal(err)
	}
	return inf
}

// buildPCB extends a beacon A1 -> A3 -> A5 using the demo topology IAs.
func buildPCB(t *testing.T, inf *trust.Infra) *PCB {
	t.Helper()
	a1 := addr.MustIA(1, 0xff00_0000_0101)
	a3 := addr.MustIA(1, 0xff00_0000_0103)
	a5 := addr.MustIA(1, 0xff00_0000_0105)

	p := NewPCB(a1, 7, 0, 6*hour)
	p1, err := p.Extend(inf.SignerFor(a1), a3, 0, 2, nil, 1472)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := p1.Extend(inf.SignerFor(a3), a5, 1, 2, nil, 1472)
	if err != nil {
		t.Fatal(err)
	}
	p3, err := p2.Extend(inf.SignerFor(a5), addr.IA{}, 1, 0, []PeerEntry{
		{Peer: addr.MustIA(2, 0xff00_0000_0204), PeerIf: 9, LocalIf: 3},
	}, 1472)
	if err != nil {
		t.Fatal(err)
	}
	return p3
}

func TestExtendAndVerify(t *testing.T) {
	inf := infra(t)
	p := buildPCB(t, inf)
	if p.Len() != 3 {
		t.Fatalf("hops = %d", p.Len())
	}
	if err := p.Verify(inf); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

func TestVerifyDetectsTampering(t *testing.T) {
	inf := infra(t)
	p := buildPCB(t, inf)

	es := p.AppendEntries(nil)
	es[1].Hop.ConsEgress = 99
	if err := fromEntries(p.Info, es).Verify(inf); err == nil {
		t.Error("interface tampering must fail verification")
	}

	es = p.AppendEntries(nil)
	// truncation: last remaining entry still valid prefix
	if err := fromEntries(p.Info, es[:2]).Verify(inf); err != nil {
		t.Errorf("prefix must remain valid (beacons are extended, not sealed): %v", err)
	}

	info := p.Info
	info.Expiry += hour // origin-field tampering breaks every signature
	if err := fromEntries(info, es).Verify(inf); err == nil {
		t.Error("expiry tampering must fail verification")
	}

	es[0].Peers = append(es[0].Peers, PeerEntry{Peer: addr.MustIA(3, 1)})
	if err := fromEntries(p.Info, es).Verify(inf); err == nil {
		t.Error("peer-entry injection must fail verification")
	}

	// A node tampered with in place fails too, wherever in the chain.
	for i := 0; i < p.Len(); i++ {
		mut := p.Clone()
		mut.node(i).sig[0] ^= 0xff
		if err := mut.Verify(inf); err == nil {
			t.Errorf("signature %d tampering must fail verification", i)
		}
	}
}

func TestExtendDoesNotMutateReceiver(t *testing.T) {
	inf := infra(t)
	a1 := addr.MustIA(1, 0xff00_0000_0101)
	p := NewPCB(a1, 1, 0, 6*hour)
	p1, err := p.Extend(inf.SignerFor(a1), addr.MustIA(1, 2), 0, 2, nil, 1472)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 0 || p1.Len() != 1 {
		t.Error("Extend must be copy-on-write")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	inf := infra(t)
	p := buildPCB(t, inf)
	b := p.Encode()
	if len(b) != p.WireLen() {
		t.Fatalf("WireLen = %d, encoded = %d", p.WireLen(), len(b))
	}
	back, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if back.String() != p.String() || back.HopsKey() != p.HopsKey() {
		t.Errorf("round trip mismatch: %v vs %v", back, p)
	}
	if err := back.Verify(inf); err != nil {
		t.Errorf("decoded beacon failed verification: %v", err)
	}
	if back.Entry(2).Peers[0].Peer != p.Entry(2).Peers[0].Peer {
		t.Error("peer entries lost")
	}
}

func TestDecodeErrors(t *testing.T) {
	inf := infra(t)
	p := buildPCB(t, inf)
	b := p.Encode()
	if _, err := Decode(b[:len(b)-5]); err == nil {
		t.Error("truncated input must fail")
	}
	if _, err := Decode(append(b, 0)); err == nil {
		t.Error("trailing bytes must fail")
	}
	if _, err := Decode(nil); err == nil {
		t.Error("empty input must fail (decodes zero entries but underflows header)")
	}
	// A header claiming 255 entries with nothing behind it fails at the
	// count; it used to append 255 zero entries (96-byte signature each)
	// before reporting the truncation.
	unbacked := append(append([]byte(nil), b[:infoFieldLen]...), 255)
	if allocs := testing.AllocsPerRun(10, func() {
		if p, err := Decode(unbacked); err == nil || p != nil {
			t.Fatalf("unbacked entry count: %v, %v", p, err)
		}
	}); allocs > 8 { // the PCB, the error and its formatted arguments: 5 today, 269 before
		t.Errorf("unbacked entry count: %v allocations, want no entries allocated", allocs)
	}
}

// Read is how larger records (checkpoints, snapshots, lookup replies)
// embed length-prefixed PCBs.
func TestReadEmbeddedPCBs(t *testing.T) {
	p := buildPCB(t, infra(t))
	record := p.AppendEncode([]byte{0, byte(p.WireLen() >> 8), byte(p.WireLen())})
	record = append(record, 0xab)

	r := wire.NewReader("test: record", record)
	r.U8()
	back := Read(&r, int(r.U16()))
	if tail := r.U8(); r.Done() != nil || tail != 0xab || back.HopsKey() != p.HopsKey() {
		t.Fatalf("embedded PCB: %v, tail %#x, %v", back, tail, r.Err())
	}

	// A length that cuts the PCB short fails the record's reader, naming
	// both the record and the PCB; one that overruns the record never
	// reaches Decode.
	r = wire.NewReader("test: record", record)
	r.Bytes(3)
	if got := Read(&r, p.WireLen()-1); got != nil || r.Err() == nil ||
		!strings.HasPrefix(r.Err().Error(), "test: record seg: PCB truncated") {
		t.Errorf("short PCB: %v, %v", got, r.Err())
	}
	r = wire.NewReader("test: record", record)
	if got := Read(&r, len(record)+1); got != nil || r.Err() == nil {
		t.Errorf("overrunning length: %v, %v", got, r.Err())
	}
}

func TestWireLenMatchesEncodeProperty(t *testing.T) {
	inf := infra(t)
	f := func(nHops uint8, nPeers uint8) bool {
		hops := int(nHops%5) + 1
		peers := int(nPeers % 3)
		a1 := addr.MustIA(1, 0xff00_0000_0101)
		p := NewPCB(a1, 3, 0, 6*hour)
		signer := inf.SignerFor(a1)
		for i := 0; i < hops; i++ {
			var pe []PeerEntry
			for j := 0; j < peers; j++ {
				pe = append(pe, PeerEntry{Peer: addr.MustIA(2, addr.AS(j+1)), PeerIf: 1, LocalIf: 2})
			}
			var err error
			p, err = p.Extend(signer, a1, addr.IfID(i), addr.IfID(i+1), pe, 1400)
			if err != nil {
				return false
			}
		}
		return p.WireLen() == len(p.Encode())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestTimestamps(t *testing.T) {
	a := addr.MustIA(1, 1)
	p := NewPCB(a, 0, 2*hour, 6*hour)
	if p.Expired(hour) || p.Expired(7*hour) {
		t.Error("expiry boundaries wrong")
	}
	if !p.Expired(8 * hour) {
		t.Error("must be expired at 8h")
	}
	if p.Age(5*hour) != 3*hour {
		t.Errorf("age = %v", p.Age(5*hour))
	}
	if p.Remaining(5*hour) != 3*hour {
		t.Errorf("remaining = %v", p.Remaining(5*hour))
	}
	if p.Remaining(9*hour) != 0 {
		t.Error("remaining after expiry must be 0")
	}
	if p.Lifetime() != 6*hour {
		t.Errorf("lifetime = %v", p.Lifetime())
	}
}

func TestLinksAndKeys(t *testing.T) {
	inf := infra(t)
	p := buildPCB(t, inf)
	links := p.Links()
	if len(links) != 2 {
		t.Fatalf("links = %v", links)
	}
	a1 := addr.MustIA(1, 0xff00_0000_0101)
	if links[0].IA != a1 || links[0].If != 2 {
		t.Errorf("first link = %v", links[0])
	}
	local := addr.MustIA(2, 0xff00_0000_0201)
	via := p.LinksVia(local, 7)
	if len(via) != 3 || via[2].If != 7 || via[2].IA != local {
		t.Errorf("LinksVia = %v", via)
	}
	if p.HopsKeyVia(7) == p.HopsKey() {
		t.Error("via key must differ")
	}
	// Same path, new initiation time: keys equal.
	p2 := buildPCB(t, inf)
	p2.Info.Timestamp += hour
	if p.HopsKey() != p2.HopsKey() {
		t.Error("HopsKey must be timestamp independent")
	}
}

func TestContainsASAndLeaf(t *testing.T) {
	inf := infra(t)
	p := buildPCB(t, inf)
	a1 := addr.MustIA(1, 0xff00_0000_0101)
	a5 := addr.MustIA(1, 0xff00_0000_0105)
	if !p.ContainsAS(a1) || !p.ContainsAS(a5) {
		t.Error("ContainsAS missing on-path AS")
	}
	if p.ContainsAS(addr.MustIA(3, 1)) {
		t.Error("ContainsAS false positive")
	}
	if p.Leaf() != a5 {
		t.Errorf("leaf = %v", p.Leaf())
	}
	fresh := NewPCB(a1, 0, 0, hour)
	if fresh.Leaf() != a1 || !fresh.ContainsAS(a1) {
		t.Error("fresh beacon leaf/contains wrong")
	}
}

// fromEntries is the test constructor: it builds a beacon from info and
// entries as given, whatever their signatures say, so a test can build
// tampered or synthetic beacons. Each entry's peers are copied and its
// signature (SignatureLen bytes at most) is stored inline.
func fromEntries(info InfoField, entries []ASEntry) *PCB {
	if len(entries) == 0 {
		return NewPCB(info.Origin, info.SegID, info.Timestamp, info.Expiry-info.Timestamp)
	}
	nodes := make([]PCB, len(entries))
	for i, e := range entries {
		q := &nodes[i]
		q.local, q.next, q.hop, q.mtu = e.Local, e.Next, e.Hop, e.MTU
		q.peers = append([]PeerEntry(nil), e.Peers...)
		copy(q.sig[:], e.Signature)
	}
	return chain(info, nodes)
}

// node returns the node holding entry i.
func (p *PCB) node(i int) *PCB {
	q := p
	for k := p.Len() - 1; k > i; k-- {
		q = q.parent
	}
	return q
}

// Clone deep-copies the PCB so a test can tamper with its own copy.
func (p *PCB) Clone() *PCB { return fromEntries(p.Info, p.AppendEntries(nil)) }

func TestCloneIsDeep(t *testing.T) {
	inf := infra(t)
	p := buildPCB(t, inf)
	c := p.Clone()
	if !bytes.Equal(c.Encode(), p.Encode()) || c.HopsKey() != p.HopsKey() || c.HopsHash() != p.HopsHash() {
		t.Fatal("clone differs from its original")
	}
	c.node(0).sig[0] ^= 0xff
	c.peers[0].PeerIf = 42
	if p.Entry(0).Signature[0] == c.Entry(0).Signature[0] {
		t.Error("signature aliased")
	}
	if p.Entry(2).Peers[0].PeerIf == 42 {
		t.Error("peers aliased")
	}
}

func TestChainMACPropagation(t *testing.T) {
	inf := infra(t)
	p := buildPCB(t, inf)
	// MACs must all differ (chained over distinct state).
	m0, m1, m2 := p.Entry(0).Hop.MAC, p.Entry(1).Hop.MAC, p.Entry(2).Hop.MAC
	if m0 == m1 || m1 == m2 || m0 == m2 {
		t.Error("hop MACs must be distinct along the chain")
	}
}

func TestDecodeNeverPanicsOnRandomInput(t *testing.T) {
	// Robustness: arbitrary bytes must produce an error or a valid PCB,
	// never a panic or an out-of-bounds read.
	f := func(b []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Decode panicked on %x: %v", b, r)
			}
		}()
		p, err := Decode(b)
		return err != nil || p != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDecodeMutatedEncodings(t *testing.T) {
	inf := infra(t)
	p := buildPCB(t, inf)
	b := p.Encode()
	// Flip every byte position once; Decode must never panic and the
	// result must either fail to parse or fail verification (except for
	// mutations inside signature bytes of the last entry, which parse but
	// then fail Verify; and a same-value flip cannot happen since we xor).
	for i := range b {
		mut := append([]byte(nil), b...)
		mut[i] ^= 0xff
		dec, err := Decode(mut)
		if err != nil {
			continue
		}
		if err := dec.Verify(inf); err == nil {
			t.Fatalf("byte %d mutation survived decode+verify", i)
		}
	}
}
