package seg

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"scionmpr/internal/addr"
	"scionmpr/internal/sim"
	"scionmpr/internal/topology"
	"scionmpr/internal/trust"
)

// The differential tests grow random extension trees on the node
// representation and on the copying oracle of reference_test.go in
// lockstep — originations from a base that is re-initialized between
// them, extensions of any earlier beacon, terminations, peer entries,
// interned and plain extensions, failed signatures, recycled beacons
// whose nodes the next extensions reuse, decoded copies and tampered
// copies — and require every observable of each pair to agree after the
// step that built it and again at the end of the tree.

// refPair is one beacon in both representations.
type refPair struct {
	p *PCB
	r *refPCB
}

// errSigner fails every signature.
type errSigner struct{ ia addr.IA }

func (s errSigner) IA() addr.IA                 { return s.ia }
func (s errSigner) Sign([]byte) ([]byte, error) { return nil, errors.New("no key") }

// maxChainLen keeps the trees shallow enough to stay fast.
const maxChainLen = 12

// growTree runs steps of a random extension tree drawn from next and
// checks every beacon against the oracle.
func growTree(t *testing.T, inf *trust.Infra, steps int, next func() byte) {
	t.Helper()
	ias := topology.Demo().IAs()
	pick := func() addr.IA { return ias[int(next())%len(ias)] }
	origin := pick()
	base, rbase := NewPCB(origin, 1, 0, 6*hour), newRefPCB(origin, 1, 0, 6*hour)
	it, rit := &Interner{}, &refInterner{}
	live := []refPair{{base, rbase}}
	for step := 0; step < steps; step++ {
		op := next()
		if op%8 == 0 {
			segID, now := uint16(next())<<8|uint16(next()), sim.Time(next())*sim.Time(time.Minute)
			base.Reinit(segID, now, 6*hour)
			rbase.Reinit(segID, now, 6*hour)
			continue
		}
		parent := live[0] // origination from the base
		if op%8 > 2 {
			parent = live[int(next())%len(live)]
		}
		if parent.p.Len() >= maxChainLen {
			continue
		}
		// The signer is the beacon's leaf's neighbor in spirit, any AS
		// here; an origination is signed by the origin.
		local := pick()
		if parent.p.Len() == 0 {
			local = origin
		}
		var signer trust.Signer = inf.SignerFor(local)
		if next()%16 == 0 {
			signer = errSigner{local}
		}
		nextIA, ingress, egress := pick(), addr.IfID(next()%4), addr.IfID(next()%5)
		if parent.p.Len() == 0 {
			ingress = 0
		}
		if egress == 0 {
			nextIA = addr.IA{}
		}
		var peers []PeerEntry
		for k := next() % 3; k > 0; k-- {
			peers = append(peers, PeerEntry{Peer: pick(), PeerIf: addr.IfID(next()), LocalIf: addr.IfID(next()), HopMAC: [MACLen]byte{next()}})
		}
		mtu := [4]uint16{0, 1280, 1472, 9000}[next()%4]

		var (
			p    *PCB
			r    *refPCB
			err  error
			rerr error
		)
		switch next() % 3 {
		case 0:
			p, err = parent.p.Extend(signer, nextIA, ingress, egress, peers, mtu)
			r, rerr = parent.r.Extend(signer, nextIA, ingress, egress, peers, mtu)
		case 1:
			p, err = parent.p.ExtendInterned(it, signer, nextIA, ingress, egress, peers, mtu)
			r, rerr = parent.r.ExtendInterned(rit, signer, nextIA, ingress, egress, peers, mtu)
		default:
			p, err = parent.p.ExtendInterned(nil, signer, nextIA, ingress, egress, peers, mtu)
			r, rerr = parent.r.ExtendInterned(nil, signer, nextIA, ingress, egress, peers, mtu)
		}
		if (err == nil) != (rerr == nil) || err != nil && err.Error() != rerr.Error() {
			t.Fatalf("step %d: Extend error %v, oracle %v", step, err, rerr)
		}
		if err != nil {
			continue
		}
		checkAgainstRef(t, inf, ias, p, r)
		switch next() % 8 {
		case 0: // dropped unstored: the next extensions reuse its node
			Recycle(p)
			refRecycle(r)
		case 1: // a decoded copy takes its place in the tree
			d, err := Decode(p.Encode())
			if err != nil {
				t.Fatalf("step %d: decoding an encoded beacon: %v", step, err)
			}
			checkAgainstRef(t, inf, ias, d, r)
			live = append(live, refPair{d, r})
		case 2: // a tampered copy: one field of one entry changes
			es, res := p.AppendEntries(nil), append([]ASEntry(nil), r.ASEntries...)
			i, v := int(next())%len(es), next()
			switch next() % 4 {
			case 0:
				es[i].Hop.ConsEgress ^= addr.IfID(v) | 1
				res[i].Hop.ConsEgress ^= addr.IfID(v) | 1
			case 1:
				es[i].MTU ^= uint16(v) | 1
				res[i].MTU ^= uint16(v) | 1
			case 2:
				sig := append([]byte(nil), es[i].Signature...)
				sig[int(v)%len(sig)] ^= 0x80
				es[i].Signature, res[i].Signature = sig, sig
			default:
				es, res = es[:i], res[:i] // a prefix stays valid
			}
			tp, tr := fromEntries(p.Info, es), &refPCB{Info: r.Info, ASEntries: res}
			checkAgainstRef(t, inf, ias, tp, tr)
			live = append(live, refPair{p, r})
		default:
			live = append(live, refPair{p, r})
		}
	}
	// Later steps (re-initialized base, reused nodes, deeper children)
	// must have left every kept beacon as it was built.
	for _, lp := range live {
		checkAgainstRef(t, inf, ias, lp.p, lp.r)
	}
}

// checkAgainstRef compares every observable of p with the oracle's r.
func checkAgainstRef(t *testing.T, inf *trust.Infra, ias []addr.IA, p *PCB, r *refPCB) {
	t.Helper()
	enc, renc := p.Encode(), r.Encode()
	if !bytes.Equal(enc, renc) {
		t.Fatalf("%v: encoding differs from the oracle's\n got %x\nwant %x", p, enc, renc)
	}
	if got := p.AppendEncode([]byte{0xee}); !bytes.Equal(got[1:], renc) || got[0] != 0xee {
		t.Fatalf("%v: AppendEncode differs from the oracle's Encode", p)
	}
	if p.WireLen() != r.WireLen() || p.WireLen() != len(enc) {
		t.Fatalf("%v: WireLen %d, oracle %d, encoded %d", p, p.WireLen(), r.WireLen(), len(enc))
	}
	if p.Len() != len(r.ASEntries) || !reflect.DeepEqual(p.AppendEntries(nil), r.ASEntries) && len(r.ASEntries) > 0 {
		t.Fatalf("%v: entries %+v, oracle %+v", p, p.AppendEntries(nil), r.ASEntries)
	}
	for i := range r.ASEntries {
		if !reflect.DeepEqual(p.Entry(i), r.ASEntries[i]) {
			t.Fatalf("%v: Entry(%d) %+v, oracle %+v", p, i, p.Entry(i), r.ASEntries[i])
		}
	}
	if p.HopsKey() != r.HopsKey() || p.HopsHash() != r.HopsHash() {
		t.Fatalf("%v: HopsKey %q hash %x, oracle %q hash %x", p, p.HopsKey(), p.HopsHash(), r.HopsKey(), r.HopsHash())
	}
	if !reflect.DeepEqual(p.Links(), r.Links()) {
		t.Fatalf("%v: Links %v, oracle %v", p, p.Links(), r.Links())
	}
	err, rerr := p.Verify(inf), r.Verify(inf)
	if (err == nil) != (rerr == nil) || err != nil && err.Error() != rerr.Error() {
		t.Fatalf("%v: Verify %v, oracle %v", p, err, rerr)
	}
	for _, ia := range append(ias, addr.IA{}, addr.MustIA(9, 9)) {
		if p.ContainsAS(ia) != r.ContainsAS(ia) {
			t.Fatalf("%v: ContainsAS(%s) = %v, oracle %v", p, ia, p.ContainsAS(ia), r.ContainsAS(ia))
		}
	}
	leaf := r.Info.Origin
	if n := len(r.ASEntries); n > 0 {
		leaf = r.ASEntries[n-1].Local
	}
	if p.Leaf() != leaf || p.Info != r.Info {
		t.Fatalf("%v: leaf %s info %+v, oracle %s %+v", p, p.Leaf(), p.Info, leaf, r.Info)
	}
}

// TestChainMatchesReference grows seeded random trees.
func TestChainMatchesReference(t *testing.T) {
	inf := infra(t)
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		growTree(t, inf, 80, func() byte { return byte(rng.Intn(256)) })
	}
}

// FuzzExtendChain grows a tree from the fuzzer's bytes, read cyclically.
func FuzzExtendChain(f *testing.F) {
	inf := infra(f)
	f.Add([]byte{0})
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3})
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 4; i++ {
		b := make([]byte, 256)
		rng.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		i := 0
		growTree(t, inf, min(len(data), 200), func() byte {
			b := data[i%len(data)]
			i++
			return b
		})
	})
}
