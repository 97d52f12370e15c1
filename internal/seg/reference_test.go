package seg

// The copying PCB that the node representation replaced, kept as the
// oracle of the differential tests: every extended beacon owns a fresh
// array of all its ancestors' AS entries. The code is the replaced
// seg.go's with the types and functions renamed (PCB -> refPCB, Interner
// -> refInterner, pcbPool -> refPool, and a ref prefix on the helpers
// the node representation changed); nothing else differs.

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"scionmpr/internal/addr"
	"scionmpr/internal/sim"
	"scionmpr/internal/trust"
)

type refPCB struct {
	Info      InfoField
	ASEntries []ASEntry

	hopsKey  string
	hopsHash uint64 // 0 until computed
	links    []LinkKey
	// sigBuf is a recycled signature buffer carried by pooled carcasses
	// between Recycle and the next Extend (see Recycle).
	sigBuf []byte
}

func newRefPCB(origin addr.IA, segID uint16, now sim.Time, lifetime sim.Time) *refPCB {
	return &refPCB{Info: InfoField{
		SegID:     segID,
		Origin:    origin,
		Timestamp: now,
		Expiry:    now + lifetime,
	}}
}

func (p *refPCB) Reinit(segID uint16, now sim.Time, lifetime sim.Time) {
	if len(p.ASEntries) != 0 {
		panic("seg: Reinit of an extended PCB")
	}
	p.Info.SegID = segID
	p.Info.Timestamp = now
	p.Info.Expiry = now + lifetime
}

func (e *ASEntry) refWireLen() int {
	return entryFixedLen + len(e.Peers)*peerEntryLen + len(e.Signature)
}

func (p *refPCB) WireLen() int {
	n := infoFieldLen + 1
	for i := range p.ASEntries {
		n += p.ASEntries[i].refWireLen()
	}
	return n
}

func (p *refPCB) Encode() []byte {
	return p.appendBody(make([]byte, 0, p.WireLen()), len(p.ASEntries), nil)
}

func (p *refPCB) AppendEncode(buf []byte) []byte {
	return p.appendBody(buf, len(p.ASEntries), nil)
}

func (p *refPCB) appendBody(buf []byte, n int, extra *ASEntry) []byte {
	buf = appendU16(buf, p.Info.SegID)
	buf = appendU64(buf, p.Info.Origin.Uint64())
	buf = appendU64(buf, uint64(p.Info.Timestamp))
	buf = appendU64(buf, uint64(p.Info.Expiry))
	count := n
	if extra != nil {
		count++
	}
	buf = append(buf, byte(count))
	for i := 0; i < n; i++ {
		buf = refAppendEntry(buf, &p.ASEntries[i], true)
	}
	if extra != nil {
		buf = refAppendEntry(buf, extra, false)
	}
	return buf
}

func refAppendEntry(buf []byte, e *ASEntry, withSig bool) []byte {
	buf = appendU64(buf, e.Local.Uint64())
	buf = appendU64(buf, e.Next.Uint64())
	buf = appendU16(buf, uint16(e.Hop.ConsIngress))
	buf = appendU16(buf, uint16(e.Hop.ConsEgress))
	buf = append(buf, e.Hop.ExpTime)
	buf = append(buf, e.Hop.MAC[:]...)
	buf = appendU16(buf, e.MTU)
	buf = append(buf, byte(len(e.Peers)))
	for i := range e.Peers {
		pe := &e.Peers[i]
		buf = appendU64(buf, pe.Peer.Uint64())
		buf = appendU16(buf, uint16(pe.PeerIf))
		buf = appendU16(buf, uint16(pe.LocalIf))
		buf = append(buf, pe.HopMAC[:]...)
	}
	if withSig {
		buf = append(buf, e.Signature...)
	}
	return buf
}

func (p *refPCB) Extend(signer trust.Signer, next addr.IA, ingress, egress addr.IfID, peers []PeerEntry, mtu uint16) (*refPCB, error) {
	return p.extendInto(nil, signer, next, ingress, egress, peers, mtu)
}

func (p *refPCB) ExtendInterned(it *refInterner, signer trust.Signer, next addr.IA, ingress, egress addr.IfID, peers []PeerEntry, mtu uint16) (*refPCB, error) {
	return p.extendInto(it, signer, next, ingress, egress, peers, mtu)
}

func (p *refPCB) extendInto(it *refInterner, signer trust.Signer, next addr.IA, ingress, egress addr.IfID, peers []PeerEntry, mtu uint16) (*refPCB, error) {
	e := ASEntry{
		Local: signer.IA(),
		Next:  next,
		Hop:   HopField{ConsIngress: ingress, ConsEgress: egress, ExpTime: 63},
		Peers: peers,
		MTU:   mtu,
	}
	// The hop MAC chains over the previous hop's MAC and the interfaces.
	var prev [MACLen]byte
	if n := len(p.ASEntries); n > 0 {
		prev = p.ASEntries[n-1].Hop.MAC
	}
	e.Hop.MAC = chainMAC(prev, e.Local, ingress, egress)

	out, _ := refPool.Get().(*refPCB)
	if out == nil {
		// Pool miss: stored beacons keep their carcasses, so misses are
		// the norm in steady state. Carve the struct from the server's
		// arena instead of allocating individually.
		if it != nil {
			out = it.newPCB()
		} else {
			out = new(refPCB)
		}
	}
	sigSpace := out.sigBuf

	// The signature covers the info field, all previous signed entries,
	// and the new entry without its signature — so every hop
	// authenticates the full upstream beacon.
	bp := encBuf.Get().(*[]byte)
	body := p.appendBody((*bp)[:0], len(p.ASEntries), &e)
	var (
		sig []byte
		err error
	)
	if as, ok := signer.(trust.AppendSigner); ok {
		space := sigSpace
		if it != nil && cap(space) < trust.SignatureLen {
			// Stored beacons keep their carcasses, so recycled signature
			// buffers are scarce in steady state; carve fresh ones from
			// the server's slab instead of allocating individually.
			space = it.sigSpace()
		}
		sig, err = as.AppendSign(space[:0], body)
	} else {
		sig, err = signer.Sign(body)
	}
	*bp = body[:0]
	encBuf.Put(bp)
	if err != nil {
		out.sigBuf = sigSpace
		refPool.Put(out)
		return nil, fmt.Errorf("seg: extending PCB at %s: %w", signer.IA(), err)
	}
	e.Signature = sig

	n := len(p.ASEntries)
	es := out.ASEntries
	if cap(es) < n+1 {
		if it != nil {
			es = it.entrySpace(n + 1)
		} else {
			es = make([]ASEntry, n+1)
		}
	} else {
		es = es[:n+1]
	}
	copy(es, p.ASEntries)
	es[n] = e
	*out = refPCB{Info: p.Info, ASEntries: es}

	// Fill the identity caches incrementally from the parent's: beacon
	// stores key every insertion by HopsKey, and recomputing it from
	// scratch for each extended copy dominated beaconing profiles.
	if it != nil {
		out.hopsKey, out.links = it.extend(p, &e)
	} else {
		out.hopsKey, out.links = refExtendHopsKey(p.HopsKey(), &e), refExtendLinks(p, &e)
	}
	out.hopsHash = hashMore(p.HopsHash(), out.hopsKey[len(p.HopsKey()):])
	return out, nil
}

func refExtendLinks(p *refPCB, e *ASEntry) []LinkKey {
	base := p.Links()
	if e.Hop.ConsEgress != 0 {
		links := make([]LinkKey, len(base)+1)
		copy(links, base)
		links[len(base)] = LinkKey{IA: e.Local, If: e.Hop.ConsEgress}
		return links
	}
	if base != nil {
		return base // immutable once cached; safe to share
	}
	return []LinkKey{} // non-nil: mark the empty list as computed
}

var refPool sync.Pool

func refRecycle(p *refPCB) {
	if p == nil {
		return
	}
	var sig []byte
	if n := len(p.ASEntries); n > 0 {
		// The final entry's signature was allocated by this beacon's own
		// extension and dies with it; keep the buffer for the next one.
		sig = p.ASEntries[n-1].Signature[:0]
	}
	es := p.ASEntries[:cap(p.ASEntries)]
	for i := range es {
		es[i] = ASEntry{} // drop Peers/Signature references shared with ancestors
	}
	*p = refPCB{ASEntries: es[:0], sigBuf: sig}
	refPool.Put(p)
}

type refInterner struct {
	m         map[refInternKey]internVal
	sigSlab   []byte
	pcbSlab   []refPCB
	entrySlab []ASEntry
}

func (it *refInterner) newPCB() *refPCB {
	if len(it.pcbSlab) == 0 {
		it.pcbSlab = make([]refPCB, 64)
	}
	p := &it.pcbSlab[0]
	it.pcbSlab = it.pcbSlab[1:]
	return p
}

func (it *refInterner) entrySpace(n int) []ASEntry {
	if cap(it.entrySlab)-len(it.entrySlab) < n {
		c := 256
		if n > c {
			c = n
		}
		it.entrySlab = make([]ASEntry, 0, c)
	}
	off := len(it.entrySlab)
	it.entrySlab = it.entrySlab[:off+n]
	return it.entrySlab[off : off+n : off+n]
}

func (it *refInterner) sigSpace() []byte {
	const chunk = 64 * trust.SignatureLen
	if cap(it.sigSlab)-len(it.sigSlab) < trust.SignatureLen {
		it.sigSlab = make([]byte, 0, chunk)
	}
	off := len(it.sigSlab)
	it.sigSlab = it.sigSlab[:off+trust.SignatureLen]
	return it.sigSlab[off : off : off+trust.SignatureLen]
}

type refInternKey struct {
	parent  string // parent beacon's hop key
	local   addr.IA
	ingress addr.IfID
	egress  addr.IfID
}

func (it *refInterner) extend(p *refPCB, e *ASEntry) (string, []LinkKey) {
	k := refInternKey{parent: p.HopsKey(), local: e.Local, ingress: e.Hop.ConsIngress, egress: e.Hop.ConsEgress}
	if v, ok := it.m[k]; ok {
		return v.hopsKey, v.links
	}
	v := internVal{hopsKey: refExtendHopsKey(k.parent, e), links: refExtendLinks(p, e)}
	if it.m == nil || len(it.m) >= internerCap {
		it.m = make(map[refInternKey]internVal, 256)
	}
	it.m[k] = v
	return v.hopsKey, v.links
}

func refExtendHopsKey(parent string, e *ASEntry) string {
	var sb strings.Builder
	sb.Grow(len(parent) + 24)
	sb.WriteString(parent)
	sb.WriteByte('|')
	sb.WriteString(e.Local.String())
	sb.WriteByte(':')
	sb.WriteString(strconv.FormatUint(uint64(e.Hop.ConsIngress), 10))
	sb.WriteByte(':')
	sb.WriteString(strconv.FormatUint(uint64(e.Hop.ConsEgress), 10))
	return sb.String()
}

func (p *refPCB) Verify(v trust.Verifier) error {
	bp := encBuf.Get().(*[]byte)
	buf := *bp
	defer func() {
		*bp = buf[:0]
		encBuf.Put(bp)
	}()
	for i := range p.ASEntries {
		e := &p.ASEntries[i]
		buf = p.appendBody(buf[:0], i, e)
		if err := v.Verify(e.Local, buf, e.Signature); err != nil {
			return fmt.Errorf("seg: entry %d (%s): %w", i, e.Local, err)
		}
	}
	return nil
}

func (p *refPCB) Links() []LinkKey {
	if p.links == nil {
		out := make([]LinkKey, 0, len(p.ASEntries))
		for i := range p.ASEntries {
			if eg := p.ASEntries[i].Hop.ConsEgress; eg != 0 {
				out = append(out, LinkKey{IA: p.ASEntries[i].Local, If: eg})
			}
		}
		p.links = out
	}
	return p.links
}

func (p *refPCB) HopsKey() string {
	if p.hopsKey == "" {
		var sb strings.Builder
		sb.Grow(16 + len(p.ASEntries)*24)
		sb.WriteString(p.Info.Origin.String())
		for i := range p.ASEntries {
			e := &p.ASEntries[i]
			sb.WriteByte('|')
			sb.WriteString(e.Local.String())
			sb.WriteByte(':')
			sb.WriteString(strconv.FormatUint(uint64(e.Hop.ConsIngress), 10))
			sb.WriteByte(':')
			sb.WriteString(strconv.FormatUint(uint64(e.Hop.ConsEgress), 10))
		}
		p.hopsKey = sb.String()
	}
	return p.hopsKey
}

func (p *refPCB) HopsHash() uint64 {
	if p.hopsHash == 0 {
		p.hopsHash = HashHops(p.HopsKey())
	}
	return p.hopsHash
}

func (p *refPCB) ContainsAS(ia addr.IA) bool {
	if p.Info.Origin == ia {
		return true
	}
	for i := range p.ASEntries {
		if p.ASEntries[i].Local == ia {
			return true
		}
	}
	return false
}
