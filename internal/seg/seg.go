// Package seg defines Path-segment Construction Beacons (PCBs) and the
// path segments they become. A PCB is initiated by a core AS and extended
// hop by hop: each AS appends an AS entry carrying its identity, the
// ingress and egress interface identifiers of the traversed inter-domain
// link, optional peering entries, an expiration, and a signature over the
// accumulated beacon (paper §2.2).
//
// Wire sizes are exact: every type has a WireLen that matches the length
// of its binary encoding, because the paper's scalability results are
// byte-level overhead comparisons (§5.2, ECDSA-384 signatures assumed).
package seg

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

	"scionmpr/internal/addr"
	"scionmpr/internal/sim"
	"scionmpr/internal/trust"
	"scionmpr/internal/wire"
)

// MACLen is the length of a hop field MAC (SCION uses 6 bytes).
const MACLen = 6

// HopField encodes which interfaces may be used to enter and leave an AS,
// protected by a MAC chained over the previous hop (packet-carried
// forwarding state, paper §2.3).
type HopField struct {
	ConsIngress addr.IfID // 0 at the origin core AS
	ConsEgress  addr.IfID // 0 at a terminating leaf entry
	ExpTime     uint8     // coarse relative expiration units
	MAC         [MACLen]byte
}

const hopFieldLen = 2 + 2 + 1 + MACLen

// PeerEntry advertises a peering link of the local AS so that up- and
// down-segments can be joined over it (valley-free peering shortcuts).
type PeerEntry struct {
	Peer    addr.IA
	PeerIf  addr.IfID // interface on the peer's side
	LocalIf addr.IfID // local interface to the peer
	HopMAC  [MACLen]byte
}

const peerEntryLen = 8 + 2 + 2 + MACLen

// ASEntry is one hop of a PCB, as Entry and AppendEntries return it.
type ASEntry struct {
	Local addr.IA
	// Next is the AS this entry's egress interface leads to; zero in a
	// terminated segment's last entry.
	Next      addr.IA
	Hop       HopField
	Peers     []PeerEntry
	MTU       uint16
	Signature []byte
}

// entryFixedLen is an AS entry without its peer entries and signature.
const entryFixedLen = 8 + 8 + hopFieldLen + 2 + 1

// InfoField carries the PCB's identity and validity window.
type InfoField struct {
	SegID     uint16
	Origin    addr.IA
	Timestamp sim.Time // initiation time
	Expiry    sim.Time // expiration time set by the origin
}

const infoFieldLen = 2 + 8 + 8 + 8

// PCB is a path-segment construction beacon (and, once registered, a path
// segment — up- and down-segments are the same object read in opposite
// directions, paper §2.2).
//
// A PCB is one immutable node: its own info field, its own (last) AS
// entry with the signature inline, and the beacon it extends, which
// holds the earlier entries. Extend copies no ancestor, so a tree of
// extensions shares its prefixes. Every cache is filled when the node is
// built and never written afterwards, so any shard may read a beacon
// another shard built. See DESIGN.md "PCB representation".
type PCB struct {
	Info InfoField

	// parent holds entries 0..n-2: nil at the first entry, and never a
	// zero-entry beacon (whose Info Reinit rewrites in place).
	parent *PCB
	local  addr.IA
	next   addr.IA
	hop    HopField
	mtu    uint16
	n      uint16 // AS entries, this node's included; 0 for a fresh beacon
	// wireLen is the whole beacon's encoded size.
	wireLen int32
	peers   []PeerEntry
	sig     [trust.SignatureLen]byte
	// asMask has asBit set for the origin and every entry's AS.
	asMask   uint64
	hopsKey  string
	hopsHash uint64
	links    []LinkKey
}

// NewPCB initiates a beacon at a core AS with the given validity window.
func NewPCB(origin addr.IA, segID uint16, now sim.Time, lifetime sim.Time) *PCB {
	key := origin.String()
	return &PCB{
		Info:    InfoField{SegID: segID, Origin: origin, Timestamp: now, Expiry: now + lifetime},
		wireLen: infoFieldLen + 1, asMask: asBit(origin), hopsKey: key, hopsHash: HashHops(key), links: []LinkKey{},
	}
}

// Reinit re-initializes a zero-entry beacon in place for its next
// origination, preserving the origin and the caches derived from it.
// No extension points at a zero-entry beacon, so this never perturbs the
// children. Origination servers reuse one base this way instead of
// allocating a fresh PCB per interval per link.
func (p *PCB) Reinit(segID uint16, now sim.Time, lifetime sim.Time) {
	if p.n != 0 {
		panic("seg: Reinit of an extended PCB")
	}
	p.Info.SegID = segID
	p.Info.Timestamp = now
	p.Info.Expiry = now + lifetime
}

// Len returns the number of AS entries.
func (p *PCB) Len() int { return int(p.n) }

// entry is the node's own AS entry. Peers and Signature alias the node's.
func (p *PCB) entry() ASEntry {
	return ASEntry{Local: p.local, Next: p.next, Hop: p.hop, Peers: p.peers, MTU: p.mtu, Signature: p.sig[:]}
}

// Entry returns a copy of AS entry i (0 <= i < Len), origin side first.
// Its Peers and Signature slices alias the beacon's: read them only.
func (p *PCB) Entry(i int) ASEntry {
	if i < 0 || i >= int(p.n) {
		panic(fmt.Sprintf("seg: entry %d of a %d-entry PCB", i, p.n))
	}
	q := p
	for k := int(p.n) - 1; k > i; k-- {
		q = q.parent
	}
	return q.entry()
}

// AppendEntries appends copies of all AS entries, origin side first, to
// dst and returns the extended slice (aliasing as Entry does).
func (p *PCB) AppendEntries(dst []ASEntry) []ASEntry {
	n := int(p.n)
	dst = slices.Grow(dst, n)[:len(dst)+n]
	tail := dst[len(dst)-n:]
	for q, i := p, n-1; i >= 0; q, i = q.parent, i-1 {
		tail[i] = q.entry()
	}
	return dst
}

// WireLen is the exact encoded size in bytes.
func (p *PCB) WireLen() int { return int(p.wireLen) }

// ownLen is the encoded size of the node's own AS entry, signature
// included.
func (p *PCB) ownLen() int32 {
	return int32(entryFixedLen + len(p.peers)*peerEntryLen + trust.SignatureLen)
}

// Encode serializes the PCB into an exactly WireLen-sized buffer. The
// layout is fixed-width fields in big-endian order; Decode inverts it.
func (p *PCB) Encode() []byte {
	return p.AppendEncode(make([]byte, 0, p.WireLen()))
}

// AppendEncode appends the PCB's wire encoding to buf and returns the
// extended buffer, letting callers amortize encode allocations across
// many beacons (grow buf by WireLen up front).
func (p *PCB) AppendEncode(buf []byte) []byte {
	return p.appendSigned(appendInfo(buf, &p.Info, p.n))
}

// appendInfo appends the info field and an AS-entry count.
func appendInfo(buf []byte, info *InfoField, count uint16) []byte {
	buf = appendU16(buf, info.SegID)
	buf = appendU64(buf, info.Origin.Uint64())
	buf = appendU64(buf, uint64(info.Timestamp))
	buf = appendU64(buf, uint64(info.Expiry))
	return append(buf, byte(count))
}

// appendSigned appends every AS entry, origin side first, each followed
// by its signature.
func (p *PCB) appendSigned(buf []byte) []byte {
	if p.n == 0 {
		return buf
	}
	if p.parent != nil {
		buf = p.parent.appendSigned(buf)
	}
	return append(p.appendEntry(buf), p.sig[:]...)
}

// appendEntry appends the node's own AS entry without its signature —
// the last part of the byte string that signature covers.
func (p *PCB) appendEntry(buf []byte) []byte {
	buf = appendU64(buf, p.local.Uint64())
	buf = appendU64(buf, p.next.Uint64())
	buf = appendU16(buf, uint16(p.hop.ConsIngress))
	buf = appendU16(buf, uint16(p.hop.ConsEgress))
	buf = append(buf, p.hop.ExpTime)
	buf = append(buf, p.hop.MAC[:]...)
	buf = appendU16(buf, p.mtu)
	buf = append(buf, byte(len(p.peers)))
	for i := range p.peers {
		pe := &p.peers[i]
		buf = appendU64(buf, pe.Peer.Uint64())
		buf = appendU16(buf, uint16(pe.PeerIf))
		buf = appendU16(buf, uint16(pe.LocalIf))
		buf = append(buf, pe.HopMAC[:]...)
	}
	return buf
}

func appendU16(buf []byte, v uint16) []byte {
	return append(buf, byte(v>>8), byte(v))
}

func appendU64(buf []byte, v uint64) []byte {
	return append(buf,
		byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// Decode parses a PCB encoded by Encode. Signatures are assumed to be
// trust.SignatureLen bytes, which every signer produces; Decode requires
// every entry to be signed (which beaconing guarantees). The entries'
// nodes share one allocation.
func Decode(b []byte) (*PCB, error) {
	r := wire.NewReader("seg: PCB", b)
	var info InfoField
	info.SegID = r.U16()
	info.Origin = addr.IAFromUint64(r.U64())
	info.Timestamp = sim.Time(r.U64())
	info.Expiry = sim.Time(r.U64())
	var nodes []PCB
	if n := r.Count(uint32(r.U8()), entryFixedLen+trust.SignatureLen); n > 0 {
		nodes = make([]PCB, n)
	}
	for i := 0; i < len(nodes) && r.Err() == nil; i++ {
		q := &nodes[i]
		q.local = addr.IAFromUint64(r.U64())
		q.next = addr.IAFromUint64(r.U64())
		q.hop.ConsIngress = addr.IfID(r.U16())
		q.hop.ConsEgress = addr.IfID(r.U16())
		q.hop.ExpTime = r.U8()
		r.Copy(q.hop.MAC[:])
		q.mtu = r.U16()
		if np := r.Count(uint32(r.U8()), peerEntryLen); np > 0 {
			q.peers = make([]PeerEntry, np)
		}
		for j := range q.peers {
			pe := &q.peers[j]
			pe.Peer = addr.IAFromUint64(r.U64())
			pe.PeerIf = addr.IfID(r.U16())
			pe.LocalIf = addr.IfID(r.U16())
			r.Copy(pe.HopMAC[:])
		}
		r.Copy(q.sig[:])
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	if len(nodes) == 0 {
		return NewPCB(info.Origin, info.SegID, info.Timestamp, info.Expiry-info.Timestamp), nil
	}
	return chain(info, nodes), nil
}

// chain links nodes (entries filled in, origin side first) into one
// beacon and fills every node's caches, as Extend would have one node at
// a time; it returns the last node. One hop-key string and one link
// slice serve the whole chain: an ancestor's are prefixes of them.
func chain(info InfoField, nodes []PCB) *PCB {
	var buf [256]byte
	b := info.Origin.AppendFormat(buf[:0])
	originLen := len(b)
	links := make([]LinkKey, 0, len(nodes))
	// ends[i] is node i's hop-key length and link count.
	type end struct{ key, links int }
	var small [16]end
	ends := small[:0]
	for i := range nodes {
		q := &nodes[i]
		b = appendHop(b, q.local, q.hop.ConsIngress, q.hop.ConsEgress)
		if q.hop.ConsEgress != 0 {
			links = append(links, LinkKey{IA: q.local, If: q.hop.ConsEgress})
		}
		ends = append(ends, end{len(b), len(links)})
	}
	key := string(b)
	// The caches of the zero-entry beacon the chain starts from.
	wireLen, mask, hash, keyLen := int32(infoFieldLen+1), asBit(info.Origin), HashHops(key[:originLen]), originLen
	for i := range nodes {
		q, e := &nodes[i], ends[i]
		q.Info = info
		if i > 0 {
			q.parent = &nodes[i-1]
		}
		q.n = uint16(i + 1)
		wireLen += q.ownLen()
		mask |= asBit(q.local)
		hash = hashMore(hash, key[keyLen:e.key])
		keyLen = e.key
		q.wireLen, q.asMask, q.hopsHash = wireLen, mask, hash
		q.hopsKey = key[:e.key]
		q.links = links[:e.links:e.links]
	}
	return &nodes[len(nodes)-1]
}

// Read decodes the PCB held in the next n bytes of r, for records that
// embed length-prefixed PCBs; one that does not decode fails r.
func Read(r *wire.Reader, n int) *PCB {
	body := r.Bytes(n)
	if r.Err() != nil {
		return nil
	}
	p, err := Decode(body)
	if err != nil {
		r.Failf("%w", err)
	}
	return p
}

// encBuf pools scratch buffers for signature bodies, which are built,
// hashed, and immediately discarded on the beaconing hot path.
var encBuf = sync.Pool{New: func() interface{} { return new([]byte) }}

// Extend appends a signed AS entry and returns the extended beacon (the
// receiver is not modified). ingress is 0 when local is the origin.
//
// The returned beacon is one new node that points at the receiver (when
// the receiver has entries) and holds peers as given: neither may be
// modified afterwards (see the type comment).
func (p *PCB) Extend(signer trust.Signer, next addr.IA, ingress, egress addr.IfID, peers []PeerEntry, mtu uint16) (*PCB, error) {
	return p.extendInto(nil, signer, next, ingress, egress, peers, mtu)
}

// ExtendInterned is Extend with identity caches (hop key, link list)
// interned in it. Steady-state beaconing re-extends the same stored
// paths every interval, so repeat extensions reuse one shared hop-key
// string and link slice instead of rebuilding them. Pair with Recycle
// for beacons that end up rejected. it may be nil (plain pooled
// extension).
func (p *PCB) ExtendInterned(it *Interner, signer trust.Signer, next addr.IA, ingress, egress addr.IfID, peers []PeerEntry, mtu uint16) (*PCB, error) {
	return p.extendInto(it, signer, next, ingress, egress, peers, mtu)
}

func (p *PCB) extendInto(it *Interner, signer trust.Signer, next addr.IA, ingress, egress addr.IfID, peers []PeerEntry, mtu uint16) (*PCB, error) {
	out, _ := pcbPool.Get().(*PCB)
	if out == nil {
		// A node of its own: nodes carved from a shared chunk would pin
		// the chunk for as long as any beacon extended from one lives.
		out = new(PCB)
	}
	local := signer.IA()
	*out = PCB{
		Info:  p.Info,
		local: local,
		next:  next,
		// The hop MAC chains over the previous hop's MAC (zero in a
		// zero-entry beacon) and the interfaces.
		hop:   HopField{ConsIngress: ingress, ConsEgress: egress, ExpTime: 63, MAC: chainMAC(p.hop.MAC, local, ingress, egress)},
		peers: peers,
		mtu:   mtu,
		n:     p.n + 1,
	}
	if p.n > 0 {
		out.parent = p
	}

	// The signature covers the info field, all previous signed entries,
	// and the new entry without its signature — so every hop
	// authenticates the full upstream beacon.
	bp := encBuf.Get().(*[]byte)
	body := out.appendEntry(p.appendSigned(appendInfo((*bp)[:0], &p.Info, out.n)))
	var sig []byte
	var err error
	if as, ok := signer.(trust.AppendSigner); ok {
		sig, err = as.AppendSign(out.sig[:0], body)
	} else {
		sig, err = signer.Sign(body)
	}
	*bp = body[:0]
	encBuf.Put(bp)
	if err == nil && len(sig) != trust.SignatureLen {
		err = trust.ErrBadLength
	}
	if err != nil {
		Recycle(out)
		return nil, fmt.Errorf("seg: extending PCB at %s: %w", local, err)
	}
	copy(out.sig[:], sig)

	// Fill the caches from the parent's: beacon stores key every
	// insertion by HopsKey, and recomputing it from scratch for each
	// extension dominated beaconing profiles.
	if it != nil {
		out.hopsKey, out.links = it.extend(p, out)
	} else {
		out.hopsKey, out.links = extendHopsKey(p.hopsKey, out), extendLinks(p.links, out)
	}
	out.hopsHash = hashMore(p.hopsHash, out.hopsKey[len(p.hopsKey):])
	out.asMask = p.asMask | asBit(local)
	out.wireLen = p.wireLen + out.ownLen()
	return out, nil
}

// extendLinks derives a node's traversed-link list from its parent's
// (base) plus its own egress.
func extendLinks(base []LinkKey, q *PCB) []LinkKey {
	if q.hop.ConsEgress != 0 {
		links := make([]LinkKey, len(base)+1)
		copy(links, base)
		links[len(base)] = LinkKey{IA: q.local, If: q.hop.ConsEgress}
		return links
	}
	return base // immutable; safe to share
}

// pcbPool recycles nodes through originate → extend → propagate. Only
// beacons that provably left no references behind are returned to it
// (see Recycle); everything drawn from it is fully overwritten by
// extendInto.
var pcbPool sync.Pool

// Recycle returns a beacon's node to the extension pool. The caller must
// own the only reference: the beacon was extended locally (or received)
// and then dropped without ever being stored, extended, or shared. A
// stored beacon must never be recycled: the beacons extended from it
// point at its node, and selector caches key on the PCB pointer.
func Recycle(p *PCB) {
	if p == nil {
		return
	}
	*p = PCB{}
	pcbPool.Put(p)
}

// Interner dedups the identity caches Extend computes — the canonical
// hop-key string and traversed-link slice — across repeated extensions
// of the same (parent path, hop) combination. One interner belongs to
// one beacon server (one simulator actor); it must not be shared across
// parallel shards.
type Interner struct{ m map[internKey]internVal }

// internerCap bounds retained entries; topologies with heavy path churn
// reset the table wholesale instead of growing without bound.
const internerCap = 1 << 16

type internKey struct {
	parent  string // parent beacon's hop key
	local   addr.IA
	ingress addr.IfID
	egress  addr.IfID
}

type internVal struct {
	hopsKey string
	links   []LinkKey
}

// extend returns the interned identity caches for extending p by node q,
// computing and retaining them on first use.
func (it *Interner) extend(p, q *PCB) (string, []LinkKey) {
	k := internKey{parent: p.hopsKey, local: q.local, ingress: q.hop.ConsIngress, egress: q.hop.ConsEgress}
	if v, ok := it.m[k]; ok {
		return v.hopsKey, v.links
	}
	v := internVal{hopsKey: extendHopsKey(k.parent, q), links: extendLinks(p.links, q)}
	if it.m == nil || len(it.m) >= internerCap {
		it.m = make(map[internKey]internVal, 256)
	}
	it.m[k] = v
	return v.hopsKey, v.links
}

// extendHopsKey appends node q's hop to its parent's canonical hop key,
// producing exactly what a key built from scratch holds.
func extendHopsKey(parent string, q *PCB) string {
	var hop [48]byte
	h := appendHop(hop[:0], q.local, q.hop.ConsIngress, q.hop.ConsEgress)
	var sb strings.Builder
	sb.Grow(len(parent) + len(h))
	sb.WriteString(parent)
	sb.Write(h)
	return sb.String()
}

// appendHop appends one hop of a hop key: "|<ia>:<ingress>:<egress>".
func appendHop(b []byte, ia addr.IA, in, eg addr.IfID) []byte {
	b = ia.AppendFormat(append(b, '|'))
	b = strconv.AppendUint(append(b, ':'), uint64(in), 10)
	return strconv.AppendUint(append(b, ':'), uint64(eg), 10)
}

// chainMAC derives a hop MAC deterministically; the dataplane package
// recomputes and checks it during forwarding.
func chainMAC(prev [MACLen]byte, ia addr.IA, in, out addr.IfID) [MACLen]byte {
	var buf [8 + MACLen + 4]byte
	binary.BigEndian.PutUint64(buf[:8], ia.Uint64())
	copy(buf[8:], prev[:])
	binary.BigEndian.PutUint16(buf[8+MACLen:], uint16(in))
	binary.BigEndian.PutUint16(buf[8+MACLen+2:], uint16(out))
	var mac [MACLen]byte
	// FNV-1a folded into 6 bytes: cheap, deterministic, collision-
	// resistant enough for simulation-scale integrity checks.
	var h uint64 = 14695981039346656037
	for _, b := range buf {
		h ^= uint64(b)
		h *= 1099511628211
	}
	for i := 0; i < MACLen; i++ {
		mac[i] = byte(h >> (8 * i))
	}
	return mac
}

// Verify checks all AS entry signatures against v. Entry i's signed body
// is entry i-1's plus that entry's signature and entry i, so one buffer
// grows along the chain.
func (p *PCB) Verify(v trust.Verifier) error {
	bp := encBuf.Get().(*[]byte)
	buf, err := p.verify(v, appendInfo((*bp)[:0], &p.Info, 0))
	*bp = buf[:0]
	encBuf.Put(bp)
	return err
}

// verify checks entries 0..n-1 on top of buf, which holds the info field
// and the signed entries before them, and returns buf with them appended.
func (p *PCB) verify(v trust.Verifier, buf []byte) ([]byte, error) {
	if p.n == 0 {
		return buf, nil
	}
	if p.parent != nil {
		var err error
		if buf, err = p.parent.verify(v, buf); err != nil {
			return buf, err
		}
	}
	buf = p.appendEntry(buf)
	buf[infoFieldLen] = byte(p.n)
	if err := v.Verify(p.local, buf, p.sig[:]); err != nil {
		return buf, fmt.Errorf("seg: entry %d (%s): %w", p.n-1, p.local, err)
	}
	return append(buf, p.sig[:]...), nil
}

// Origin returns the initiating core AS.
func (p *PCB) Origin() addr.IA { return p.Info.Origin }

// Leaf returns the last AS on the beacon, or the origin for a fresh PCB.
func (p *PCB) Leaf() addr.IA {
	if p.n == 0 {
		return p.Info.Origin
	}
	return p.local
}

// Expired reports whether the beacon is past its expiration at time now.
func (p *PCB) Expired(now sim.Time) bool { return now >= p.Info.Expiry }

// Age returns how long ago the beacon was initiated.
func (p *PCB) Age(now sim.Time) sim.Time { return now - p.Info.Timestamp }

// Remaining returns the remaining lifetime (zero if expired).
func (p *PCB) Remaining(now sim.Time) sim.Time {
	if p.Expired(now) {
		return 0
	}
	return p.Info.Expiry - now
}

// Lifetime returns the total validity window length.
func (p *PCB) Lifetime() sim.Time { return p.Info.Expiry - p.Info.Timestamp }

// LinkKey identifies one inter-domain link by its upstream endpoint
// (every interface belongs to exactly one link, so one side suffices).
// These keys are exactly the identifiers "already available in PCBs" that
// the diversity algorithm counts (paper §4.2).
type LinkKey struct {
	IA addr.IA
	If addr.IfID
}

func (k LinkKey) String() string { return fmt.Sprintf("%s#%s", k.IA, k.If) }

// Links returns the inter-domain links traversed by the beacon, upstream
// first, keyed by the upstream AS and its egress interface. Every entry
// with a non-zero egress contributes one link: in a beacon in flight the
// last entry's egress is the link the beacon was sent on (its far end is
// the receiving AS), while a terminated segment's last entry has egress 0
// and contributes none. The slice is shared: read it only.
func (p *PCB) Links() []LinkKey { return p.links }

// LinksVia returns Links plus the prospective egress link if the beacon
// were propagated by AS local out of its interface egress — the path the
// diversity algorithm scores before dissemination (local has not yet
// appended its own AS entry).
func (p *PCB) LinksVia(local addr.IA, egress addr.IfID) []LinkKey {
	base := p.Links()
	out := make([]LinkKey, len(base)+1)
	copy(out, base)
	out[len(base)] = LinkKey{IA: local, If: egress}
	return out
}

// HopsKey is a canonical identity of the traversed path (origin plus the
// interface-level hop sequence), used to detect "the same path" across
// PCB re-initiations with newer timestamps.
func (p *PCB) HopsKey() string { return p.hopsKey }

// HopsHash is HashHops(HopsKey()), extended incrementally as the beacon
// is. A table keyed by it must confirm a hit against HopsKey.
func (p *PCB) HopsHash() uint64 { return p.hopsHash }

// HashHops is the 64-bit FNV-1a hash of a hop key.
func HashHops(key string) uint64 { return hashMore(14695981039346656037, key) }

func hashMore(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// HopsKeyVia is HopsKey extended by a prospective egress interface.
func (p *PCB) HopsKeyVia(egress addr.IfID) string {
	return p.HopsKey() + "|via:" + strconv.FormatUint(uint64(egress), 10)
}

// asBit is ia's bit in a beacon's AS mask: a Fibonacci hash of the IA
// folded to 6 bits.
func asBit(ia addr.IA) uint64 { return 1 << (ia.Uint64() * 0x9e3779b97f4a7c15 >> 58) }

// ContainsAS reports whether ia already appears on the beacon (loop
// prevention during propagation). The AS mask answers most "no"s without
// walking the chain.
func (p *PCB) ContainsAS(ia addr.IA) bool {
	if p.asMask&asBit(ia) == 0 {
		return false
	}
	if p.Info.Origin == ia {
		return true
	}
	for q := p; q != nil && q.n > 0; q = q.parent {
		if q.local == ia {
			return true
		}
	}
	return false
}

// IAs lists the ASes on the segment in beaconing order (origin first).
func (p *PCB) IAs() []addr.IA {
	out := make([]addr.IA, p.n)
	for q, i := p, len(out)-1; i >= 0; q, i = q.parent, i-1 {
		out[i] = q.local
	}
	return out
}

func (p *PCB) String() string {
	return fmt.Sprintf("PCB{%s seg=%d hops=%v}", p.Info.Origin, p.Info.SegID, p.IAs())
}
