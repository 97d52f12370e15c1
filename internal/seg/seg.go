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

// ASEntry is one hop of a PCB.
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

func (e *ASEntry) wireLen() int {
	return entryFixedLen + len(e.Peers)*peerEntryLen + len(e.Signature)
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
// A PCB is immutable once built: Extend returns a new beacon. The cached
// hop key and link list exploit that; code that mutates ASEntries in
// place (tests only) must not rely on them afterwards.
type PCB struct {
	Info      InfoField
	ASEntries []ASEntry

	hopsKey string
	links   []LinkKey
	// sigBuf is a recycled signature buffer carried by pooled carcasses
	// between Recycle and the next Extend (see Recycle).
	sigBuf []byte
}

// NewPCB initiates a beacon at a core AS with the given validity window.
func NewPCB(origin addr.IA, segID uint16, now sim.Time, lifetime sim.Time) *PCB {
	return &PCB{Info: InfoField{
		SegID:     segID,
		Origin:    origin,
		Timestamp: now,
		Expiry:    now + lifetime,
	}}
}

// Reinit re-initializes a zero-entry beacon in place for its next
// origination, preserving the origin and the cached origin hop key.
// Extensions copy the Info field by value, so re-initializing the base
// after extending it never perturbs the children. Origination servers
// reuse one base this way instead of allocating a fresh PCB per interval
// per link.
func (p *PCB) Reinit(segID uint16, now sim.Time, lifetime sim.Time) {
	if len(p.ASEntries) != 0 {
		panic("seg: Reinit of an extended PCB")
	}
	p.Info.SegID = segID
	p.Info.Timestamp = now
	p.Info.Expiry = now + lifetime
}

// Clone deep-copies the PCB so each neighbor propagation can extend its
// own copy.
func (p *PCB) Clone() *PCB {
	c := &PCB{Info: p.Info, ASEntries: make([]ASEntry, len(p.ASEntries)),
		hopsKey: p.hopsKey, links: p.links}
	copy(c.ASEntries, p.ASEntries)
	for i := range c.ASEntries {
		if p.ASEntries[i].Peers != nil {
			c.ASEntries[i].Peers = append([]PeerEntry(nil), p.ASEntries[i].Peers...)
		}
		if p.ASEntries[i].Signature != nil {
			c.ASEntries[i].Signature = append([]byte(nil), p.ASEntries[i].Signature...)
		}
	}
	return c
}

// WireLen is the exact encoded size in bytes.
func (p *PCB) WireLen() int {
	n := infoFieldLen + 1
	for i := range p.ASEntries {
		n += p.ASEntries[i].wireLen()
	}
	return n
}

// Encode serializes the PCB into an exactly WireLen-sized buffer. The
// layout is fixed-width fields in big-endian order; Decode inverts it.
func (p *PCB) Encode() []byte {
	return p.appendBody(make([]byte, 0, p.WireLen()), len(p.ASEntries), nil)
}

// AppendEncode appends the PCB's wire encoding to buf and returns the
// extended buffer, letting callers amortize encode allocations across
// many beacons (grow buf by WireLen up front).
func (p *PCB) AppendEncode(buf []byte) []byte {
	return p.appendBody(buf, len(p.ASEntries), nil)
}

// appendBody is the single encoder behind Encode, signature bodies, and
// Verify: it appends the info field, the first n AS entries with their
// signatures, and optionally one extra unsigned entry — which is exactly
// the byte string entry n's signature covers.
func (p *PCB) appendBody(buf []byte, n int, extra *ASEntry) []byte {
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
		buf = appendEntry(buf, &p.ASEntries[i], true)
	}
	if extra != nil {
		buf = appendEntry(buf, extra, false)
	}
	return buf
}

func appendEntry(buf []byte, e *ASEntry, withSig bool) []byte {
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

func appendU16(buf []byte, v uint16) []byte {
	return append(buf, byte(v>>8), byte(v))
}

func appendU64(buf []byte, v uint64) []byte {
	return append(buf,
		byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// Decode parses a PCB encoded by Encode. Signatures are assumed to be
// trust.SignatureLen bytes when present; entries written without a
// signature cannot be distinguished on the wire, so Decode requires every
// entry to be signed (which beaconing guarantees).
func Decode(b []byte) (*PCB, error) {
	r := wire.NewReader("seg: PCB", b)
	p := &PCB{}
	p.Info.SegID = r.U16()
	p.Info.Origin = addr.IAFromUint64(r.U64())
	p.Info.Timestamp = sim.Time(r.U64())
	p.Info.Expiry = sim.Time(r.U64())
	if n := r.Count(uint32(r.U8()), entryFixedLen+trust.SignatureLen); n > 0 {
		p.ASEntries = make([]ASEntry, n)
	}
	for i := 0; i < len(p.ASEntries) && r.Err() == nil; i++ {
		e := &p.ASEntries[i]
		e.Local = addr.IAFromUint64(r.U64())
		e.Next = addr.IAFromUint64(r.U64())
		e.Hop.ConsIngress = addr.IfID(r.U16())
		e.Hop.ConsEgress = addr.IfID(r.U16())
		e.Hop.ExpTime = r.U8()
		r.Copy(e.Hop.MAC[:])
		e.MTU = r.U16()
		if np := r.Count(uint32(r.U8()), peerEntryLen); np > 0 {
			e.Peers = make([]PeerEntry, np)
		}
		for j := range e.Peers {
			pe := &e.Peers[j]
			pe.Peer = addr.IAFromUint64(r.U64())
			pe.PeerIf = addr.IfID(r.U16())
			pe.LocalIf = addr.IfID(r.U16())
			r.Copy(pe.HopMAC[:])
		}
		e.Signature = make([]byte, trust.SignatureLen)
		r.Copy(e.Signature)
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return p, nil
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
// The returned beacon shares the receiver's per-entry Peers and
// Signature slices — safe because a built PCB is immutable (see the type
// comment); use Clone for a fully independent copy.
func (p *PCB) Extend(signer trust.Signer, next addr.IA, ingress, egress addr.IfID, peers []PeerEntry, mtu uint16) (*PCB, error) {
	return p.extendInto(nil, signer, next, ingress, egress, peers, mtu)
}

// ExtendInterned is Extend with identity caches (hop key, link list)
// interned in it, and the result drawn from the extension pool. Steady-
// state beaconing re-extends the same stored paths every interval, so
// repeat extensions reuse one shared hop-key string and link slice
// instead of rebuilding them. Pair with Recycle for beacons that end up
// rejected. it may be nil (plain pooled extension).
func (p *PCB) ExtendInterned(it *Interner, signer trust.Signer, next addr.IA, ingress, egress addr.IfID, peers []PeerEntry, mtu uint16) (*PCB, error) {
	return p.extendInto(it, signer, next, ingress, egress, peers, mtu)
}

func (p *PCB) extendInto(it *Interner, signer trust.Signer, next addr.IA, ingress, egress addr.IfID, peers []PeerEntry, mtu uint16) (*PCB, error) {
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

	out, _ := pcbPool.Get().(*PCB)
	if out == nil {
		// Pool miss: stored beacons keep their carcasses, so misses are
		// the norm in steady state. Carve the struct from the server's
		// arena instead of allocating individually.
		if it != nil {
			out = it.newPCB()
		} else {
			out = new(PCB)
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
		pcbPool.Put(out)
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
	*out = PCB{Info: p.Info, ASEntries: es}

	// Fill the identity caches incrementally from the parent's: beacon
	// stores key every insertion by HopsKey, and recomputing it from
	// scratch for each extended copy dominated beaconing profiles.
	if it != nil {
		out.hopsKey, out.links = it.extend(p, &e)
		return out, nil
	}
	out.hopsKey = extendHopsKey(p.HopsKey(), &e)
	out.links = extendLinks(p, &e)
	return out, nil
}

// extendLinks derives the child's traversed-link list from the parent's
// cached one plus the new entry's egress.
func extendLinks(p *PCB, e *ASEntry) []LinkKey {
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

// pcbPool recycles PCB carcasses (struct, AS-entry backing array,
// signature buffer) through originate → extend → propagate. Only beacons
// that provably left no references behind are returned to it (see
// Recycle); everything drawn from it is fully overwritten by extendInto.
// No New func: extendInto handles misses itself (arena when interning).
var pcbPool sync.Pool

// Recycle returns a beacon to the extension pool. The caller must own
// the only reference: the beacon was extended locally (or received) and
// then dropped without ever being stored, cloned, or shared. Stored
// beacons must never be recycled — children created by Extend share
// their Peers and Signature slices, and selector caches key on the PCB
// pointer.
func Recycle(p *PCB) {
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
	*p = PCB{ASEntries: es[:0], sigBuf: sig}
	pcbPool.Put(p)
}

// Interner dedups the identity caches Extend computes — the canonical
// hop-key string and traversed-link slice — across repeated extensions
// of the same (parent path, hop) combination. One interner belongs to
// one beacon server (one simulator actor); it must not be shared across
// parallel shards.
type Interner struct {
	m map[internKey]internVal
	// sigSlab is the signature arena: stored beacons hold their signature
	// buffers for as long as they live, so extensions carve 96-byte slots
	// out of chunked slabs (one allocation per 64 signatures) rather than
	// allocating each individually. pcbSlab and entrySlab arena the PCB
	// structs and AS-entry arrays the same way.
	sigSlab   []byte
	pcbSlab   []PCB
	entrySlab []ASEntry
}

// newPCB carves one PCB struct from the arena.
func (it *Interner) newPCB() *PCB {
	if len(it.pcbSlab) == 0 {
		it.pcbSlab = make([]PCB, 64)
	}
	p := &it.pcbSlab[0]
	it.pcbSlab = it.pcbSlab[1:]
	return p
}

// entrySpace carves an n-entry AS-entry array from the arena. The
// three-index slice caps it so later appends can never spill into a
// neighboring beacon's entries.
func (it *Interner) entrySpace(n int) []ASEntry {
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

// sigSpace carves one signature-sized slot from the slab. The three-index
// slice caps the slot so appends can never spill into a neighbor.
func (it *Interner) sigSpace() []byte {
	const chunk = 64 * trust.SignatureLen
	if cap(it.sigSlab)-len(it.sigSlab) < trust.SignatureLen {
		it.sigSlab = make([]byte, 0, chunk)
	}
	off := len(it.sigSlab)
	it.sigSlab = it.sigSlab[:off+trust.SignatureLen]
	return it.sigSlab[off:off:off+trust.SignatureLen]
}

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

// extend returns the interned identity caches for extending p by e,
// computing and retaining them on first use.
func (it *Interner) extend(p *PCB, e *ASEntry) (string, []LinkKey) {
	k := internKey{parent: p.HopsKey(), local: e.Local, ingress: e.Hop.ConsIngress, egress: e.Hop.ConsEgress}
	if v, ok := it.m[k]; ok {
		return v.hopsKey, v.links
	}
	v := internVal{hopsKey: extendHopsKey(k.parent, e), links: extendLinks(p, e)}
	if it.m == nil || len(it.m) >= internerCap {
		it.m = make(map[internKey]internVal, 256)
	}
	it.m[k] = v
	return v.hopsKey, v.links
}

// extendHopsKey appends one hop to a parent's canonical hop key,
// producing exactly what HopsKey would compute from scratch.
func extendHopsKey(parent string, e *ASEntry) string {
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

// Verify checks all AS entry signatures against v.
func (p *PCB) Verify(v trust.Verifier) error {
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

// Origin returns the initiating core AS.
func (p *PCB) Origin() addr.IA { return p.Info.Origin }

// Leaf returns the last AS on the beacon, or the origin for a fresh PCB.
func (p *PCB) Leaf() addr.IA {
	if len(p.ASEntries) == 0 {
		return p.Info.Origin
	}
	return p.ASEntries[len(p.ASEntries)-1].Local
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
// and contributes none.
func (p *PCB) Links() []LinkKey {
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
func (p *PCB) HopsKey() string {
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

// HopsKeyVia is HopsKey extended by a prospective egress interface.
func (p *PCB) HopsKeyVia(egress addr.IfID) string {
	return p.HopsKey() + "|via:" + strconv.FormatUint(uint64(egress), 10)
}

// ContainsAS reports whether ia already appears on the beacon (loop
// prevention during propagation).
func (p *PCB) ContainsAS(ia addr.IA) bool {
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

// IAs lists the ASes on the segment in beaconing order (origin first).
func (p *PCB) IAs() []addr.IA {
	out := make([]addr.IA, 0, len(p.ASEntries))
	for i := range p.ASEntries {
		out = append(out, p.ASEntries[i].Local)
	}
	return out
}

// NumHops returns the number of AS entries.
func (p *PCB) NumHops() int { return len(p.ASEntries) }

func (p *PCB) String() string {
	return fmt.Sprintf("PCB{%s seg=%d hops=%v}", p.Info.Origin, p.Info.SegID, p.IAs())
}
