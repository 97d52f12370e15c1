// Package dataplane implements SCION packet forwarding with
// packet-carried forwarding state (PCFS): forwarding paths are stamped
// into packets as cryptographically MACed hop fields, so border routers
// keep no per-path or per-flow state and only verify and forward (paper
// §2.3 and Mechanism 4 of §4.1). Link failures trigger SCMP messages from
// the border router observing the failure back to the sender, enabling
// sub-RTT failover to an alternative path (§4.1 "Path Revocations").
package dataplane

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"sync"

	"scionmpr/internal/addr"
	"scionmpr/internal/combinator"
	"scionmpr/internal/slayers"
	"scionmpr/internal/topology"
)

// MACLen is the per-hop-field MAC length (6 bytes, as in SCION).
const MACLen = 6

// HopField is one authorized hop: which interfaces the packet may use to
// enter and leave the AS, MACed with the AS's forwarding key.
type HopField struct {
	Hop combinator.Hop
	MAC [MACLen]byte
}

// FwdPath is a forwarding path carried in packet headers.
type FwdPath struct {
	Hops []HopField
	// MTU is the end-to-end path MTU inherited from the combinator path
	// (0 = unknown, not enforced).
	MTU uint16
}

// KeyFunc returns the forwarding key of an AS (nil if unknown).
type KeyFunc func(addr.IA) []byte

// macStates reuses one keyed HMAC state per forwarding key: hop-field
// verification runs once per hop for every packet a border router sees,
// and re-deriving the HMAC inner/outer pads there dominated data-plane
// CPU under load. Reset on a keyed state restores the pads without
// re-keying, and produces identical MACs.
var macStates = struct {
	sync.Mutex
	m map[string]hash.Hash
}{m: map[string]hash.Hash{}}

// keyedMAC returns the cached HMAC state of key. The caller holds
// macStates locked for as long as it uses the state.
func keyedMAC(key []byte) hash.Hash {
	m := macStates.m[string(key)]
	if m == nil {
		m = hmac.New(sha256.New, key)
		macStates.m[string(key)] = m
	}
	return m
}

// macOver is the hop field MAC: HMAC-SHA256 over the 12 bytes
// (IA, in, out) on the keyed state m, truncated to MACLen. Everything
// that stamps or checks a hop field computes it here.
func macOver(m hash.Hash, ia addr.IA, in, out addr.IfID) [MACLen]byte {
	var buf [12]byte
	binary.BigEndian.PutUint64(buf[:8], ia.Uint64())
	binary.BigEndian.PutUint16(buf[8:10], uint16(in))
	binary.BigEndian.PutUint16(buf[10:12], uint16(out))
	m.Reset()
	m.Write(buf[:])
	var sum [sha256.Size]byte
	var mac [MACLen]byte
	copy(mac[:], m.Sum(sum[:0]))
	return mac
}

// hopMAC computes the hop field MAC over (IA, in, out) with the AS key.
func hopMAC(key []byte, h combinator.Hop) [MACLen]byte {
	macStates.Lock()
	defer macStates.Unlock()
	return macOver(keyedMAC(key), h.IA, h.In, h.Out)
}

// macVerifier verifies hop field MACs for one border router draining
// batches. All hops a router verifies use its own AS key, so a batch
// needs exactly one keyed-state acquisition from the shared cache
// (locked once per batch, not once per packet), and identical hop
// fields across packets of the batch — the common case when many flows
// share a path — collapse into a small router-owned verdict cache.
// The verifier is owned by a single worker; only the macStates access
// inside verifyBatch touches shared state.
type macVerifier struct {
	// verdicts caches (ingress, egress, mac) -> valid for this AS key.
	// Entries are pure functions of the key, so the cache never needs
	// invalidation, only bounding.
	verdicts map[[10]byte]bool
}

const macCacheLimit = 4096

// verdictKey packs a hop field's MAC-covered bytes plus the MAC.
func verdictKey(in, out addr.IfID, mac [MACLen]byte) [10]byte {
	var k [10]byte
	binary.BigEndian.PutUint16(k[0:2], uint16(in))
	binary.BigEndian.PutUint16(k[2:4], uint16(out))
	copy(k[4:], mac[:])
	return k
}

// macJob is one hop field to verify against the router's key.
type macJob struct {
	in, out addr.IfID
	mac     [MACLen]byte
}

// verifyBatch verifies jobs for the AS ia under key, writing verdicts
// into ok (len(ok) == len(jobs)). One lock acquisition per call.
func (v *macVerifier) verifyBatch(key []byte, ia addr.IA, jobs []macJob, ok []bool) {
	if v.verdicts == nil {
		v.verdicts = make(map[[10]byte]bool, 64)
	}
	var misses []int
	for i, j := range jobs {
		if verdict, hit := v.verdicts[verdictKey(j.in, j.out, j.mac)]; hit {
			ok[i] = verdict
		} else {
			misses = append(misses, i)
		}
	}
	if len(misses) == 0 {
		return
	}
	if len(v.verdicts) > macCacheLimit {
		v.verdicts = make(map[[10]byte]bool, 64)
	}
	macStates.Lock()
	m := keyedMAC(key)
	for _, i := range misses {
		j := jobs[i]
		want := macOver(m, ia, j.in, j.out)
		ok[i] = hmac.Equal(want[:], j.mac[:])
		v.verdicts[verdictKey(j.in, j.out, j.mac)] = ok[i]
	}
	macStates.Unlock()
}

// Authorize stamps a combinator path into a forwarding path: each AS's
// control service MACs its own hop field. In the real system this happens
// during beaconing; here the key registry plays all control services.
func Authorize(p *combinator.Path, keys KeyFunc) (*FwdPath, error) {
	fp := &FwdPath{Hops: make([]HopField, len(p.Hops)), MTU: p.MTU}
	for i, h := range p.Hops {
		key := keys(h.IA)
		if key == nil {
			return nil, fmt.Errorf("dataplane: no forwarding key for %s", h.IA)
		}
		fp.Hops[i] = HopField{Hop: h, MAC: hopMAC(key, h)}
	}
	return fp, nil
}

// Verify checks the hop field at index i with the AS's own key; border
// routers do this for their own AS only (PCFS requires no global state).
func (fp *FwdPath) Verify(i int, keys KeyFunc) error {
	if i < 0 || i >= len(fp.Hops) {
		return fmt.Errorf("dataplane: hop index %d out of range", i)
	}
	h := fp.Hops[i]
	key := keys(h.Hop.IA)
	if key == nil {
		return fmt.Errorf("dataplane: no forwarding key for %s", h.Hop.IA)
	}
	want := hopMAC(key, h.Hop)
	if !hmac.Equal(want[:], h.MAC[:]) {
		return fmt.Errorf("dataplane: hop field MAC mismatch at %s", h.Hop.IA)
	}
	return nil
}

// Reverse returns the forwarding path in the opposite direction with
// re-MACed hop fields (valid because each hop's reverse is an authorized
// interface pair of the same AS).
func (fp *FwdPath) Reverse(keys KeyFunc) (*FwdPath, error) {
	out := &FwdPath{Hops: make([]HopField, len(fp.Hops)), MTU: fp.MTU}
	for i, h := range fp.Hops {
		rev := combinator.Hop{IA: h.Hop.IA, In: h.Hop.Out, Out: h.Hop.In}
		key := keys(rev.IA)
		if key == nil {
			return nil, fmt.Errorf("dataplane: no forwarding key for %s", rev.IA)
		}
		out.Hops[len(fp.Hops)-1-i] = HopField{Hop: rev, MAC: hopMAC(key, rev)}
	}
	return out, nil
}

// LinkRef is one inter-domain link a forwarding path traverses, with the
// direction of traversal: packets cross Link from From toward
// Link.Other(From). Traffic models key per-direction capacity on it.
type LinkRef struct {
	Link *topology.Link
	From addr.IA
}

// Forward reports whether the path crosses the link in A-to-B direction.
func (r LinkRef) Forward() bool { return r.Link.A == r.From }

// LinkRefs resolves the path's hop fields against the topology into the
// ordered sequence of traversed inter-domain links. It fails when a hop's
// egress interface does not attach to any link, which indicates a path
// built for a different topology.
func (fp *FwdPath) LinkRefs(topo *topology.Graph) ([]LinkRef, error) {
	out := make([]LinkRef, 0, len(fp.Hops))
	for _, h := range fp.Hops {
		if h.Hop.Out == 0 {
			continue
		}
		l := topo.LinkByIf(h.Hop.IA, h.Hop.Out)
		if l == nil {
			return nil, fmt.Errorf("dataplane: %s has no interface %s", h.Hop.IA, h.Hop.Out)
		}
		out = append(out, LinkRef{Link: l, From: h.Hop.IA})
	}
	return out, nil
}

// WireLen is the exact encoded size of the path header in the
// internal/slayers wire format: the 4-byte path meta field, one 8-byte
// info field, and 12 bytes per hop field.
func (fp *FwdPath) WireLen() int {
	return slayers.MetaLen + slayers.InfoLen + slayers.HopLen*len(fp.Hops)
}

// Packet is a SCION data-plane packet.
type Packet struct {
	Src, Dst addr.Host
	Path     *FwdPath
	// HopIdx is the current position in the path (the AS processing the
	// packet); it advances as the packet is forwarded.
	HopIdx  int
	Payload []byte
	// FlowID identifies the packet's flow (20 bits on the wire). The
	// differential fabric-vs-engine harness also keys its per-packet
	// loss decisions on it (see Fabric.LossFunc).
	FlowID uint32
}

// hostWireLen is the zero-padded on-wire size of one host address.
func hostWireLen(t addr.HostAddrType) int {
	n := t.Len()
	if r := n % 4; r != 0 {
		n += 4 - r
	}
	return n
}

// WireLen implements sim.Message. It matches the encoded slayers size
// exactly: common header, address header (hosts zero-padded to 4-byte
// multiples), path header, payload.
func (p *Packet) WireLen() int {
	n := slayers.CmnHdrLen + 2*slayers.IALen +
		hostWireLen(p.Src.Type) + hostWireLen(p.Dst.Type) + len(p.Payload)
	if p.Path != nil {
		n += p.Path.WireLen()
	}
	return n
}

// CurrentHop returns the hop field under processing.
func (p *Packet) CurrentHop() (HopField, error) {
	if p.Path == nil || p.HopIdx < 0 || p.HopIdx >= len(p.Path.Hops) {
		return HopField{}, fmt.Errorf("dataplane: hop index %d invalid", p.HopIdx)
	}
	return p.Path.Hops[p.HopIdx], nil
}

// AtDestination reports whether the packet reached the last hop.
func (p *Packet) AtDestination() bool {
	return p.Path != nil && p.HopIdx == len(p.Path.Hops)-1
}
