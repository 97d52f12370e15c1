package pathsrv

import (
	"encoding/binary"
	"slices"

	"scionmpr/internal/addr"
	"scionmpr/internal/seg"
	"scionmpr/internal/sim"
	"scionmpr/internal/wire"
)

// WAL is a path server's snapshot write-ahead log: every writer
// mutation (Register, RevokeLink, ReinstateLink, Publish) is journaled
// as one CRC-framed record before it is applied, and periodic checkpoint
// records capture the full serving state so recovery is checkpoint-load
// plus tail replay rather than a full-history replay.
//
// # Frame format
//
// Each record is one wire.AppendFrame frame (u32 payload length, u32
// CRC-32 (IEEE) of the payload, payload) whose payload is
//
//	kind (u8) | virtual time (u64) | body
//
// All integers are big-endian. The body encodings are fixed-width
// except segments, which reuse the PCB wire codec (seg.Encode/Decode),
// and checkpoints, which serialize the service state in canonical
// order — so a WAL's bytes are a pure function of the mutation history.
//
// # Recovery semantics
//
// Replay scans frames in order, resetting to the most recent checkpoint
// it encounters and applying every later mutation at its recorded
// virtual time. A torn tail (crash mid-append) or a corrupt record
// (CRC mismatch, bogus length, undecodable body) ends the replay at the
// last good frame: everything before it is recovered, everything at and
// after it is reported as truncated, and replay never panics on
// arbitrary input (see FuzzWALReplay).
//
// The WAL models the path server's durable disk: in simulation it is an
// in-memory byte buffer that outlives the Service built over it.
type WAL struct {
	buf []byte
	// Records counts frames appended since creation or the last
	// checkpoint compaction (the checkpoint frame itself included).
	Records uint64
	// Checkpoints counts checkpoint compactions performed.
	Checkpoints uint64
}

// NewWAL creates an empty log.
func NewWAL() *WAL { return &WAL{} }

// Bytes returns the raw log (aliased, not a copy): the "disk image" a
// recovery reads. Append invalidates it.
func (w *WAL) Bytes() []byte { return w.buf }

// Len returns the log size in bytes.
func (w *WAL) Len() int { return len(w.buf) }

// Record kinds.
const (
	walRegister   = 1
	walRevoke     = 2
	walReinstate  = 3
	walPublish    = 4
	walCheckpoint = 5
)

// appendFrame frames payload (already kind|time|body) onto the log.
func (w *WAL) appendFrame(payload []byte) {
	w.buf = wire.AppendFrame(w.buf, payload)
	w.Records++
}

// payloadHead appends the kind and timestamp prefix shared by every
// record to a scratch buffer.
func payloadHead(dst []byte, kind byte, now sim.Time) []byte {
	dst = append(dst, kind)
	return binary.BigEndian.AppendUint64(dst, uint64(now))
}

// AppendRegister journals a Register(now, p) mutation.
func (w *WAL) AppendRegister(now sim.Time, p *seg.PCB) {
	payload := payloadHead(make([]byte, 0, 9+p.WireLen()), walRegister, now)
	w.appendFrame(p.AppendEncode(payload))
}

// AppendRevoke journals a RevokeLink(now, link, ttl) mutation.
func (w *WAL) AppendRevoke(now sim.Time, link seg.LinkKey, ttl sim.Time) {
	payload := payloadHead(make([]byte, 0, 9+18), walRevoke, now)
	payload = binary.BigEndian.AppendUint64(payload, link.IA.Uint64())
	payload = binary.BigEndian.AppendUint16(payload, uint16(link.If))
	payload = binary.BigEndian.AppendUint64(payload, uint64(ttl))
	w.appendFrame(payload)
}

// AppendReinstate journals a ReinstateLink(now, link) mutation.
func (w *WAL) AppendReinstate(now sim.Time, link seg.LinkKey) {
	payload := payloadHead(make([]byte, 0, 9+10), walReinstate, now)
	payload = binary.BigEndian.AppendUint64(payload, link.IA.Uint64())
	payload = binary.BigEndian.AppendUint16(payload, uint16(link.If))
	w.appendFrame(payload)
}

// AppendPublish journals a Publish(now) batch publication.
func (w *WAL) AppendPublish(now sim.Time) {
	w.appendFrame(payloadHead(make([]byte, 0, 9), walPublish, now))
}

// Checkpoint compacts the log: the entire serving state of svc is
// serialized as one checkpoint record replacing everything journaled so
// far, so recovery cost is bounded by the state size plus the mutation
// tail since the last checkpoint.
func (w *WAL) Checkpoint(now sim.Time, svc *Service) {
	payload := payloadHead(make([]byte, 0, 1024), walCheckpoint, now)
	payload = appendCheckpoint(payload, svc)
	w.buf = w.buf[:0]
	w.Records = 0
	w.appendFrame(payload)
	w.Checkpoints++
}

// appendCheckpoint serializes svc's full writer-side and published
// state in canonical order:
//
//	u64 epoch | u32 nshards
//	per shard:
//	  u64 snapshot epoch | u64 snapshot minExpiry | u64 dirty bit | u32 npairs
//	  per pair (sorted by dst, src):
//	    u64 src | u64 dst | u64 pair minExpiry
//	    u16 nmaster, per master seg: u32 len | PCB wire bytes
//	    u16 nvisible, per visible seg: u16 master index, or 0xffff
//	        followed by u32 len | PCB wire bytes when the snapshot holds
//	        a segment no longer in the master list (refreshed since the
//	        shard's last rebuild)
//	u32 nrevoked, per entry (sorted): u64 IA | u16 If | u64 expiry
//	u32 nlinks,   per entry (sorted): u64 IA | u16 If | u64 shard mask
func appendCheckpoint(dst []byte, svc *Service) []byte {
	dst = binary.BigEndian.AppendUint64(dst, svc.epoch)
	dst = binary.BigEndian.AppendUint32(dst, svc.nshards)
	for sh := uint32(0); sh < svc.nshards; sh++ {
		snap := svc.snaps[sh].Load()
		dst = binary.BigEndian.AppendUint64(dst, snap.epoch)
		dst = binary.BigEndian.AppendUint64(dst, uint64(snap.minExpiry))
		dirty := uint64(0)
		if svc.dirty&(1<<sh) != 0 {
			dirty = 1
		}
		dst = binary.BigEndian.AppendUint64(dst, dirty)

		// Every snapshot pair key still exists in master (pairs are only
		// deleted during a rebuild, which also replaces the snapshot), so
		// the master pair list is the outer structure and snapshot
		// entries reference into it where the pointers still match.
		master := svc.master[sh]
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(master)))
		for _, key := range sortedPairs(master) {
			list := master[key].segs
			dst = binary.BigEndian.AppendUint64(dst, key.src.Uint64())
			dst = binary.BigEndian.AppendUint64(dst, key.dst.Uint64())
			entry := snap.entry(key)
			dst = binary.BigEndian.AppendUint64(dst, uint64(entry.minExpiry))
			dst = binary.BigEndian.AppendUint16(dst, uint16(len(list)))
			for _, p := range list {
				dst = binary.BigEndian.AppendUint32(dst, uint32(p.WireLen()))
				dst = p.AppendEncode(dst)
			}
			dst = binary.BigEndian.AppendUint16(dst, uint16(len(entry.segs)))
			for _, p := range entry.segs {
				idx := -1
				for i, m := range list {
					if m == p {
						idx = i
						break
					}
				}
				if idx >= 0 {
					dst = binary.BigEndian.AppendUint16(dst, uint16(idx))
				} else {
					dst = binary.BigEndian.AppendUint16(dst, 0xffff)
					dst = binary.BigEndian.AppendUint32(dst, uint32(p.WireLen()))
					dst = p.AppendEncode(dst)
				}
			}
		}
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(svc.revoked)))
	for _, lk := range sortedLinks(svc.revoked) {
		dst = binary.BigEndian.AppendUint64(dst, lk.IA.Uint64())
		dst = binary.BigEndian.AppendUint16(dst, uint16(lk.If))
		dst = binary.BigEndian.AppendUint64(dst, uint64(svc.revoked[lk]))
	}
	links := slices.DeleteFunc(sortedLinks(svc.linkShards), func(lk seg.LinkKey) bool {
		return svc.linkShards[lk].shards == 0 // indexed for its segments only
	})
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(links)))
	for _, lk := range links {
		dst = binary.BigEndian.AppendUint64(dst, lk.IA.Uint64())
		dst = binary.BigEndian.AppendUint16(dst, uint16(lk.If))
		dst = binary.BigEndian.AppendUint64(dst, svc.linkShards[lk].shards)
	}
	return dst
}

// RecoverStats reports what a replay consumed and what it discarded.
type RecoverStats struct {
	// Records is the number of good frames applied (checkpoints
	// included); Checkpoints how many of them were checkpoint loads.
	Records, Checkpoints uint64
	// TruncatedBytes is the length of the discarded tail: zero for a
	// clean log, positive when the scan hit a torn or corrupt frame.
	TruncatedBytes int
	// Truncated reports whether the tail was discarded.
	Truncated bool
}

// Recover rebuilds a Service from a WAL image by loading the last
// checkpoint and replaying the mutation tail at the recorded virtual
// times. It follows stop-at-first-bad-frame semantics: a torn or
// corrupt frame ends the replay with everything before it applied (the
// durable prefix), never an error or a panic. The returned service has
// no clock, telemetry, or registered caches.
//
// cfg must carry the same Shards and RevocationTTL the journaling
// service ran with; Clock and Telemetry are ignored during replay.
func Recover(data []byte, cfg Config) (*Service, RecoverStats) {
	cfg.Clock = nil
	cfg.Telemetry = nil
	svc := New(cfg)
	var st RecoverStats
	rest := data
	for {
		payload, next, ok := wire.NextFrame(rest)
		if !ok {
			break
		}
		loaded, kind, ok := applyRecord(svc, payload, cfg)
		if !ok {
			break
		}
		svc, rest = loaded, next
		st.Records++
		if kind == walCheckpoint {
			st.Checkpoints++
		}
	}
	st.TruncatedBytes = len(rest)
	st.Truncated = st.TruncatedBytes > 0
	return svc, st
}

// applyRecord applies one CRC-verified frame payload and returns its
// kind. For checkpoint records it returns a freshly loaded service; for
// mutations it applies to svc in place. ok is false when the payload
// does not decode — treated exactly like a CRC failure by Recover.
func applyRecord(svc *Service, payload []byte, cfg Config) (_ *Service, kind byte, ok bool) {
	r := wire.NewReader("pathsrv: WAL record", payload)
	kind = r.U8()
	now := sim.Time(r.U64())
	switch kind {
	case walRegister:
		p, err := seg.Decode(r.Rest())
		if err != nil {
			return svc, kind, false
		}
		// Registration errors (expired in flight, degenerate) were
		// counted and ignored when journaled; replay mirrors that.
		_ = svc.Register(now, p)
	case walRevoke:
		link, ttl := readLink(&r), sim.Time(r.U64())
		if r.Done() != nil {
			return svc, kind, false
		}
		svc.RevokeLink(now, link, ttl)
	case walReinstate:
		link := readLink(&r)
		if r.Done() != nil {
			return svc, kind, false
		}
		svc.ReinstateLink(now, link)
	case walPublish:
		if r.Done() != nil {
			return svc, kind, false
		}
		svc.Publish(now)
	case walCheckpoint:
		loaded, err := loadCheckpoint(r.Rest(), cfg)
		return loaded, kind, err == nil
	default:
		return svc, kind, false
	}
	return svc, kind, true
}

func readLink(r *wire.Reader) seg.LinkKey {
	return seg.LinkKey{IA: addr.IAFromUint64(r.U64()), If: addr.IfID(r.U16())}
}

// loadCheckpoint rebuilds a Service from a checkpoint body. The
// decoded state is byte-for-byte the journaled one: master lists,
// per-shard snapshots with their epochs, revocations, link-shard
// bookkeeping, the dirty mask and the epoch counter. A shard's pairs must
// come in strictly canonical order, as appendCheckpoint writes them, and
// are numbered in it. The segment index is derived while decoding; each
// shard is first rebuilt whole.
func loadCheckpoint(body []byte, cfg Config) (*Service, error) {
	r := wire.NewReader("pathsrv: checkpoint", body)
	epoch := r.U64()
	nshards := r.U32()
	if nshards == 0 || nshards > 64 {
		r.Failf("shard count %d", nshards)
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	cfg.Shards = int(nshards)
	svc := New(cfg)
	svc.epoch = epoch
	for sh := uint32(0); sh < nshards && r.Err() == nil; sh++ {
		snapEpoch := r.U64()
		shardMin := sim.Time(r.U64())
		if r.U64() != 0 {
			svc.dirty |= 1 << sh
		}
		npairs := r.Count(r.U32(), 28)
		snap := &snapshot{
			epoch: snapEpoch, minExpiry: shardMin, keys: make([]pairKey, npairs),
			at: make(map[packedPair]int32, npairs), entries: make([]pairEntry, npairs),
		}
		for i := 0; i < npairs && r.Err() == nil; i++ {
			key := pairKey{
				src: addr.IAFromUint64(r.U64()),
				dst: addr.IAFromUint64(r.U64()),
			}
			if i > 0 && comparePairs(snap.keys[i-1], key) >= 0 {
				r.Failf("pair %v after %v", key, snap.keys[i-1])
			}
			pairMin := sim.Time(r.U64())
			nmaster := r.Count(uint32(r.U16()), 4)
			pm := &pairMaster{key: key, slot: int32(i), segs: make([]*seg.PCB, 0, nmaster), ids: make([]uint32, 0, nmaster)}
			for j := 0; j < nmaster && r.Err() == nil; j++ {
				if p := seg.Read(&r, int(r.U32())); p != nil {
					pm.segs = append(pm.segs, p)
					pm.ids = append(pm.ids, svc.index(pm, p, 0))
				}
			}
			nvis := r.Count(uint32(r.U16()), 2)
			visible := make([]*seg.PCB, 0, nvis)
			for j := 0; j < nvis && r.Err() == nil; j++ {
				if idx := int(r.U16()); idx == 0xffff {
					visible = append(visible, seg.Read(&r, int(r.U32())))
				} else if idx < len(pm.segs) {
					visible = append(visible, pm.segs[idx])
				} else {
					r.Failf("visible index %d of %d", idx, len(pm.segs))
				}
			}
			svc.master[sh][key] = pm
			snap.keys[i], snap.at[key.packed()] = key, int32(i)
			if nvis > 0 {
				snap.entries[i] = pairEntry{segs: visible, minExpiry: pairMin}
				snap.live++
			}
		}
		svc.snaps[sh].Store(snap)
	}
	for i, n := 0, r.Count(r.U32(), 18); i < n && r.Err() == nil; i++ {
		lk := readLink(&r)
		svc.revoked[lk] = sim.Time(r.U64())
	}
	for lk := range svc.revoked {
		svc.touch(lk, 1) // count; every shard is rebuilt whole first
	}
	for i, n := 0, r.Count(r.U32(), 18); i < n && r.Err() == nil; i++ {
		lk := readLink(&r)
		svc.link(lk).shards = r.U64()
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return svc, nil
}
