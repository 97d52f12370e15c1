package dataplane

import (
	"crypto/hmac"
	"encoding/binary"

	"scionmpr/internal/addr"
	"scionmpr/internal/seg"
	"scionmpr/internal/slayers"
	"scionmpr/internal/topology"
)

// refEngine is the wire engine's border router before it forwarded on
// raw path bytes, kept as the oracle of TestRouterMatchesReference:
// every router strictly decodes every frame and re-parses its hop
// field, and MACs are checked a batch at a time against a bounded
// per-AS verdict cache, and every router an SCMP frame walks decodes
// it, its SCMP header and its quote in full. Its processBatch,
// egressStep and scmpWalkStep, the batch scratch, and macVerifier with
// verifyBatch, verdictKey, macCacheLimit and macJob are the old ones
// line for line (the scratch type renamed; the fault table is now a
// pointer and the hand-off to the next router no longer names the AS
// it leaves, which changed two call sites). It runs on a real Engine's
// queues, pool, counters and handlers, and calls the Engine's emitSCMP,
// which did not change; the test's drain loop stands in for Flush,
// which did not change either.
type refEngine struct {
	*Engine
	keys      [][]byte
	verifiers []macVerifier
	flush     *refWorkerCtx
}

func newRefEngine(topo *topology.Graph, keys KeyFunc) *refEngine {
	e := &refEngine{Engine: NewEngine(topo, keys), flush: newRefWorkerCtx(batchSize)}
	for _, ia := range e.ias {
		e.keys = append(e.keys, keys(ia))
	}
	e.verifiers = make([]macVerifier, len(e.ias))
	return e
}

// refWorkerCtx holds one batch's scratch so the steady state allocates
// nothing per packet.
type refWorkerCtx struct {
	batch []*frame
	ss    []slayers.SCION // decode scratch, one per batch slot
	jobs  []macJob        // hop fields of the batch's data frames
	slots []int           // batch slot of each job
	ok    []bool          // verdict of each job
	quote slayers.SCION   // SCMP quote decode scratch
}

func newRefWorkerCtx(n int) *refWorkerCtx {
	return &refWorkerCtx{
		batch: make([]*frame, 0, n),
		ss:    make([]slayers.SCION, n),
		jobs:  make([]macJob, 0, n),
		slots: make([]int, 0, n),
		ok:    make([]bool, n),
	}
}

// processBatch runs the border-router pipeline of AS a over one batch:
// decode all frames, collect their hop-field MAC checks, verify them
// in one pass against the router's key, then act on each verdict.
func (e *refEngine) processBatch(a int32, ctx *refWorkerCtx) {
	e.batches.Add(1)
	e.batchPackets.Add(uint64(len(ctx.batch)))
	ctx.jobs = ctx.jobs[:0]
	ctx.slots = ctx.slots[:0]

	for i, f := range ctx.batch {
		s := &ctx.ss[i]
		if err := s.DecodeFromBytes(f.b); err != nil {
			e.droppedMalformed.Add(1)
			e.terminal(f)
			continue
		}
		if s.NextHdr == slayers.NextHdrSCMP {
			e.scmpWalkStep(a, f, s, &ctx.quote)
			continue
		}
		if s.PathType != slayers.PathTypeSCION {
			e.droppedMalformed.Add(1)
			e.terminal(f)
			continue
		}
		if f.arrived {
			// Ingress border router: advance to the local hop field.
			if err := s.IncPath(); err != nil {
				e.droppedMalformed.Add(1)
				e.terminal(f)
				continue
			}
		}
		hf, err := s.HopField(int(s.CurrHF))
		if err != nil {
			e.droppedMalformed.Add(1)
			e.terminal(f)
			continue
		}
		ctx.jobs = append(ctx.jobs, macJob{in: hf.ConsIngress, out: hf.ConsEgress, mac: hf.MAC})
		ctx.slots = append(ctx.slots, i)
	}

	ok := ctx.ok[:len(ctx.jobs)]
	e.verifiers[a].verifyBatch(e.keys[a], e.ias[a], ctx.jobs, ok)

	for j, i := range ctx.slots {
		f, s := ctx.batch[i], &ctx.ss[i]
		if !ok[j] {
			e.droppedBadMAC.Add(1)
			if f.arrived {
				e.emitSCMP(a, f, s, SCMPBadMAC, seg.LinkKey{})
			}
			// At the source AS the drop is silent.
			e.terminal(f)
			continue
		}
		if f.arrived && s.AtDestination() {
			e.delivered.Add(1)
			if fn := e.deliver[a]; fn != nil {
				fn(f, s)
			}
			e.terminal(f)
			continue
		}
		e.egressStep(a, f, s, ctx.jobs[j].out)
	}
}

// egressStep forwards a verified frame out of AS a's interface out: the
// shared egress decision drops it (with the matching SCMP, or silently
// for gray loss) or the frame moves to the neighbor's router.
func (e *refEngine) egressStep(a int32, f *frame, s *slayers.SCION, out addr.IfID) {
	ent := e.lookupIf(a, out)
	switch egress(e.LinkFaults, ent.link, s.FlowID) {
	case egressNoRoute:
		e.droppedNoRoute.Add(1)
		e.emitSCMP(a, f, s, SCMPDestUnreachable, seg.LinkKey{})
	case egressRevoked:
		e.revocations.Add(1)
		e.emitSCMP(a, f, s, SCMPRevokedLink, seg.LinkKey{IA: e.ias[a], If: out})
	case egressGray:
		e.droppedGray.Add(1)
	default:
		e.forwarded.Add(1)
		f.arrived = true
		e.out(ent, f)
		return
	}
	e.terminal(f)
}

// macVerifier verifies hop field MACs for one border router draining
// batches. All hops a router verifies use its own AS key, so a batch
// needs exactly one keyed-state acquisition from the shared cache
// (locked once per batch, not once per packet), and identical hop
// fields across packets of the batch — the common case when many flows
// share a path — collapse into a small router-owned verdict cache.
// The verifier belongs to its AS's router, which runs on one goroutine
// at a time; only the macStates access inside verifyBatch touches
// shared state.
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

// scmpWalkStep relays an SCMP frame one hop closer to the original
// sender (the mirror image of data-plane forwarding): WalkIdx is the
// current AS's index on the quoted path; at zero the message arrived
// home and is delivered, otherwise it leaves over the link attached to
// the quoted hop's ingress interface with WalkIdx decremented in
// place. SCMP messages are never subject to MAC checks, failures, or
// loss.
func (e *refEngine) scmpWalkStep(a int32, f *frame, s *slayers.SCION, quote *slayers.SCION) {
	var m slayers.SCMP
	if err := m.DecodeFromBytes(s.Payload()); err != nil {
		e.malformed(f)
		return
	}
	if err := quote.DecodeHeader(m.Quote); err != nil {
		e.malformed(f)
		return
	}
	if m.WalkIdx == 0 {
		if fn := e.scmp[a]; fn != nil {
			fn(&SCMP{
				Type:     scmpTypeFromWire(m.Type),
				Link:     seg.LinkKey{IA: m.LinkIA, If: m.LinkIf},
				Offender: m.Offender,
				FlowID:   quote.FlowID,
				SrcIA:    quote.SrcIA,
				DstIA:    quote.DstIA,
				Orig:     f.pkt,
			})
		}
		e.terminal(f)
		return
	}
	hf, err := quote.HopField(int(m.WalkIdx))
	if err != nil {
		e.malformed(f)
		return
	}
	ent := e.lookupIf(a, hf.ConsIngress)
	if ent.link == nil {
		// No arrival link — the quoted path does not match the
		// topology. Vanish silently.
		e.terminal(f)
		return
	}
	_ = m.SetWalkIdx(m.WalkIdx - 1) // rewrites the frame bytes in place
	e.out(ent, f)
}
