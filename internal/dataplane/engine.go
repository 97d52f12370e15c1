// The wire-format forwarding engine: the same border-router semantics
// as the in-memory Fabric, but operating on real packet bytes in the
// internal/slayers encoding, with pooled buffers, per-AS ingress rings
// drained in fixed-size batches, batched hop-field MAC verification,
// and lock-free egress hand-off between router workers. The Fabric
// stays as the semantic reference; the differential harness in
// diff_test.go replays identical traffic through both and asserts
// byte-identical run fingerprints.
package dataplane

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"scionmpr/internal/addr"
	"scionmpr/internal/seg"
	"scionmpr/internal/slayers"
	"scionmpr/internal/telemetry"
	"scionmpr/internal/topology"
)

// WireDeliverFunc receives packets arriving at their destination AS.
// The header and payload alias an engine-owned buffer that is recycled
// when the handler returns: copy anything retained.
type WireDeliverFunc func(s *slayers.SCION)

// WireSCMPMsg is a decoded SCMP message handed to the original
// sender's AS.
type WireSCMPMsg struct {
	Type     SCMPType
	Link     seg.LinkKey // revoked link for SCMPRevokedLink
	Offender addr.IA
	// FlowID, SrcIA, DstIA identify the offending packet (parsed from
	// the quoted original header).
	FlowID       uint32
	SrcIA, DstIA addr.IA
}

// WireSCMPFunc receives SCMP messages arriving back at the sender AS.
type WireSCMPFunc func(m *WireSCMPMsg)

// wireSCMPType maps the dataplane SCMP enum onto the wire code.
func wireSCMPType(t SCMPType) uint8 { return uint8(t) + 1 }

// scmpTypeFromWire is the inverse of wireSCMPType.
func scmpTypeFromWire(b uint8) SCMPType { return SCMPType(int(b) - 1) }

// ifEntry is one egress-table slot: the attached link and the dense
// index of the AS on the other side.
type ifEntry struct {
	link *topology.Link
	dst  int32
}

// EngineStats is a snapshot of the engine's forwarding counters. The
// first seven mirror the Fabric's counters one for one (the
// differential harness compares them); DroppedMalformed counts frames
// the byte decoder rejected (impossible for self-generated traffic,
// checked to be zero by the harness); Batches/BatchPackets expose
// batching efficiency.
type EngineStats struct {
	Forwarded, Delivered, DroppedBadMAC, DroppedNoRoute, DroppedTooBig uint64
	Revocations, DroppedGray                                           uint64
	DroppedMalformed                                                   uint64
	Batches, BatchPackets                                              uint64
}

// Engine is the batched wire-format forwarding plane. One logical
// border router per AS, each with a lock-free multi-producer ingress
// ring; workers own disjoint AS subsets and drain their rings in
// batches, so a frame's whole lifetime — decode, MAC check, egress
// lookup, hand-off to the next ring — happens on packet bytes without
// allocating. Configure the exported fields before the first Inject.
type Engine struct {
	Topo *topology.Graph
	Keys KeyFunc

	// Workers is the number of router goroutines a Flush runs (default
	// 1; single-worker flushes run inline on the caller's goroutine so
	// benchmarks measure per-core throughput cleanly).
	Workers int
	// LossFunc decides gray-failure drops. The engine is concurrent, so
	// only pure per-packet decisions are meaningful; NewEngine installs
	// HashLoss(0).
	LossFunc func(flow uint32, link topology.LinkID, rate float64) bool

	// Link fault state (chaos.FaultTarget's FailLink, RestoreLink,
	// SetLinkLoss) and the egress decision over it.
	linkFaults

	ias []addr.IA
	idx map[addr.IA]int32
	// ifTable[a][ifID] is AS a's interface table (egress lookup and
	// SCMP walk-back), dense per AS.
	ifTable [][]ifEntry
	keys    [][]byte
	rings   []*ring
	deliver []WireDeliverFunc
	scmp    []WireSCMPFunc
	// verifiers[a] is owned by whichever worker owns AS a for the
	// duration of a Flush (ownership is a pure function of the AS index
	// and the worker count, so it never migrates mid-flush).
	verifiers []macVerifier
	// workers[w] is worker w's scratch, kept across flushes so a warmed
	// engine allocates nothing per Flush either.
	workers []*workerCtx

	pool     *framePool
	inflight atomic.Int64

	forwarded, delivered, droppedBadMAC, droppedNoRoute, droppedTooBig atomic.Uint64
	revocations, droppedGray, droppedMalformed                         atomic.Uint64
	batches, batchPackets                                              atomic.Uint64
}

const (
	// batchSize is how many frames a worker drains from one ring per
	// batch, i.e. per MAC-verifier lock acquisition.
	batchSize      = 32
	defaultRingCap = 1024
)

// NewEngine builds an engine over the topology. Keys resolves each
// AS's forwarding key once up front; ASes with no key fail every MAC
// check (as in the Fabric).
func NewEngine(topo *topology.Graph, keys KeyFunc) *Engine {
	ias := topo.IAs()
	e := &Engine{
		Topo:       topo,
		Keys:       keys,
		LossFunc:   HashLoss(0),
		linkFaults: newLinkFaults(topo),
		ias:        ias,
		idx:        make(map[addr.IA]int32, len(ias)),
		ifTable:    make([][]ifEntry, len(ias)),
		keys:       make([][]byte, len(ias)),
		rings:      make([]*ring, len(ias)),
		deliver:    make([]WireDeliverFunc, len(ias)),
		scmp:       make([]WireSCMPFunc, len(ias)),
		verifiers:  make([]macVerifier, len(ias)),
		pool:       newFramePool(),
	}
	for i, ia := range ias {
		e.idx[ia] = int32(i)
		e.keys[i] = keys(ia)
		e.rings[i] = newRing(defaultRingCap)
	}
	for _, l := range topo.Links {
		a, b := e.idx[l.A], e.idx[l.B]
		e.setIf(a, l.AIf, ifEntry{link: l, dst: b})
		e.setIf(b, l.BIf, ifEntry{link: l, dst: a})
	}
	return e
}

func (e *Engine) setIf(a int32, ifID addr.IfID, ent ifEntry) {
	t := e.ifTable[a]
	for int(ifID) >= len(t) {
		t = append(t, ifEntry{})
	}
	t[ifID] = ent
	e.ifTable[a] = t
}

// lookupIf returns AS a's interface entry for ifID (zero entry if the
// interface does not exist).
func (e *Engine) lookupIf(a int32, ifID addr.IfID) ifEntry {
	if t := e.ifTable[a]; int(ifID) < len(t) {
		return t[ifID]
	}
	return ifEntry{}
}

// OnDeliver installs the destination handler of an AS.
func (e *Engine) OnDeliver(ia addr.IA, fn WireDeliverFunc) {
	if i, ok := e.idx[ia]; ok {
		e.deliver[i] = fn
	}
}

// OnSCMP installs the SCMP handler of an AS.
func (e *Engine) OnSCMP(ia addr.IA, fn WireSCMPFunc) {
	if i, ok := e.idx[ia]; ok {
		e.scmp[i] = fn
	}
}

// SetLinkDelay accepts a latency override and ignores it
// (chaos.FaultTarget): the engine models forwarding throughput, not
// propagation latency.
func (e *Engine) SetLinkDelay(topology.LinkID, time.Duration) {}

// Stats snapshots the forwarding counters. Call between flushes for
// exact values (workers update them with atomics during a Flush).
func (e *Engine) Stats() EngineStats {
	return EngineStats{
		Forwarded:        e.forwarded.Load(),
		Delivered:        e.delivered.Load(),
		DroppedBadMAC:    e.droppedBadMAC.Load(),
		DroppedNoRoute:   e.droppedNoRoute.Load(),
		DroppedTooBig:    e.droppedTooBig.Load(),
		Revocations:      e.revocations.Load(),
		DroppedGray:      e.droppedGray.Load(),
		DroppedMalformed: e.droppedMalformed.Load(),
		Batches:          e.batches.Load(),
		BatchPackets:     e.batchPackets.Load(),
	}
}

// ResetCounters zeroes all forwarding statistics.
func (e *Engine) ResetCounters() {
	for _, c := range []*atomic.Uint64{
		&e.forwarded, &e.delivered, &e.droppedBadMAC, &e.droppedNoRoute,
		&e.droppedTooBig, &e.revocations, &e.droppedGray,
		&e.droppedMalformed, &e.batches, &e.batchPackets,
	} {
		c.Store(0)
	}
}

// SetTelemetry registers the engine's counters as gauge funcs, under
// engine_-prefixed names so a fabric and an engine can share one
// registry in differential runs.
func (e *Engine) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	u := func(c *atomic.Uint64) func() float64 {
		return func() float64 { return float64(c.Load()) }
	}
	reg.GaugeFunc("engine_forwarded_total", u(&e.forwarded))
	reg.GaugeFunc("engine_delivered_total", u(&e.delivered))
	reg.GaugeFunc("engine_revocations_total", u(&e.revocations))
	reg.GaugeFunc(`engine_dropped_total{cause="bad_mac"}`, u(&e.droppedBadMAC))
	reg.GaugeFunc(`engine_dropped_total{cause="no_route"}`, u(&e.droppedNoRoute))
	reg.GaugeFunc(`engine_dropped_total{cause="too_big"}`, u(&e.droppedTooBig))
	reg.GaugeFunc(`engine_dropped_total{cause="gray"}`, u(&e.droppedGray))
	reg.GaugeFunc(`engine_dropped_total{cause="malformed"}`, u(&e.droppedMalformed))
	reg.GaugeFunc("engine_batches_total", u(&e.batches))
	reg.GaugeFunc("engine_batch_packets_total", u(&e.batchPackets))
}

// Inject encodes a packet into wire format and enqueues it at its
// source AS, mirroring Fabric.Inject: the source border router will
// perform hop-0 verification and the first egress lookup when the
// frame is drained. The same MTU and source checks apply.
func (e *Engine) Inject(pkt *Packet) error {
	if pkt.Path == nil || len(pkt.Path.Hops) == 0 {
		return fmt.Errorf("dataplane: packet without path")
	}
	src := pkt.Path.Hops[0].Hop.IA
	if pkt.Src.IA != src {
		return fmt.Errorf("dataplane: source %s does not match path head %s", pkt.Src.IA, src)
	}
	a, ok := e.idx[src]
	if !ok {
		return fmt.Errorf("dataplane: source AS %s not in topology", src)
	}
	n := pkt.WireLen()
	if pkt.Path.MTU > 0 && n > int(pkt.Path.MTU) {
		e.droppedTooBig.Add(1)
		return fmt.Errorf("dataplane: packet of %d bytes exceeds path MTU %d", n, pkt.Path.MTU)
	}
	f := e.pool.get(n)
	var s slayers.SCION
	pkt.HopIdx = 0
	if _, err := EncodePacket(&s, pkt, f.b); err != nil {
		e.pool.put(f)
		return err
	}
	e.enqueue(a, f)
	return nil
}

// InjectBytes enqueues one raw wire-format packet at its source AS
// (parsed from the header). The bytes are copied into a pooled frame;
// the caller keeps ownership of data. mtu > 0 enforces a path MTU the
// way Fabric.Inject does.
func (e *Engine) InjectBytes(data []byte, mtu uint16) error {
	var s slayers.SCION
	if err := s.DecodeFromBytes(data); err != nil {
		return err
	}
	a, ok := e.idx[s.SrcIA]
	if !ok {
		return fmt.Errorf("dataplane: source AS %s not in topology", s.SrcIA)
	}
	if mtu > 0 && len(data) > int(mtu) {
		e.droppedTooBig.Add(1)
		return fmt.Errorf("dataplane: packet of %d bytes exceeds path MTU %d", len(data), mtu)
	}
	f := e.pool.get(len(data))
	copy(f.b, data)
	e.enqueue(a, f)
	return nil
}

func (e *Engine) enqueue(a int32, f *frame) {
	e.inflight.Add(1)
	e.rings[a].push(f)
}

// Flush drains the network: workers forward until no frame is in
// flight, then return. Deliver/SCMP handlers run on worker goroutines
// and may Inject follow-up packets (they extend the same flush).
func (e *Engine) Flush() {
	w := e.Workers
	if w < 1 {
		w = 1
	}
	if w > len(e.ias) {
		w = len(e.ias)
	}
	for len(e.workers) < w {
		e.workers = append(e.workers, &workerCtx{
			batch: make([]*frame, 0, batchSize),
			ss:    make([]slayers.SCION, batchSize),
			jobs:  make([]macJob, 0, batchSize),
			slots: make([]int, 0, batchSize),
			ok:    make([]bool, batchSize),
		})
	}
	if w == 1 {
		e.runWorker(0, 1)
		return
	}
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		// w is passed, not captured: a captured w would be heap-allocated
		// on every Flush, the inline single-worker ones included.
		go func(i, w int) {
			defer wg.Done()
			e.runWorker(i, w)
		}(i, w)
	}
	wg.Wait()
}

// workerCtx holds one worker's scratch so the steady state allocates
// nothing per packet.
type workerCtx struct {
	batch []*frame
	ss    []slayers.SCION // decode scratch, one per batch slot
	jobs  []macJob        // hop fields of the batch's data frames
	slots []int           // batch slot of each job
	ok    []bool          // verdict of each job
	quote slayers.SCION   // SCMP quote decode scratch
}

func (e *Engine) runWorker(w, nw int) {
	ctx := e.workers[w]
	for {
		progress := false
		for a := w; a < len(e.rings); a += nw {
			r := e.rings[a]
			for {
				ctx.batch = ctx.batch[:0]
				for len(ctx.batch) < batchSize {
					f := r.pop()
					if f == nil {
						break
					}
					ctx.batch = append(ctx.batch, f)
				}
				if len(ctx.batch) == 0 {
					break
				}
				progress = true
				e.processBatch(int32(a), ctx)
			}
		}
		if e.inflight.Load() == 0 {
			return
		}
		if !progress {
			runtime.Gosched()
		}
	}
}

// terminal retires a frame: its journey ended (delivered, dropped, or
// handed to a local handler).
func (e *Engine) terminal(f *frame) {
	e.pool.put(f)
	e.inflight.Add(-1)
}

// processBatch runs the border-router pipeline of AS a over one batch:
// decode all frames, collect their hop-field MAC checks, verify them
// in one pass against the router's key, then act on each verdict.
func (e *Engine) processBatch(a int32, ctx *workerCtx) {
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
				e.emitSCMP(a, s, SCMPBadMAC, seg.LinkKey{})
			}
			// At the source AS the drop is silent, as in the Fabric.
			e.terminal(f)
			continue
		}
		if f.arrived && s.AtDestination() {
			e.delivered.Add(1)
			if fn := e.deliver[a]; fn != nil {
				fn(s)
			}
			e.terminal(f)
			continue
		}
		e.egressStep(a, f, s, ctx.jobs[j].out)
	}
}

// egressStep forwards a verified frame out of AS a's interface out: the
// shared egress decision drops it (with the matching SCMP, or silently
// for gray loss) or the frame moves to the neighbor's ingress ring.
func (e *Engine) egressStep(a int32, f *frame, s *slayers.SCION, out addr.IfID) {
	ent := e.lookupIf(a, out)
	switch e.egress(ent.link, s.FlowID, e.LossFunc) {
	case egressNoRoute:
		e.droppedNoRoute.Add(1)
		e.emitSCMP(a, s, SCMPDestUnreachable, seg.LinkKey{})
	case egressRevoked:
		e.revocations.Add(1)
		e.emitSCMP(a, s, SCMPRevokedLink, seg.LinkKey{IA: e.ias[a], If: out})
	case egressGray:
		e.droppedGray.Add(1)
	default:
		e.forwarded.Add(1)
		f.arrived = true
		e.rings[ent.dst].push(f)
		return
	}
	e.terminal(f)
}

// emitSCMP generates a control message at AS a about the packet s and
// starts it on the walk back toward the original sender. A failure at
// the source AS (CurrHF 0) delivers locally without building a frame,
// as in Fabric.emitSCMP.
func (e *Engine) emitSCMP(a int32, orig *slayers.SCION, typ SCMPType, link seg.LinkKey) {
	local := e.ias[a]
	if orig.CurrHF == 0 {
		if fn := e.scmp[a]; fn != nil {
			fn(&WireSCMPMsg{
				Type: typ, Link: link, Offender: local,
				FlowID: orig.FlowID, SrcIA: orig.SrcIA, DstIA: orig.DstIA,
			})
		}
		return
	}
	quote := orig.HeaderBytes()
	hdr := slayers.SCION{
		FlowID:     orig.FlowID,
		NextHdr:    slayers.NextHdrSCMP,
		PayloadLen: uint16(slayers.SCMPHdrLen + len(quote)),
		PathType:   slayers.PathTypeEmpty,
		DstIA:      orig.SrcIA,
		SrcIA:      local,
		DstHost:    orig.SrcHost,
		SrcHost:    addr.HostSvc(local, addr.SvcBR),
	}
	hdrLen, err := hdr.HdrLen()
	if err != nil {
		return
	}
	f := e.pool.get(hdrLen + slayers.SCMPHdrLen + len(quote))
	if _, err := hdr.SerializeTo(f.b); err != nil {
		e.pool.put(f)
		return
	}
	msg := slayers.SCMP{
		Type:     wireSCMPType(typ),
		Offender: local,
		LinkIA:   link.IA,
		LinkIf:   link.If,
		WalkIdx:  orig.CurrHF,
		Quote:    quote,
	}
	if _, err := msg.SerializeTo(f.b[hdrLen:]); err != nil {
		e.pool.put(f)
		return
	}
	// The walk starts at the offender itself: the first drained step
	// moves the message over the arrival link.
	e.enqueue(a, f)
}

// scmpWalkStep relays an SCMP frame one hop closer to the original
// sender (the mirror image of data-plane forwarding): WalkIdx is the
// current AS's index on the quoted path; at zero the message arrived
// home and is delivered, otherwise it leaves over the link attached to
// the quoted hop's ingress interface with WalkIdx decremented in
// place. SCMP messages are never subject to MAC checks, failures, or
// loss, matching the Fabric.
func (e *Engine) scmpWalkStep(a int32, f *frame, s *slayers.SCION, quote *slayers.SCION) {
	var m slayers.SCMP
	if err := m.DecodeFromBytes(s.Payload()); err != nil {
		e.droppedMalformed.Add(1)
		e.terminal(f)
		return
	}
	if err := quote.DecodeHeader(m.Quote); err != nil {
		e.droppedMalformed.Add(1)
		e.terminal(f)
		return
	}
	if m.WalkIdx == 0 {
		if fn := e.scmp[a]; fn != nil {
			fn(&WireSCMPMsg{
				Type:     scmpTypeFromWire(m.Type),
				Link:     seg.LinkKey{IA: m.LinkIA, If: m.LinkIf},
				Offender: m.Offender,
				FlowID:   quote.FlowID,
				SrcIA:    quote.SrcIA,
				DstIA:    quote.DstIA,
			})
		}
		e.terminal(f)
		return
	}
	hf, err := quote.HopField(int(m.WalkIdx))
	if err != nil {
		e.droppedMalformed.Add(1)
		e.terminal(f)
		return
	}
	ent := e.lookupIf(a, hf.ConsIngress)
	if ent.link == nil {
		// No arrival link — the quoted path does not match the
		// topology. Vanish silently, as in the Fabric.
		e.terminal(f)
		return
	}
	_ = m.SetWalkIdx(m.WalkIdx - 1) // rewrites the frame bytes in place
	e.rings[ent.dst].push(f)
}
