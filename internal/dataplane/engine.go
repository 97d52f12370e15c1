// The wire-format forwarding engine, the one border router: it works
// on real packet bytes in the internal/slayers encoding, with pooled
// buffers, a strict decode at a frame's first router and raw path bytes
// after it, one expected MAC per interface pair and, under NewEngine,
// per-AS ingress queues that Flush drains in fixed-size batches on the
// caller's goroutine. A Fabric drives the same per-AS pipeline in
// virtual time, one frame at a time (fabric.go).
package dataplane

import (
	"fmt"
	"sync/atomic"

	"scionmpr/internal/addr"
	"scionmpr/internal/seg"
	"scionmpr/internal/sim"
	"scionmpr/internal/slayers"
	"scionmpr/internal/telemetry"
	"scionmpr/internal/topology"
)

// WireDeliverFunc receives packets arriving at their destination AS.
// The header and payload alias an engine-owned buffer that is recycled
// when the handler returns: copy anything retained.
type WireDeliverFunc func(s *slayers.SCION)

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
// first seven are the plane's outcome counters (the differential
// harness compares them with the reference router's); DroppedMalformed
// counts frames the byte decoder rejected (impossible for
// self-generated traffic, checked to be zero by the harness);
// Batches/BatchPackets expose batching efficiency.
type EngineStats struct {
	Forwarded, Delivered, DroppedBadMAC, DroppedNoRoute, DroppedTooBig uint64
	Revocations, DroppedGray                                           uint64
	DroppedMalformed                                                   uint64
	Batches, BatchPackets                                              uint64
}

// Engine is the batched wire-format forwarding plane. One logical
// border router per AS, each with a FIFO ingress queue; Flush drains
// the queues in batches on the caller's goroutine, so a frame's whole
// lifetime — hop-field read, MAC check, egress lookup, hand-off to the
// next queue — happens on packet bytes without allocating. Configure the
// exported fields before the first Inject. A Fabric drives an engine
// without queues in virtual time.
type Engine struct {
	Topo *topology.Graph
	Keys KeyFunc

	// Workers is read by nothing: Flush forwards on the caller's
	// goroutine whatever its value. It stays because the benchmark
	// program still sets it.
	Workers int

	// Link fault state (chaos.FaultTarget), read by the egress decision;
	// gray loss is decided per (flow, link). The engine has no latency
	// model yet: it stores delay overrides but does not act on them.
	sim.LinkFaults

	ias []addr.IA
	idx map[addr.IA]int32
	// ifTable[a][ifID] is AS a's interface table (egress lookup and
	// SCMP walk-back), dense per AS.
	ifTable [][]ifEntry
	// macs[a] is AS a's table of expected hop-field MACs.
	macs []macTable
	// deliver[a] receives frames delivered at AS a with a decode
	// scratch; a handler that needs the header decodes into it.
	deliver []func(f *frame, s *slayers.SCION)
	scmp    []SCMPFunc
	// queues[a] is AS a's ingress FIFO under NewEngine and queued the
	// number of frames waiting in all of them; flush is Flush's
	// scratch, kept so a warmed engine allocates nothing per Flush.
	queues [][]*frame
	queued int
	flush  *workerCtx
	// net, when a Fabric drives the engine, carries frames between
	// routers instead of the queues; steps[d] is the scratch of a step
	// nested d deep (a handler a step calls may inject, which steps
	// again).
	net   *sim.Network
	steps []*workerCtx
	depth int

	pool *framePool

	forwarded, delivered, droppedBadMAC, droppedNoRoute, droppedTooBig atomic.Uint64
	revocations, droppedGray, droppedMalformed                         atomic.Uint64
	batches, batchPackets                                              atomic.Uint64
}

// batchSize is how many frames Flush drains from one queue per batch.
const batchSize = 32

// NewEngine builds an engine over the topology. Keys resolves each
// AS's forwarding key once up front; ASes with no key fail every MAC
// check.
func NewEngine(topo *topology.Graph, keys KeyFunc) *Engine {
	e := newEngine(topo, keys)
	e.queues = make([][]*frame, len(e.ias))
	e.flush = newWorkerCtx(batchSize)
	return e
}

// newEngine builds the per-AS tables without queues or Flush scratch.
func newEngine(topo *topology.Graph, keys KeyFunc) *Engine {
	ias := topo.IAs()
	e := &Engine{
		Topo:       topo,
		Keys:       keys,
		LinkFaults: sim.NewLinkFaults(topo),
		ias:        ias,
		idx:        make(map[addr.IA]int32, len(ias)),
		ifTable:    make([][]ifEntry, len(ias)),
		macs:       make([]macTable, len(ias)),
		deliver:    make([]func(*frame, *slayers.SCION), len(ias)),
		scmp:       make([]SCMPFunc, len(ias)),
		pool:       newFramePool(),
	}
	for i, ia := range ias {
		e.idx[ia] = int32(i)
		e.macs[i] = macTable{key: keys(ia), ia: ia}
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
	e.macs[a].ifs = len(t)
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
		e.deliver[i] = func(f *frame, s *slayers.SCION) { fn(decoded(f, s)) }
	}
}

// OnSCMP installs the SCMP handler of an AS.
func (e *Engine) OnSCMP(ia addr.IA, fn SCMPFunc) {
	if i, ok := e.idx[ia]; ok {
		e.scmp[i] = fn
	}
}

// Stats snapshots the forwarding counters. Call between flushes for
// exact values: the counters are atomic so that a telemetry scrape on
// another goroutine may read them while a Flush runs.
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

// SetTelemetry registers the engine's counters as gauge funcs, under
// engine_-prefixed names so a fabric and an engine can share one
// registry.
func (e *Engine) SetTelemetry(reg *telemetry.Registry) { e.register(reg, "engine", true) }

// register exports the outcome counters under prefix, and with wire
// also the decoder and batching counters (a nil registry exports
// nothing).
func (e *Engine) register(reg *telemetry.Registry, prefix string, wire bool) {
	if reg == nil {
		return
	}
	u := func(c *atomic.Uint64) func() float64 {
		return func() float64 { return float64(c.Load()) }
	}
	drop := func(cause string, c *atomic.Uint64) {
		reg.GaugeFunc(prefix+`_dropped_total{cause="`+cause+`"}`, u(c))
	}
	reg.GaugeFunc(prefix+"_forwarded_total", u(&e.forwarded))
	reg.GaugeFunc(prefix+"_delivered_total", u(&e.delivered))
	reg.GaugeFunc(prefix+"_revocations_total", u(&e.revocations))
	drop("bad_mac", &e.droppedBadMAC)
	drop("no_route", &e.droppedNoRoute)
	drop("too_big", &e.droppedTooBig)
	drop("gray", &e.droppedGray)
	if wire {
		drop("malformed", &e.droppedMalformed)
		reg.GaugeFunc(prefix+"_batches_total", u(&e.batches))
		reg.GaugeFunc(prefix+"_batch_packets_total", u(&e.batchPackets))
	}
}

// Inject encodes a packet into wire format and enqueues it at its
// source AS, whose border router performs hop-0 verification and the
// first egress lookup when the frame is drained (at once under a
// Fabric). Packets over the path MTU are counted and refused.
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
	if _, err := EncodePacket(&s, pkt, f.b); err != nil {
		e.pool.put(f)
		return err
	}
	f.pkt = pkt
	e.enqueue(a, f)
	return nil
}

// InjectBytes enqueues one raw wire-format packet at its source AS
// (parsed from the header). The bytes are copied into a pooled frame;
// the caller keeps ownership of data. mtu > 0 enforces a path MTU the
// way Inject does.
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
	if s.NextHdr != slayers.NextHdrSCMP {
		f.path = s.RawPath() // this was the source router's strict decode
	}
	e.enqueue(a, f)
	return nil
}

func (e *Engine) enqueue(a int32, f *frame) {
	if e.net != nil {
		e.step(a, f)
		return
	}
	e.push(a, f)
}

// out hands f, leaving AS a over ent, to the neighbor's router: onto its
// queue, or under a Fabric onto the simulated link.
func (e *Engine) out(a int32, ent ifEntry, f *frame) {
	if e.net != nil {
		e.net.Send(e.ias[a], ent.link, f)
		return
	}
	e.push(ent.dst, f)
}

// push appends f to AS a's queue.
func (e *Engine) push(a int32, f *frame) {
	e.queues[a] = append(e.queues[a], f)
	e.queued++
}

// step runs AS a's router on the one frame f, as a Fabric does when f is
// injected at a or arrives there.
func (e *Engine) step(a int32, f *frame) {
	if e.depth == len(e.steps) {
		e.steps = append(e.steps, newWorkerCtx(1))
	}
	ctx := e.steps[e.depth]
	e.depth++
	ctx.batch = append(ctx.batch[:0], f)
	e.processBatch(a, ctx)
	e.depth--
}

// Flush drains the network on the caller's goroutine: it sweeps the
// ASes in index order, runs each queue to empty in batches in arrival
// order, and returns once no frame is queued. Deliver/SCMP handlers may
// Inject follow-up packets; they extend the same flush. A queue's slice
// is reused once drained, so a warmed engine allocates nothing here.
func (e *Engine) Flush() {
	ctx := e.flush
	for e.queued > 0 {
		for a := range e.queues {
			// SCMPs raised at a, and packets a's handlers inject, join
			// its queue while it drains.
			for head := 0; head < len(e.queues[a]); {
				n := min(batchSize, len(e.queues[a])-head)
				ctx.batch = append(ctx.batch[:0], e.queues[a][head:head+n]...)
				head += n
				e.queued -= n
				e.processBatch(int32(a), ctx)
			}
			clear(e.queues[a]) // drop the pointers to frames the pool owns again
			e.queues[a] = e.queues[a][:0]
		}
	}
}

// workerCtx holds one batch's scratch so the steady state allocates
// nothing per packet.
type workerCtx struct {
	batch []*frame
	s     slayers.SCION // full-decode scratch
	quote slayers.SCION // SCMP quote decode scratch
}

func newWorkerCtx(n int) *workerCtx { return &workerCtx{batch: make([]*frame, 0, n)} }

// terminal retires a frame: its journey ended (delivered, dropped, or
// handed to a local handler).
func (e *Engine) terminal(f *frame) { e.pool.put(f) }

// malformed drops a frame whose bytes the router cannot forward.
func (e *Engine) malformed(f *frame) {
	e.droppedMalformed.Add(1)
	e.terminal(f)
}

// decoded decodes f in full into s for a step that needs the whole
// header (delivery, SCMP emission). f's bytes passed the strict decode
// at its first router and only CurrHF moved since, so it cannot fail.
func decoded(f *frame, s *slayers.SCION) *slayers.SCION {
	_ = s.DecodeFromBytes(f.b)
	return s
}

// processBatch runs the border-router pipeline of AS a over one batch.
// A frame's first router decodes it strictly and keeps its path
// geometry; SCMP frames, decoded in full at every router they walk,
// move on in that first pass. Every data frame's router then reads the
// current hop field from the raw bytes, checks its MAC against the
// AS's expected MAC for that interface pair, and decodes in full only
// to deliver or to raise an SCMP.
func (e *Engine) processBatch(a int32, ctx *workerCtx) {
	e.batches.Add(1)
	e.batchPackets.Add(uint64(len(ctx.batch)))
	s := &ctx.s
	for i, f := range ctx.batch {
		if f.path != (slayers.RawPath{}) {
			continue
		}
		if err := s.DecodeFromBytes(f.b); err != nil {
			e.malformed(f)
		} else if s.NextHdr == slayers.NextHdrSCMP {
			e.scmpWalkStep(a, f, s, &ctx.quote)
		} else if f.path = s.RawPath(); f.path != (slayers.RawPath{}) {
			continue
		} else {
			e.malformed(f) // not a SCION path
		}
		ctx.batch[i] = nil // the frame left this router
	}
	for _, f := range ctx.batch {
		if f == nil {
			continue
		}
		p, b := f.path, f.b
		// Ingress border router: advance to the local hop field.
		if f.arrived && !p.IncPath(b) {
			e.malformed(f)
			continue
		}
		in, out, mac := p.Hop(b)
		if !e.macs[a].check(in, out, mac) {
			e.droppedBadMAC.Add(1)
			if f.arrived {
				e.emitSCMP(a, f, decoded(f, s), SCMPBadMAC, seg.LinkKey{})
			}
			// At the source AS the drop is silent.
			e.terminal(f)
			continue
		}
		if f.arrived && p.AtDestination(b) {
			e.delivered.Add(1)
			if fn := e.deliver[a]; fn != nil {
				fn(f, s)
			}
			e.terminal(f)
			continue
		}
		e.egressStep(a, f, s, out)
	}
}

// egressStep forwards a verified frame out of AS a's interface out: the
// shared egress decision, made once, drops it (with the matching SCMP,
// raised from s, or silently for gray loss) or the frame moves to the
// neighbor's router.
func (e *Engine) egressStep(a int32, f *frame, s *slayers.SCION, out addr.IfID) {
	ent := e.lookupIf(a, out)
	switch egress(&e.LinkFaults, ent.link, f.path.FlowID(f.b)) {
	case egressNoRoute:
		e.droppedNoRoute.Add(1)
		e.emitSCMP(a, f, decoded(f, s), SCMPDestUnreachable, seg.LinkKey{})
	case egressRevoked:
		e.revocations.Add(1)
		e.emitSCMP(a, f, decoded(f, s), SCMPRevokedLink, seg.LinkKey{IA: e.ias[a], If: out})
	case egressGray:
		e.droppedGray.Add(1)
	default:
		e.forwarded.Add(1)
		f.arrived = true
		e.out(a, ent, f)
		return
	}
	e.terminal(f)
}

// emitSCMP generates a control message at AS a about the packet orig,
// decoded from frame df, and starts it on the walk back toward the
// original sender. A failure at the source AS (CurrHF 0) delivers
// locally without building a frame.
func (e *Engine) emitSCMP(a int32, df *frame, orig *slayers.SCION, typ SCMPType, link seg.LinkKey) {
	local := e.ias[a]
	if orig.CurrHF == 0 {
		if fn := e.scmp[a]; fn != nil {
			fn(&SCMP{
				Type: typ, Link: link, Offender: local,
				FlowID: orig.FlowID, SrcIA: orig.SrcIA, DstIA: orig.DstIA,
				Orig: df.pkt,
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
	f.pkt = df.pkt
	// The walk starts at the offender itself: the first step moves the
	// message over the arrival link.
	e.enqueue(a, f)
}

// scmpWalkStep relays an SCMP frame one hop closer to the original
// sender (the mirror image of data-plane forwarding): WalkIdx is the
// current AS's index on the quoted path; at zero the message arrived
// home and is delivered, otherwise it leaves over the link attached to
// the quoted hop's ingress interface with WalkIdx decremented in
// place. SCMP messages are never subject to MAC checks, failures, or
// loss.
func (e *Engine) scmpWalkStep(a int32, f *frame, s *slayers.SCION, quote *slayers.SCION) {
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
	e.out(a, ent, f)
}
