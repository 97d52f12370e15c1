// Checkpoint/restore for beaconing runs. A snapshot captures everything a
// resumed run needs to finish with a RunResult fingerprint byte-identical
// to the uninterrupted run: the simulator clock and executed count, the
// network's counters and gray-loss decision count, every server's stats
// and beacon store, the selector state of stateful selectors, and the
// chaos engine's overlap bookkeeping. The chaos section is the snapshot's
// only record of injected faults: restoring it re-installs the failed
// links, gray rates, latency spikes and crashed servers it holds. Pending
// events are deliberately NOT serialized — they are closures, and Resume
// re-creates the exact pending population from the RunConfig (see the
// registration-order comment on Plane).
//
// Snapshots are only taken at beaconing-interval boundaries, where no
// deliveries are in flight (link delays are far below the interval), so
// the event queue at capture time consists purely of reconstructible
// schedule entries: interval ticks and the chaos plan (a pure function of
// its seed).
//
// A snapshot is a sequence of wire.AppendFrame frames (the path-server
// WAL's framing), all fields big-endian, in fixed section order (header,
// network, one section per server in Topo.IAs() order, then the chaos
// section iff the run has a chaos schedule).
package beacon

import (
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"scionmpr/internal/addr"
	"scionmpr/internal/chaos"
	"scionmpr/internal/core"
	"scionmpr/internal/seg"
	"scionmpr/internal/sim"
	"scionmpr/internal/wire"
)

const (
	snapMagic = 0x4D505243 // "MPRC"
	// Version 2 keeps fault state only in the chaos section.
	snapVersion = 2
	snapPrefix  = "beacon: snapshot section" // starts every wire.Reader error
)

// frames splits a snapshot into its CRC-verified section payloads.
func frames(b []byte) ([][]byte, error) {
	var out [][]byte
	for rest := b; len(rest) > 0; {
		payload, next, ok := wire.NextFrame(rest)
		if !ok {
			return nil, fmt.Errorf("beacon: snapshot frame at offset %d is torn or fails its CRC", len(b)-len(rest))
		}
		out, rest = append(out, payload), next
	}
	return out, nil
}

// checkpointSupported rejects configurations whose fingerprint folds in
// cumulative observer state a resumed run cannot reproduce.
func checkpointSupported(cfg RunConfig) error {
	if cfg.Telemetry != nil || cfg.Tracer != nil {
		return fmt.Errorf("beacon: checkpoint/resume with telemetry or tracing attached is unsupported (their cumulative state is part of the fingerprint)")
	}
	// Note on keys: with cfg.Infra nil, both runs call NewInfra(Sized),
	// which derives keys deterministically, so the resumed run rebuilds
	// identical signers. A caller passing its own Infra must pass the
	// same one (or an identically constructed one) to Resume.
	return nil
}

// appendNetworkState serializes a NetworkState canonically (counters in
// sorted key order).
func appendNetworkState(dst []byte, st sim.NetworkState) []byte {
	keys := make([]sim.IfKey, 0, len(st.Counters))
	for k := range st.Counters {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].IA != keys[j].IA {
			return keys[i].IA.Less(keys[j].IA)
		}
		return keys[i].If < keys[j].If
	})
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(keys)))
	for _, k := range keys {
		c := st.Counters[k]
		dst = binary.BigEndian.AppendUint64(dst, k.IA.Uint64())
		dst = binary.BigEndian.AppendUint16(dst, uint16(k.If))
		dst = binary.BigEndian.AppendUint64(dst, c.TxBytes)
		dst = binary.BigEndian.AppendUint64(dst, c.TxMsgs)
		dst = binary.BigEndian.AppendUint64(dst, c.RxBytes)
		dst = binary.BigEndian.AppendUint64(dst, c.RxMsgs)
	}
	dst = binary.BigEndian.AppendUint64(dst, st.LossSeq)
	dst = binary.BigEndian.AppendUint64(dst, st.Dropped)
	dst = binary.BigEndian.AppendUint64(dst, st.DroppedOnFailedLinks)
	dst = binary.BigEndian.AppendUint64(dst, st.DroppedByLoss)
	return dst
}

func readNetworkState(r *wire.Reader) sim.NetworkState {
	var st sim.NetworkState
	n := r.Count(r.U32(), 42)
	st.Counters = make(map[sim.IfKey]sim.Counter, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		k := sim.IfKey{IA: addr.IAFromUint64(r.U64()), If: addr.IfID(r.U16())}
		st.Counters[k] = sim.Counter{
			TxBytes: r.U64(), TxMsgs: r.U64(),
			RxBytes: r.U64(), RxMsgs: r.U64(),
		}
	}
	st.LossSeq = r.U64()
	st.Dropped = r.U64()
	st.DroppedOnFailedLinks = r.U64()
	st.DroppedByLoss = r.U64()
	return st
}

// appendServerState serializes one server: identity, stats, the beacon
// store (origins in sorted order, entries in the store's canonical
// order — the same traversal the fingerprint uses), and the selector
// state blob for stateful selectors.
func appendServerState(dst []byte, srv *Server, now sim.Time) []byte {
	dst = binary.BigEndian.AppendUint64(dst, srv.cfg.Local.Uint64())
	dst = binary.BigEndian.AppendUint16(dst, srv.segID)
	dst = binary.BigEndian.AppendUint64(dst, srv.Originated)
	dst = binary.BigEndian.AppendUint64(dst, srv.Propagated)
	dst = binary.BigEndian.AppendUint64(dst, srv.Received)
	dst = binary.BigEndian.AppendUint64(dst, srv.Rejected)
	dst = binary.BigEndian.AppendUint64(dst, srv.DroppedWhileDown)

	origins := srv.store.Origins()
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(origins)))
	for _, origin := range origins {
		entries := srv.store.Entries(now, origin)
		dst = binary.BigEndian.AppendUint64(dst, origin.Uint64())
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(entries)))
		for _, e := range entries {
			enc := e.PCB.Encode()
			dst = binary.BigEndian.AppendUint32(dst, uint32(len(enc)))
			dst = append(dst, enc...)
			dst = binary.BigEndian.AppendUint16(dst, uint16(e.Ingress))
			dst = binary.BigEndian.AppendUint64(dst, uint64(e.ReceivedAt))
		}
	}

	if cp, ok := srv.cfg.Selector.(core.Checkpointer); ok {
		blob := cp.AppendState(nil)
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(blob)))
		dst = append(dst, blob...)
	} else {
		dst = binary.BigEndian.AppendUint32(dst, 0)
	}
	return dst
}

// restoreServerState applies one server section. The section's IA must
// match the server's (both follow Topo.IAs() order).
func restoreServerState(r *wire.Reader, srv *Server) error {
	ia := addr.IAFromUint64(r.U64())
	if r.Err() == nil && ia != srv.cfg.Local {
		return fmt.Errorf("beacon: snapshot server section for %v, want %v (topology mismatch?)", ia, srv.cfg.Local)
	}
	srv.segID = r.U16()
	srv.Originated = r.U64()
	srv.Propagated = r.U64()
	srv.Received = r.U64()
	srv.Rejected = r.U64()
	srv.DroppedWhileDown = r.U64()

	nOrigins := r.Count(r.U32(), 12)
	for i := 0; i < nOrigins && r.Err() == nil; i++ {
		r.U64() // origin — implied by the entries themselves
		nEntries := r.Count(r.U32(), 14)
		for j := 0; j < nEntries; j++ {
			pcb := seg.Read(r, int(r.U32()))
			ingress := addr.IfID(r.U16())
			receivedAt := sim.Time(r.U64())
			if r.Err() != nil {
				break
			}
			if res := srv.store.InsertPCB(receivedAt, pcb, ingress); res != Stored {
				return fmt.Errorf("beacon: snapshot entry for %v re-inserted as %v, want Stored", srv.cfg.Local, res)
			}
		}
	}

	blob := r.Bytes(int(r.U32()))
	if r.Err() == nil && len(blob) > 0 {
		cp, ok := srv.cfg.Selector.(core.Checkpointer)
		if !ok {
			return fmt.Errorf("beacon: snapshot has selector state for %v but selector %q cannot restore it", srv.cfg.Local, srv.cfg.Selector.Name())
		}
		if err := cp.RestoreState(blob); err != nil {
			return err
		}
	}
	return r.Done()
}

// capture builds the full snapshot at simulated time now. Must run in
// serial context (a BeforeStep hook) with no deliveries in flight.
func (p *Plane) capture(eng *chaos.Engine, now sim.Time) ([]byte, error) {
	if n := p.Sim.PendingDeliveries(); n != 0 {
		return nil, fmt.Errorf("beacon: checkpoint at %v with %d deliveries in flight", now, n)
	}
	var header []byte
	header = binary.BigEndian.AppendUint32(header, snapMagic)
	header = binary.BigEndian.AppendUint16(header, snapVersion)
	header = binary.BigEndian.AppendUint64(header, uint64(now))
	header = binary.BigEndian.AppendUint64(header, p.Sim.Executed)
	ias := p.Cfg.Topo.IAs()
	header = binary.BigEndian.AppendUint32(header, uint32(len(ias)))
	if eng != nil {
		header = append(header, 1)
	} else {
		header = append(header, 0)
	}
	snap := wire.AppendFrame(nil, header)
	snap = wire.AppendFrame(snap, appendNetworkState(nil, p.Net.CheckpointState()))
	for _, ia := range ias {
		snap = wire.AppendFrame(snap, appendServerState(nil, p.Servers[ia], now))
	}
	if eng != nil {
		snap = wire.AppendFrame(snap, eng.AppendState(nil))
	}
	return snap, nil
}

// RunWithCheckpoint executes cfg exactly like Run while also capturing a
// resumable snapshot at the first beaconing-interval boundary at or after
// `at`. It returns the completed run and the snapshot; feeding the
// snapshot to Resume with the same cfg reproduces the remainder of the
// run, fingerprint-identical.
func RunWithCheckpoint(cfg RunConfig, at time.Duration) (*RunResult, []byte, error) {
	if err := checkpointSupported(cfg); err != nil {
		return nil, nil, err
	}
	if at <= 0 || at > cfg.Duration {
		return nil, nil, fmt.Errorf("beacon: checkpoint time %v outside run duration %v", at, cfg.Duration)
	}
	p, err := NewPlane(cfg)
	if err != nil {
		return nil, nil, err
	}
	// Align up to the next interval boundary: there, every pending event
	// is a schedule entry Resume can re-derive, and no deliveries are in
	// flight (link delays are orders of magnitude below the interval).
	iv := cfg.Interval
	aligned := sim.Time((at + iv - 1) / iv * iv)

	var (
		snap    []byte
		snapErr error
		eng     *chaos.Engine
	)
	p.Sim.BeforeStep(func(t sim.Time) {
		if snap != nil || snapErr != nil || t < aligned || time.Duration(t)%iv != 0 {
			return
		}
		snap, snapErr = p.capture(eng, t)
	})
	p.ScheduleTicks()
	eng, err = p.applyChaos(nil)
	if err != nil {
		return nil, nil, err
	}
	res := p.finish(eng)
	if snapErr != nil {
		return nil, nil, snapErr
	}
	if snap == nil {
		return nil, nil, fmt.Errorf("beacon: no interval boundary at or after %v was reached", at)
	}
	return res, snap, nil
}

// Resume rebuilds a run from a snapshot taken by RunWithCheckpoint under
// the same RunConfig and executes it to completion. The returned
// RunResult's Fingerprint is byte-identical to the uninterrupted run's,
// for any worker count.
func Resume(cfg RunConfig, snapshot []byte) (*RunResult, error) {
	if err := checkpointSupported(cfg); err != nil {
		return nil, err
	}
	secs, err := frames(snapshot)
	if err != nil {
		return nil, err
	}
	if len(secs) < 2 {
		return nil, fmt.Errorf("beacon: snapshot has %d sections, want at least header and network", len(secs))
	}
	h := wire.NewReader(snapPrefix, secs[0])
	if magic := h.U32(); h.Err() == nil && magic != snapMagic {
		return nil, fmt.Errorf("beacon: snapshot magic %#x, want %#x", magic, snapMagic)
	}
	if v := h.U16(); h.Err() == nil && v != snapVersion {
		return nil, fmt.Errorf("beacon: snapshot version %d, want %d", v, snapVersion)
	}
	now := sim.Time(h.U64())
	executed := h.U64()
	numServers := int(h.U32())
	hasChaos := h.U8() != 0
	if err := h.Done(); err != nil {
		return nil, err
	}
	if hasChaos != (cfg.Chaos != nil) {
		return nil, fmt.Errorf("beacon: snapshot chaos presence (%v) disagrees with config (%v)", hasChaos, cfg.Chaos != nil)
	}
	want := 2 + numServers
	if hasChaos {
		want++
	}
	if len(secs) != want {
		return nil, fmt.Errorf("beacon: snapshot has %d sections, want %d", len(secs), want)
	}

	p, err := NewPlane(cfg)
	if err != nil {
		return nil, err
	}
	ias := cfg.Topo.IAs()
	if len(ias) != numServers {
		return nil, fmt.Errorf("beacon: snapshot has %d servers, topology has %d", numServers, len(ias))
	}
	if now < 0 || now > p.end {
		return nil, fmt.Errorf("beacon: snapshot time %v outside run duration %v", time.Duration(now), cfg.Duration)
	}
	p.Sim.Restore(now, executed)
	r := wire.NewReader(snapPrefix, secs[1])
	st := readNetworkState(&r)
	if err := r.Done(); err != nil {
		return nil, err
	}
	p.Net.RestoreState(st)
	for i, ia := range ias {
		r := wire.NewReader(snapPrefix, secs[2+i])
		if err := restoreServerState(&r, p.Servers[ia]); err != nil {
			return nil, err
		}
	}
	// Registration order (chaos plan, then ticks) reproduces the original
	// run's relative sequence numbers among same-timestamp events:
	// setup-registered fault actions held smaller sequence numbers than
	// the self-rescheduled interval ticks in flight at the checkpoint.
	// See Plane.
	var chaosState []byte
	if hasChaos {
		chaosState = secs[len(secs)-1]
	}
	eng, err := p.applyChaos(chaosState)
	if err != nil {
		return nil, err
	}
	p.ScheduleTicks()
	return p.finish(eng), nil
}
