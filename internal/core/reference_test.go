package core

// The selector kept here is core.Diversity as it stood before its Select
// learnt to skip quiet candidates, kept verbatim (renamed refDiversity,
// with its helper types and checkpoint methods) as the oracle the fast
// selector is compared with: same selections, same Link History Tables,
// same Sent PCBs Lists and the same checkpoint bytes. It shares
// refSentRecord with the product code, and keeps the Sent PCBs List encoder
// and decoder of that time (refAppendSentMap, refReadSentMap).

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"scionmpr/internal/addr"
	"scionmpr/internal/seg"
	"scionmpr/internal/sim"
	"scionmpr/internal/wire"
)

// refSentRecord is the Sent PCBs List record of that time.
type refSentRecord struct {
	diversity        float64
	timestamp        sim.Time
	expiry           sim.Time
	links            []uint32
	origin, neighbor addr.IA
}

// newRefDiversity builds the verbatim oracle for one AS.
func newRefDiversity(p Params, local addr.IA) *refDiversity {
	return &refDiversity{
		Params:  p,
		local:   local,
		hist:    map[addr.IA]map[addr.IA]map[uint32]int32{},
		sent:    map[addr.IfID]map[string]refSentRecord{},
		ids:     map[seg.LinkKey]uint32{},
		baseIDs: map[*seg.PCB][]uint32{},
	}
}

// refDiversity is the Path-Diversity-Based Path Construction Algorithm
// (Algorithm 1). One instance holds the AS-local state of one beacon
// server: Link History Tables per [origin AS, neighbor AS] pair and Sent
// PCBs Lists per egress interface.
type refDiversity struct {
	Params Params
	local  addr.IA

	// hist[origin][neighbor][linkID] counts how many disseminated valid
	// paths from origin toward neighbor include the link.
	hist map[addr.IA]map[addr.IA]map[uint32]int32
	// sent[egress][hopsKey] records disseminated PCBs per interface (the
	// egress is the outer key, so the path identity alone suffices).
	sent map[addr.IfID]map[string]refSentRecord
	// ids interns Link History Table keys into dense uint32 identifiers:
	// hashing a word-sized id beats the 16-byte LinkKey struct in the
	// Select hot loop, and the collapse under ASDisjoint happens once per
	// link instead of once per scoring round.
	ids map[seg.LinkKey]uint32

	// baseIDs caches the interned link ids per stored PCB instance. PCB
	// instances are immutable and long-lived (the simulator hands the same
	// pointer from sender store to receiver store), so the cache turns the
	// per-tick re-interning of every candidate into one map hit. Bounded:
	// cleared wholesale past refBaseIDsCap and rebuilt on demand.
	baseIDs map[*seg.PCB][]uint32

	// Select scratch, reused across calls. A selector instance belongs to
	// exactly one AS actor, so Select never runs concurrently with itself;
	// reusing these keeps the per-(origin, neighbor) hot loop free of map
	// and slice churn (it used to dominate beaconing profiles via GC).
	selPCBs    []refPCBState
	selIfs     []refIfState
	selCands   []refCandState
	byLink     [][]int32 // interned id -> indices into selPCBs
	egBy       [][]int32 // interned id -> indices into selIfs
	usedLink   []uint32  // ids with non-empty byLink lists this call
	usedEg     []uint32  // ids with non-empty egBy lists this call
	touchedPCB []bool
	touchedIf  []bool
}

// refBaseIDsCap bounds the per-PCB interned-id cache; at ~5 ids per entry
// this is a few MiB per AS before a wholesale clear.
const refBaseIDsCap = 1 << 15

// Name implements Selector.
func (d *refDiversity) Name() string { return "diversity" }

// tableKey maps a path link to its Link History Table key: the link
// itself, or its AS collapsed under the ASDisjoint ablation.
func (d *refDiversity) tableKey(lk seg.LinkKey) seg.LinkKey {
	if d.Params.ASDisjoint {
		return seg.LinkKey{IA: lk.IA}
	}
	return lk
}

// intern returns the stable id of a link's table key, assigning one on
// first use. Id 0 is never assigned, so it is safe as a "never seen"
// sentinel.
func (d *refDiversity) intern(lk seg.LinkKey) uint32 {
	lk = d.tableKey(lk)
	id, ok := d.ids[lk]
	if !ok {
		id = uint32(len(d.ids)) + 1
		d.ids[lk] = id
	}
	return id
}

func (d *refDiversity) table(origin, neighbor addr.IA) map[uint32]int32 {
	byN := d.hist[origin]
	if byN == nil {
		byN = map[addr.IA]map[uint32]int32{}
		d.hist[origin] = byN
	}
	t := byN[neighbor]
	if t == nil {
		t = map[uint32]int32{}
		byN[neighbor] = t
	}
	return t
}

// term is one link counter's contribution to the log-sum whose
// exponential is the geometric mean of the path.
//
// Deviation from the paper's literal description: the geometric mean is
// taken over counter+1. A raw geometric mean is zeroed by any single
// never-used link, which makes a path with one new link and many heavily
// reused ones indistinguishable from a fully disjoint path. The +1
// smoothing preserves the paper's stated preference ordering ("prefer
// PCBs with few overlapping links, PCBs containing new links") while
// keeping partially overlapping paths distinguishable; the raw variant is
// available for the ablation benches via RawGeoMean (zero counters are
// then handled by the anyZero short circuit in dsOf, not by term).
func (d *refDiversity) term(c int32) float64 {
	if d.Params.RawGeoMean {
		if c == 0 {
			return 0
		}
		return math.Log(float64(c))
	}
	return math.Log(float64(c + 1))
}

// dsOf turns a path's accumulated log-sum over n links into the link
// diversity score: the geometric mean scaled by MaxGeoMean into a
// jointness and inverted, so disjoint paths (low counters) score high.
// anyZero marks a raw-mode path containing a never-used link, which is
// maximally diverse by the paper's literal definition.
//
// Saturation is decided on the log scale: a path whose counter product
// reaches MaxGeoMean^n scores exactly 0. Comparing exp(logSum/n) with
// MaxGeoMean instead leaves a covered path at 2^-53 or 0 depending on
// the order in which logSum was accumulated. refSaturationTol absorbs that
// rounding and is far below the gap between distinct integer counter
// products (at least ln(2^n/(2^n-1)) ≈ 2^-n for the default MaxGeoMean 2).
func (d *refDiversity) dsOf(logSum float64, n int, anyZero bool) float64 {
	if n == 0 {
		return d.Params.MaxDiversity
	}
	if d.Params.RawGeoMean && anyZero {
		return d.Params.MaxDiversity
	}
	if logSum >= float64(n)*math.Log(d.Params.MaxGeoMean)-refSaturationTol {
		return 0
	}
	gm := math.Exp(logSum / float64(n))
	jointness := gm / d.Params.MaxGeoMean
	if jointness > 1 {
		jointness = 1
	}
	ds := 1 - jointness
	if ds > d.Params.MaxDiversity {
		ds = d.Params.MaxDiversity
	}
	return ds
}

// refSaturationTol is dsOf's rounding allowance on a path's log-sum.
const refSaturationTol = 1e-9

// diversityScore computes the link diversity score of an arbitrary path
// against a Link History Table (test and commit helper; Select maintains
// the log-sums incrementally instead).
func (d *refDiversity) diversityScore(links []seg.LinkKey, table map[uint32]int32) float64 {
	logSum := 0.0
	anyZero := false
	for _, lk := range links {
		c := table[d.intern(lk)]
		if c == 0 {
			anyZero = true
		}
		logSum += d.term(c)
	}
	return d.dsOf(logSum, len(links), anyZero)
}

// score computes Equation 1 for one candidate: ds^f for not-previously-
// sent candidates (Equation 2), ds^g for previously-sent, still-valid
// candidates (Equation 3, reusing the diversity score recorded at send
// time).
func (d *refDiversity) score(now sim.Time, p *seg.PCB, egress addr.IfID, ds float64) float64 {
	return d.scoreKeyed(now, p, p.HopsKey(), egress, ds)
}

// scoreKeyed is score with the candidate's sent-list key precomputed.
func (d *refDiversity) scoreKeyed(now sim.Time, p *seg.PCB, key string, egress addr.IfID, ds float64) float64 {
	if rec, ok := d.sentLookup(now, key, egress); ok {
		sentRemaining := float64(rec.expiry - now)
		if sentRemaining < 0 {
			sentRemaining = 0
		}
		curRemaining := float64(p.Remaining(now))
		if curRemaining <= 0 {
			return 0
		}
		g := math.Pow(d.Params.Beta*sentRemaining/curRemaining, d.Params.Gamma)
		return math.Pow(rec.diversity, g)
	}
	lifetime := float64(p.Lifetime())
	if lifetime <= 0 {
		return 0
	}
	f := d.Params.Alpha * float64(p.Age(now)) / lifetime
	return math.Pow(ds, f)
}

// sentLookup finds a valid Sent PCBs List record for the same path via
// the same egress interface; expired records are pruned lazily.
func (d *refDiversity) sentLookup(now sim.Time, key string, egress addr.IfID) (refSentRecord, bool) {
	byKey := d.sent[egress]
	if byKey == nil {
		return refSentRecord{}, false
	}
	rec, ok := byKey[key]
	if !ok {
		return refSentRecord{}, false
	}
	if now >= rec.expiry {
		delete(byKey, key)
		return refSentRecord{}, false
	}
	return rec, true
}

// pcbIDs returns the interned ids of a stored PCB's links, cached per
// instance (see baseIDs).
func (d *refDiversity) pcbIDs(p *seg.PCB) []uint32 {
	if ids, ok := d.baseIDs[p]; ok {
		return ids
	}
	links := p.Links()
	ids := make([]uint32, len(links))
	for i, lk := range links {
		ids[i] = d.intern(lk)
	}
	if len(d.baseIDs) >= refBaseIDsCap {
		clear(d.baseIDs)
	}
	d.baseIDs[p] = ids
	return ids
}

// addByLink records that selPCBs[pi] contains the link id, growing the
// dense per-id index as new ids are interned.
func (d *refDiversity) addByLink(id uint32, pi int32) {
	if int(id) >= len(d.byLink) {
		d.byLink = append(d.byLink, make([][]int32, int(id)+1-len(d.byLink))...)
	}
	if len(d.byLink[id]) == 0 {
		d.usedLink = append(d.usedLink, id)
	}
	d.byLink[id] = append(d.byLink[id], pi)
}

// addEgBy records that selIfs[fi]'s egress link has the given id.
func (d *refDiversity) addEgBy(id uint32, fi int32) {
	if int(id) >= len(d.egBy) {
		d.egBy = append(d.egBy, make([][]int32, int(id)+1-len(d.egBy))...)
	}
	if len(d.egBy[id]) == 0 {
		d.usedEg = append(d.usedEg, id)
	}
	d.egBy[id] = append(d.egBy[id], fi)
}

// resetSelect returns the scratch state to empty for the next Select
// call, dropping PCB references so finished rounds don't pin beacons.
func (d *refDiversity) resetSelect() {
	for _, id := range d.usedLink {
		d.byLink[id] = d.byLink[id][:0]
	}
	d.usedLink = d.usedLink[:0]
	for _, id := range d.usedEg {
		d.egBy[id] = d.egBy[id][:0]
	}
	d.usedEg = d.usedEg[:0]
	clear(d.selPCBs)
	d.selPCBs = d.selPCBs[:0]
}

// refPCBState is the per-stored-PCB scoring state of one Select round: the
// interned ids of the beacon's own links (shared across all egress
// interfaces), their accumulated log-sum against the round's Link History
// Table, and how many of them have a zero counter (raw-mode short
// circuit). A commit only adjusts baseSum/zeros by the delta of the
// touched counters instead of re-walking the link slice.
type refPCBState struct {
	pcb     *seg.PCB
	key     string // HopsKey, the sent-list key (cached on the PCB)
	base    []uint32
	baseSum float64
	zeros   int32
}

// refIfState is the per-egress-interface scoring state of one Select round.
type refIfState struct {
	egress addr.IfID
	id     uint32
	log    float64
	zero   bool
}

// refCandState is one (stored PCB, egress interface) combination; candidate
// i*len(ifaces)+j pairs PCB i with interface j.
type refCandState struct {
	ds    float64
	score float64
	taken bool
}

// Select implements Selector with Algorithm 1: iteratively pick the
// highest-scoring (stored PCB, egress interface) combination for this
// [origin, neighbor] pair, stop at the dissemination limit or when the
// best score falls below the threshold, and commit each pick to the Link
// History Table and Sent PCBs List.
//
// Scoring is incremental: each PCB's log-sum of link counters is computed
// once, and a commit propagates per-counter deltas only to the PCBs and
// interfaces sharing a link with the committed path (the only candidates
// whose diversity score can change), then rescores just those. This keeps
// the loop allocation-light and fast on large stores.
func (d *refDiversity) Select(now sim.Time, origin, neighbor addr.IA, ifaces []addr.IfID, stored []*seg.PCB) []Selection {
	if d.Params.Limit <= 0 || len(ifaces) == 0 {
		return nil
	}
	table := d.table(origin, neighbor)
	defer d.resetSelect()

	pcbs := d.selPCBs[:0]
	for _, p := range stored {
		if p.Expired(now) {
			continue
		}
		base := d.pcbIDs(p)
		var sum float64
		var zeros int32
		pi := int32(len(pcbs))
		for _, id := range base {
			c := table[id]
			sum += d.term(c)
			if c == 0 {
				zeros++
			}
			d.addByLink(id, pi)
		}
		pcbs = append(pcbs, refPCBState{pcb: p, key: p.HopsKey(), base: base, baseSum: sum, zeros: zeros})
	}
	d.selPCBs = pcbs
	if len(pcbs) == 0 {
		return nil
	}
	nIf := len(ifaces)
	if cap(d.selIfs) < nIf {
		d.selIfs = make([]refIfState, nIf)
	}
	ifs := d.selIfs[:nIf]
	for i, ifID := range ifaces {
		id := d.intern(seg.LinkKey{IA: d.local, If: ifID})
		c := table[id]
		ifs[i] = refIfState{egress: ifID, id: id, log: d.term(c), zero: c == 0}
		d.addEgBy(id, int32(i))
	}

	if cap(d.selCands) < len(pcbs)*nIf {
		d.selCands = make([]refCandState, len(pcbs)*nIf)
	}
	cands := d.selCands[:len(pcbs)*nIf]
	clear(cands)
	rescore := func(pi, fi int) {
		ps, fs := &pcbs[pi], &ifs[fi]
		c := &cands[pi*nIf+fi]
		ds := d.dsOf(ps.baseSum+fs.log, len(ps.base)+1, ps.zeros > 0 || fs.zero)
		c.ds = ds
		c.score = d.scoreKeyed(now, ps.pcb, ps.key, fs.egress, ds)
	}
	for pi := range pcbs {
		for fi := range ifs {
			rescore(pi, fi)
		}
	}

	if cap(d.touchedPCB) < len(pcbs) {
		d.touchedPCB = make([]bool, len(pcbs))
	}
	if cap(d.touchedIf) < nIf {
		d.touchedIf = make([]bool, nIf)
	}
	touchedPCB := d.touchedPCB[:len(pcbs)]
	touchedIf := d.touchedIf[:nIf]
	var out []Selection
	for len(out) < d.Params.Limit {
		best := -1
		bestScore := d.Params.ScoreThreshold
		for i := range cands {
			if !cands[i].taken && cands[i].score > bestScore {
				best, bestScore = i, cands[i].score
			}
		}
		if best < 0 {
			break
		}
		bp, bf := best/nIf, best%nIf
		c := &cands[best]
		c.taken = true
		ps, fs := &pcbs[bp], &ifs[bf]
		out = append(out, Selection{PCB: ps.pcb, Egress: fs.egress})

		for i := range touchedPCB {
			touchedPCB[i] = false
		}
		for i := range touchedIf {
			touchedIf[i] = false
		}
		mark := func(id uint32) {
			if int(id) < len(d.byLink) {
				for _, pi := range d.byLink[id] {
					touchedPCB[pi] = true
				}
			}
			if int(id) < len(d.egBy) {
				for _, fi := range d.egBy[id] {
					touchedIf[fi] = true
				}
			}
		}
		if d.commitRecord(now, origin, neighbor, ps.pcb, fs.egress, ps.key, c.ds, ps.base, fs.id) {
			// Newly sent: increment every counter on the committed path
			// and propagate the per-counter delta to the PCBs and
			// interfaces whose log-sums include it.
			bump := func(id uint32) {
				old := table[id]
				table[id] = old + 1
				delta := d.term(old+1) - d.term(old)
				if int(id) < len(d.byLink) {
					for _, pi := range d.byLink[id] {
						pcbs[pi].baseSum += delta
						if old == 0 {
							pcbs[pi].zeros--
						}
						touchedPCB[pi] = true
					}
				}
				if int(id) < len(d.egBy) {
					for _, fi := range d.egBy[id] {
						ifs[fi].log = d.term(table[id])
						ifs[fi].zero = false
						touchedIf[fi] = true
					}
				}
			}
			for _, id := range ps.base {
				bump(id)
			}
			bump(fs.id)
		} else {
			// Re-sent path: counters are unchanged (they count valid
			// paths, not transmissions) but the refreshed sent-record
			// timers shift Equation 3 for candidates sharing its links.
			for _, id := range ps.base {
				mark(id)
			}
			mark(fs.id)
		}
		for pi := range pcbs {
			if !touchedPCB[pi] {
				continue
			}
			for fi := range ifs {
				if !cands[pi*nIf+fi].taken {
					rescore(pi, fi)
				}
			}
		}
		for fi := range ifs {
			if !touchedIf[fi] {
				continue
			}
			for pi := range pcbs {
				if touchedPCB[pi] {
					continue // rescored above
				}
				if !cands[pi*nIf+fi].taken {
					rescore(pi, fi)
				}
			}
		}
	}
	return out
}

// commitRecord updates the Sent PCBs List for one dissemination and
// reports whether the path was newly sent — in which case the caller must
// increment the Link History Table counters of base plus egID. For a
// re-sent path only the record's timers are updated (paper §4.2: the
// counters count valid paths, not transmissions, and "if a path is sent
// again, its corresponding timers in Sent PCBs List get updated"). ds is
// the path's diversity score at send time, i.e. before this
// dissemination's own counter increments.
func (d *refDiversity) commitRecord(now sim.Time, origin, neighbor addr.IA, p *seg.PCB, egress addr.IfID, key string, ds float64, base []uint32, egID uint32) bool {
	byKey := d.sent[egress]
	if byKey == nil {
		byKey = map[string]refSentRecord{}
		d.sent[egress] = byKey
	}
	if rec, ok := byKey[key]; ok && now < rec.expiry {
		rec.timestamp = p.Info.Timestamp
		rec.expiry = p.Info.Expiry
		byKey[key] = rec
		return false
	}
	links := make([]uint32, len(base)+1)
	copy(links, base)
	links[len(base)] = egID
	byKey[key] = refSentRecord{
		diversity: ds,
		timestamp: p.Info.Timestamp,
		expiry:    p.Info.Expiry,
		links:     links,
		origin:    origin,
		neighbor:  neighbor,
	}
	return true
}

// commit records one disseminated PCB against the given table, scoring
// the path from scratch (test helper mirroring the incremental Select
// path: same record, same counter increments).
func (d *refDiversity) commit(now sim.Time, origin, neighbor addr.IA, p *seg.PCB, egress addr.IfID, table map[uint32]int32) {
	links := p.Links()
	base := make([]uint32, len(links))
	for i, lk := range links {
		base[i] = d.intern(lk)
	}
	egID := d.intern(seg.LinkKey{IA: d.local, If: egress})
	logSum := 0.0
	anyZero := false
	count := func(id uint32) {
		c := table[id]
		if c == 0 {
			anyZero = true
		}
		logSum += d.term(c)
	}
	for _, id := range base {
		count(id)
	}
	count(egID)
	ds := d.dsOf(logSum, len(base)+1, anyZero)
	if d.commitRecord(now, origin, neighbor, p, egress, p.HopsKey(), ds, base, egID) {
		for _, id := range base {
			table[id]++
		}
		table[egID]++
	}
}

// Revoke implements Revoker: drop every Sent-PCB record whose path used
// the failed link and roll back its Link History Table counters, so the
// surviving links regain diversity headroom and replacement paths are
// re-scored and re-sent at the next interval rather than suppressed.
func (d *refDiversity) Revoke(link seg.LinkKey) {
	id, ok := d.ids[d.tableKey(link)]
	if !ok {
		return // never disseminated over it
	}
	for _, byKey := range d.sent {
		for k, rec := range byKey {
			hit := false
			for _, lid := range rec.links {
				if lid == id {
					hit = true
					break
				}
			}
			if !hit {
				continue
			}
			delete(byKey, k)
			table := d.table(rec.origin, rec.neighbor)
			for _, lid := range rec.links {
				if c := table[lid]; c > 0 {
					table[lid] = c - 1
				}
			}
		}
	}
}

// SentCount reports the number of live Sent PCBs List entries (test and
// diagnostics hook).
func (d *refDiversity) SentCount() int {
	n := 0
	for _, m := range d.sent {
		n += len(m)
	}
	return n
}

// HistoryCounter exposes a Link History Table counter (test hook).
func (d *refDiversity) HistoryCounter(origin, neighbor addr.IA, link seg.LinkKey) int {
	id, ok := d.ids[d.tableKey(link)]
	if !ok {
		return 0
	}
	if byN := d.hist[origin]; byN != nil {
		if t := byN[neighbor]; t != nil {
			return int(t[id])
		}
	}
	return 0
}

// AppendState implements Checkpointer for the diversity algorithm. The
// serialized state is the interned-id table, the Link History Tables, and
// the Sent PCBs Lists — everything future Select/Revoke decisions read.
// The per-PCB id cache and Select scratch are derived state and rebuilt
// on demand after a restore.
func (d *refDiversity) AppendState(dst []byte) []byte {
	// Interned ids are dense 1..n; writing the keys in id order lets
	// RestoreState reassign identical ids, which the Link History Tables
	// and sent-record link lists below reference.
	keys := make([]seg.LinkKey, len(d.ids))
	for lk, id := range d.ids {
		keys[id-1] = lk
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(keys)))
	for _, lk := range keys {
		dst = binary.BigEndian.AppendUint64(dst, lk.IA.Uint64())
		dst = binary.BigEndian.AppendUint16(dst, uint16(lk.If))
	}

	// Link History Tables as (origin, neighbor, id, count) tuples in
	// canonical order. Zero counters are equivalent to absent ones for
	// every reader (lookups default to zero), so they are skipped.
	type histEntry struct {
		origin, neighbor addr.IA
		id               uint32
		count            int32
	}
	var hist []histEntry
	for origin, byN := range d.hist {
		for neighbor, t := range byN {
			for id, c := range t {
				if c != 0 {
					hist = append(hist, histEntry{origin, neighbor, id, c})
				}
			}
		}
	}
	sort.Slice(hist, func(i, j int) bool {
		a, b := hist[i], hist[j]
		if a.origin != b.origin {
			return a.origin.Less(b.origin)
		}
		if a.neighbor != b.neighbor {
			return a.neighbor.Less(b.neighbor)
		}
		return a.id < b.id
	})
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(hist)))
	for _, e := range hist {
		dst = binary.BigEndian.AppendUint64(dst, e.origin.Uint64())
		dst = binary.BigEndian.AppendUint64(dst, e.neighbor.Uint64())
		dst = binary.BigEndian.AppendUint32(dst, e.id)
		dst = binary.BigEndian.AppendUint32(dst, uint32(e.count))
	}

	return refAppendSentMap(dst, d.sent)
}

// RestoreState implements Checkpointer for the diversity algorithm.
func (d *refDiversity) RestoreState(b []byte) error {
	r := wire.NewReader(statePrefix, b)
	nIDs := r.Count(r.U32(), 10)
	ids := make(map[seg.LinkKey]uint32, nIDs)
	for i := 0; i < nIDs && r.Err() == nil; i++ {
		lk := seg.LinkKey{IA: addr.IAFromUint64(r.U64()), If: addr.IfID(r.U16())}
		ids[lk] = uint32(i) + 1
	}
	nHist := r.Count(r.U32(), 24)
	hist := map[addr.IA]map[addr.IA]map[uint32]int32{}
	for i := 0; i < nHist && r.Err() == nil; i++ {
		origin := addr.IAFromUint64(r.U64())
		neighbor := addr.IAFromUint64(r.U64())
		id := r.U32()
		count := int32(r.U32())
		byN := hist[origin]
		if byN == nil {
			byN = map[addr.IA]map[uint32]int32{}
			hist[origin] = byN
		}
		t := byN[neighbor]
		if t == nil {
			t = map[uint32]int32{}
			byN[neighbor] = t
		}
		t[id] = count
	}
	sent := refReadSentMap(&r)
	if len(ids) != nIDs {
		r.Failf("repeats a link key") // AppendState indexes by id
	}
	if err := r.Done(); err != nil {
		return err
	}
	d.ids = ids
	d.hist = hist
	d.sent = sent
	d.baseIDs = map[*seg.PCB][]uint32{}
	return r.Canonical(d.AppendState(nil))
}

// refAppendSentMap serializes a Sent PCBs List in canonical order: egress
// interfaces ascending, then path keys in byte order. Expired records are
// written verbatim — Revoke walks them for counter rollback, so pruning
// here would change post-resume behavior.
func refAppendSentMap(dst []byte, sent map[addr.IfID]map[string]refSentRecord) []byte {
	egs := make([]addr.IfID, 0, len(sent))
	total := 0
	for eg, byKey := range sent {
		if len(byKey) == 0 {
			continue
		}
		egs = append(egs, eg)
		total += len(byKey)
	}
	sort.Slice(egs, func(i, j int) bool { return egs[i] < egs[j] })
	dst = binary.BigEndian.AppendUint32(dst, uint32(total))
	var keys []string
	for _, eg := range egs {
		byKey := sent[eg]
		keys = keys[:0]
		for k := range byKey {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			rec := byKey[k]
			dst = binary.BigEndian.AppendUint16(dst, uint16(eg))
			dst = binary.BigEndian.AppendUint32(dst, uint32(len(k)))
			dst = append(dst, k...)
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(rec.diversity))
			dst = binary.BigEndian.AppendUint64(dst, uint64(rec.timestamp))
			dst = binary.BigEndian.AppendUint64(dst, uint64(rec.expiry))
			dst = binary.BigEndian.AppendUint32(dst, uint32(len(rec.links)))
			for _, id := range rec.links {
				dst = binary.BigEndian.AppendUint32(dst, id)
			}
			dst = binary.BigEndian.AppendUint64(dst, rec.origin.Uint64())
			dst = binary.BigEndian.AppendUint64(dst, rec.neighbor.Uint64())
		}
	}
	return dst
}

func refReadSentMap(r *wire.Reader) map[addr.IfID]map[string]refSentRecord {
	sent := map[addr.IfID]map[string]refSentRecord{}
	n := r.Count(r.U32(), 50)
	for i := 0; i < n && r.Err() == nil; i++ {
		eg := addr.IfID(r.U16())
		key := r.Str()
		var rec refSentRecord
		rec.diversity = math.Float64frombits(r.U64())
		rec.timestamp = sim.Time(r.U64())
		rec.expiry = sim.Time(r.U64())
		if nl := r.Count(r.U32(), 4); nl > 0 {
			rec.links = make([]uint32, nl)
			for j := range rec.links {
				rec.links[j] = r.U32()
			}
		}
		rec.origin = addr.IAFromUint64(r.U64())
		rec.neighbor = addr.IAFromUint64(r.U64())
		byKey := sent[eg]
		if byKey == nil {
			byKey = map[string]refSentRecord{}
			sent[eg] = byKey
		}
		byKey[key] = rec
	}
	return sent
}

// lineDiversity is Algorithm 1 with Equations 1–3 written a second time
// as straight-line code: no interned ids, no caches and no incremental
// sums. Every round of every call recomputes every candidate's geometric
// mean from the Link History Table.
//
// Link History Table rule. §4.2 has the table count "valid paths", and
// says that when "a path is sent again, its corresponding timers in Sent
// PCBs List get updated". So a re-send increments nothing, and a send of
// a path with no live record increments every link on it. Nothing in
// §4.2 says when an expired record releases its counts, and this oracle
// keeps the product's answer: never. An expired record is dropped when
// its path is next offered on its egress interface, and its counts stay.
// Only Revoke decrements, for the records it drops, expired ones included.
type lineDiversity struct {
	p     Params
	local addr.IA
	hist  map[[2]addr.IA]map[seg.LinkKey]int32
	sent  map[lineSentKey]lineRecord
	// ties counts the picks taken from Select's follow list.
	ties int
}

type lineSentKey struct {
	egress addr.IfID
	hops   string
}

type lineRecord struct {
	diversity        float64
	expiry           sim.Time
	links            []seg.LinkKey // table keys, egress link included
	origin, neighbor addr.IA
}

func newLineDiversity(p Params, local addr.IA) *lineDiversity {
	return &lineDiversity{p: p, local: local, hist: map[[2]addr.IA]map[seg.LinkKey]int32{}, sent: map[lineSentKey]lineRecord{}}
}

func (l *lineDiversity) table(origin, neighbor addr.IA) map[seg.LinkKey]int32 {
	t := l.hist[[2]addr.IA{origin, neighbor}]
	if t == nil {
		t = map[seg.LinkKey]int32{}
		l.hist[[2]addr.IA{origin, neighbor}] = t
	}
	return t
}

// keys lists the Link History Table keys of p sent out of egress.
func (l *lineDiversity) keys(p *seg.PCB, egress addr.IfID) []seg.LinkKey {
	links := p.LinksVia(l.local, egress)
	for i := range links {
		if l.p.ASDisjoint {
			links[i] = seg.LinkKey{IA: links[i].IA}
		}
	}
	return links
}

// ds is the link diversity score: one minus the geometric mean of the
// (counter + 1) values, or of the raw counters under RawGeoMean, scaled
// by MaxGeoMean and capped at MaxDiversity. Saturation (a counter
// product of at least MaxGeoMean^n) is decided on the log scale with a
// 1e-9 allowance, so a fully covered path scores exactly 0.
func (l *lineDiversity) ds(links []seg.LinkKey, t map[seg.LinkKey]int32) float64 {
	if len(links) == 0 {
		return l.p.MaxDiversity
	}
	logSum := 0.0
	for _, lk := range links {
		c := float64(t[lk])
		if l.p.RawGeoMean {
			if c == 0 {
				return l.p.MaxDiversity
			}
		} else {
			c++
		}
		logSum += math.Log(c)
	}
	n := float64(len(links))
	if logSum >= n*math.Log(l.p.MaxGeoMean)-1e-9 {
		return 0
	}
	return math.Min(1-math.Min(math.Exp(logSum/n)/l.p.MaxGeoMean, 1), l.p.MaxDiversity)
}

// score is Equation 1: Equation 3 for a path with a live record on
// egress, Equation 2 otherwise. Looking up an expired record drops it.
func (l *lineDiversity) score(now sim.Time, p *seg.PCB, egress addr.IfID, ds float64) float64 {
	k := lineSentKey{egress, p.HopsKey()}
	if rec, ok := l.sent[k]; ok {
		if now < rec.expiry {
			cur := float64(p.Remaining(now))
			if cur <= 0 {
				return 0
			}
			g := math.Pow(l.p.Beta*float64(rec.expiry-now)/cur, l.p.Gamma)
			return math.Pow(rec.diversity, g)
		}
		delete(l.sent, k)
	}
	if p.Lifetime() <= 0 {
		return 0
	}
	return math.Pow(ds, l.p.Alpha*float64(p.Age(now))/float64(p.Lifetime()))
}

// Select is Algorithm 1: up to Limit times, take the highest-scoring
// untaken (PCB, egress) candidate above ScoreThreshold (the first in
// PCB-major, egress-minor order on a tie) and commit it.
//
// follow, when set, is what core.Diversity selected from the same
// inputs. Its incremental log-sums round differently from this fresh
// recomputation, so candidates whose scores are equal in exact
// arithmetic can come out a few ulps apart there and be taken in another
// order. Where follow's pick scores within tieTol of this round's best,
// the oracle takes follow's pick and counts a tie; any other difference
// is left to show in the comparison.
func (l *lineDiversity) Select(now sim.Time, origin, neighbor addr.IA, ifaces []addr.IfID, stored []*seg.PCB, follow []Selection) []Selection {
	if l.p.Limit <= 0 || len(ifaces) == 0 {
		return nil
	}
	t := l.table(origin, neighbor)
	var valid []*seg.PCB
	for _, p := range stored {
		if !p.Expired(now) {
			valid = append(valid, p)
		}
	}
	var cands []Selection
	for _, p := range valid {
		for _, eg := range ifaces {
			cands = append(cands, Selection{PCB: p, Egress: eg})
		}
	}
	taken := make([]bool, len(cands))
	ds, score := make([]float64, len(cands)), make([]float64, len(cands))
	var out []Selection
	for len(out) < l.p.Limit {
		best, bestScore := -1, l.p.ScoreThreshold
		for i, c := range cands {
			if taken[i] {
				continue
			}
			ds[i] = l.ds(l.keys(c.PCB, c.Egress), t)
			score[i] = l.score(now, c.PCB, c.Egress, ds[i])
			if score[i] > bestScore {
				best, bestScore = i, score[i]
			}
		}
		if k := len(out); k < len(follow) && (best < 0 || follow[k] != cands[best]) {
			if i := slices.Index(cands, follow[k]); i >= 0 && !taken[i] && score[i] >= bestScore*(1-tieTol) {
				best = i
				l.ties++
			}
		}
		if best < 0 {
			break
		}
		taken[best] = true
		c := cands[best]
		out = append(out, c)
		k := lineSentKey{c.Egress, c.PCB.HopsKey()}
		if rec, ok := l.sent[k]; ok && now < rec.expiry {
			rec.expiry = c.PCB.Info.Expiry
			l.sent[k] = rec
			continue
		}
		links := l.keys(c.PCB, c.Egress)
		l.sent[k] = lineRecord{diversity: ds[best], expiry: c.PCB.Info.Expiry, links: links, origin: origin, neighbor: neighbor}
		for _, lk := range links {
			t[lk]++
		}
	}
	return out
}

// tieTol is the relative score difference lineDiversity.Select treats as
// a rounding tie.
const tieTol = 1e-12

// Revoke drops every record whose path used the link, expired or not,
// and decrements its counters.
func (l *lineDiversity) Revoke(link seg.LinkKey) {
	if l.p.ASDisjoint {
		link = seg.LinkKey{IA: link.IA}
	}
	for k, rec := range l.sent {
		if !slices.Contains(rec.links, link) {
			continue
		}
		delete(l.sent, k)
		t := l.table(rec.origin, rec.neighbor)
		for _, lk := range rec.links {
			if t[lk] > 0 {
				t[lk]--
			}
		}
	}
}

// sameLHT reports whether a Link History Table over interned ids holds
// exactly the non-zero counters of want; inv maps an id back to its key
// and is rebuilt when ids grew.
func sameLHT(ids map[seg.LinkKey]uint32, inv *[]seg.LinkKey, t map[uint32]int32, want map[seg.LinkKey]int32) bool {
	if len(*inv) != len(ids)+1 {
		*inv = make([]seg.LinkKey, len(ids)+1)
		for lk, id := range ids {
			(*inv)[id] = lk
		}
	}
	n := 0
	for id, c := range t {
		if c != 0 {
			if want[(*inv)[id]] != c {
				return false
			}
			n++
		}
	}
	for _, c := range want {
		if c != 0 {
			n--
		}
	}
	return n == 0
}

// Lockstep runs core.Diversity, the verbatim oracle and the straight-line
// oracle side by side on the same inputs, returning the product's
// selections. After every Select it compares the three selections and
// the three Link History Tables of the pair; the first difference of an
// AS fails t and stops the comparison for that AS.
type Lockstep struct {
	t      testing.TB
	fast   *Diversity
	ref    *refDiversity
	line   *lineDiversity
	failed bool
	// fastInv and refInv invert the two selectors' interned ids.
	fastInv, refInv []seg.LinkKey
}

// NewLockstep returns a Factory of lockstep selectors reporting to t,
// and a function summing the rounding ties the straight-line oracle took
// from the product (see lineDiversity.Select) over every selector built.
func NewLockstep(t testing.TB, p Params) (Factory, func() int) {
	var mu sync.Mutex
	var all []*Lockstep
	f := func(local addr.IA) Selector {
		s := &Lockstep{t: t, fast: NewDiversity(p)(local).(*Diversity), ref: newRefDiversity(p, local), line: newLineDiversity(p, local)}
		mu.Lock()
		all = append(all, s)
		mu.Unlock()
		return s
	}
	return f, func() int {
		mu.Lock()
		defer mu.Unlock()
		n := 0
		for _, s := range all {
			n += s.line.ties
		}
		return n
	}
}

// Name implements Selector.
func (s *Lockstep) Name() string { return "lockstep" }

// Select implements Selector.
func (s *Lockstep) Select(now sim.Time, origin, neighbor addr.IA, ifaces []addr.IfID, stored []*seg.PCB) []Selection {
	got := s.fast.Select(now, origin, neighbor, ifaces, stored)
	if s.failed {
		return got
	}
	want := s.ref.Select(now, origin, neighbor, ifaces, stored)
	line := s.line.Select(now, origin, neighbor, ifaces, stored, got)
	at := fmt.Sprintf("%s at %v, origin %s, neighbor %s", s.fast.local, time.Duration(now), origin, neighbor)
	switch {
	case !slices.Equal(got, want):
		s.fail("%s: Select %v, verbatim oracle %v", at, got, want)
	case !slices.Equal(got, line):
		s.fail("%s: Select %v, straight-line oracle %v", at, got, line)
	}
	lht := s.line.table(origin, neighbor)
	switch {
	case !sameLHT(s.fast.ids, &s.fastInv, s.fast.table(origin, neighbor), lht):
		s.fail("%s: Link History Table differs from the straight-line oracle's", at)
	case !sameLHT(s.ref.ids, &s.refInv, s.ref.table(origin, neighbor), lht):
		s.fail("%s: verbatim oracle's Link History Table differs from the straight-line oracle's", at)
	}
	return got
}

func (s *Lockstep) fail(format string, args ...any) {
	s.failed = true
	s.t.Errorf(format, args...)
}

// Revoke implements Revoker.
func (s *Lockstep) Revoke(link seg.LinkKey) {
	s.fast.Revoke(link)
	s.ref.Revoke(link)
	s.line.Revoke(link)
}
