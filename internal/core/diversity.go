package core

import (
	"math"

	"scionmpr/internal/addr"
	"scionmpr/internal/seg"
	"scionmpr/internal/sim"
)

// Params are the tuning knobs of the path-diversity-based path
// construction algorithm (paper §4.2, Equations 1–3). The exponent
// parameters trade off the three stated objectives: preserve connectivity
// (resend paths whose previously-sent instance nears expiry), discover new
// paths (prefer unseen diverse paths), and save bandwidth (suppress
// recently-sent paths).
type Params struct {
	// Alpha scales a not-previously-sent PCB's age/lifetime ratio in
	// Equation 2: score = ds^(Alpha * age/lifetime).
	Alpha float64
	// Beta and Gamma shape the previously-sent exponent of Equation 3:
	// score = ds^((Beta * sentRemaining/currentRemaining)^Gamma).
	Beta, Gamma float64
	// ScoreThreshold is the minimum score for dissemination.
	ScoreThreshold float64
	// MaxGeoMean is the "maximum acceptable geometric mean" of link
	// counters used to scale jointness into [0,1].
	MaxGeoMean float64
	// MaxDiversity caps the diversity score strictly below 1 so that the
	// exponentials in Equations 1–3 always bite (ds = 1 would make every
	// score exactly 1 regardless of exponent, defeating retransmission
	// suppression).
	MaxDiversity float64
	// RawGeoMean uses the paper's literal geometric mean of raw counters
	// (any new link zeroes the mean) instead of the smoothed counter+1
	// variant; see term. Exposed for ablation.
	RawGeoMean bool
	// ASDisjoint counts disjointness at AS granularity instead of link
	// granularity. The paper deliberately chooses links "since AS
	// failures are unlikely events" (§4.2); this knob exists for the
	// ablation benches quantifying that choice.
	ASDisjoint bool
	// Limit is the PCB dissemination limit applied per [origin AS,
	// neighbor AS] pair (paper §5.1).
	Limit int
}

// DefaultParams returns parameters found by the grid-search methodology
// of §4.2 on the synthetic core topologies (exponential sweep narrowed by
// a linear sweep, optimizing resilience at minimal overhead).
//
// MaxGeoMean = 2 is the load-bearing choice: with counter+1 smoothing, a
// path whose links are ALL already covered by previously disseminated
// paths has a geometric mean >= 2, saturating jointness, so its diversity
// score is exactly 0 and the threshold blocks it. Dissemination toward a
// neighbor therefore stops once every useful link has been covered, and
// only near-expiry refreshes (Equation 3) keep flowing. That gives the
// >2-orders-of-magnitude overhead reduction of §5.2 in one window only:
// after convergence and before the first Equation 3 refresh (2-4 h into
// a run with 6 h lifetimes), where it is 96x, 270x and 666x at 16, 40
// and 100 cores. Over whole lifetime cycles, refreshes included, it is
// about 10.5x at each of those sizes (EXPERIMENTS.md "Scale caveat").
// Alpha = 6 ages unsent PCBs gently enough that diverse paths still
// propagate across deep (10+ hop) topologies like the SCIONLab ring.
func DefaultParams(limit int) Params {
	return Params{
		Alpha:          6.0,
		Beta:           4.0,
		Gamma:          4.0,
		ScoreThreshold: 0.05,
		MaxGeoMean:     2.0,
		MaxDiversity:   0.95,
		Limit:          limit,
	}
}

// sentRecord is one entry of the Sent PCBs List: the diversity score at
// send time plus the sent instance's validity window, per paper §4.2
// ("the algorithm stores the link diversity score as well as the age and
// the lifetime of every PCB it disseminates to each egress interface").
type sentRecord struct {
	diversity float64
	timestamp sim.Time
	expiry    sim.Time
	// links holds the interned table keys of the sent path (including the
	// egress link) and the pair it was disseminated for, kept so
	// revocations can clear the record and roll back its Link History
	// Table counters.
	links            []uint32
	origin, neighbor addr.IA
}

// Diversity is the Path-Diversity-Based Path Construction Algorithm
// (Algorithm 1). One instance holds the AS-local state of one beacon
// server: Link History Tables per [origin AS, neighbor AS] pair and Sent
// PCBs Lists per egress interface.
type Diversity struct {
	Params Params
	local  addr.IA

	// hist[origin][neighbor][linkID] counts how many disseminated valid
	// paths from origin toward neighbor include the link.
	hist map[addr.IA]map[addr.IA]map[uint32]int32
	// sent[egress][hopsKey] records disseminated PCBs per interface (the
	// egress is the outer key, so the path identity alone suffices).
	sent map[addr.IfID]map[string]sentRecord
	// ids interns Link History Table keys into dense uint32 identifiers:
	// hashing a word-sized id beats the 16-byte LinkKey struct in the
	// Select hot loop, and the collapse under ASDisjoint happens once per
	// link instead of once per scoring round.
	ids map[seg.LinkKey]uint32

	// baseIDs caches the interned link ids per stored PCB instance. PCB
	// instances are immutable and long-lived (the simulator hands the same
	// pointer from sender store to receiver store), so the cache turns the
	// per-tick re-interning of every candidate into one map hit. Bounded:
	// cleared wholesale past baseIDsCap and rebuilt on demand.
	baseIDs map[*seg.PCB][]uint32

	// Select scratch, reused across calls. A selector instance belongs to
	// exactly one AS actor, so Select never runs concurrently with itself;
	// reusing these keeps the per-(origin, neighbor) hot loop free of map
	// and slice churn (it used to dominate beaconing profiles via GC).
	selPCBs    []pcbState
	selIfs     []ifState
	selCands   []candState
	byLink     [][]int32 // interned id -> indices into selPCBs
	egBy       [][]int32 // interned id -> indices into selIfs
	usedLink   []uint32  // ids with non-empty byLink lists this call
	usedEg     []uint32  // ids with non-empty egBy lists this call
	touchedPCB []bool
	touchedIf  []bool
}

// baseIDsCap bounds the per-PCB interned-id cache; at ~5 ids per entry
// this is a few MiB per AS before a wholesale clear.
const baseIDsCap = 1 << 15

// NewDiversity returns a diversity selector factory with the given
// parameters.
func NewDiversity(p Params) Factory {
	return func(local addr.IA) Selector {
		return &Diversity{
			Params:  p,
			local:   local,
			hist:    map[addr.IA]map[addr.IA]map[uint32]int32{},
			sent:    map[addr.IfID]map[string]sentRecord{},
			ids:     map[seg.LinkKey]uint32{},
			baseIDs: map[*seg.PCB][]uint32{},
		}
	}
}

// Name implements Selector.
func (d *Diversity) Name() string { return "diversity" }

// tableKey maps a path link to its Link History Table key: the link
// itself, or its AS collapsed under the ASDisjoint ablation.
func (d *Diversity) tableKey(lk seg.LinkKey) seg.LinkKey {
	if d.Params.ASDisjoint {
		return seg.LinkKey{IA: lk.IA}
	}
	return lk
}

// intern returns the stable id of a link's table key, assigning one on
// first use. Id 0 is never assigned, so it is safe as a "never seen"
// sentinel.
func (d *Diversity) intern(lk seg.LinkKey) uint32 {
	lk = d.tableKey(lk)
	id, ok := d.ids[lk]
	if !ok {
		id = uint32(len(d.ids)) + 1
		d.ids[lk] = id
	}
	return id
}

func (d *Diversity) table(origin, neighbor addr.IA) map[uint32]int32 {
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
func (d *Diversity) term(c int32) float64 {
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
func (d *Diversity) dsOf(logSum float64, n int, anyZero bool) float64 {
	if n == 0 {
		return d.Params.MaxDiversity
	}
	if d.Params.RawGeoMean && anyZero {
		return d.Params.MaxDiversity
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

// diversityScore computes the link diversity score of an arbitrary path
// against a Link History Table (test and commit helper; Select maintains
// the log-sums incrementally instead).
func (d *Diversity) diversityScore(links []seg.LinkKey, table map[uint32]int32) float64 {
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
func (d *Diversity) score(now sim.Time, p *seg.PCB, egress addr.IfID, ds float64) float64 {
	return d.scoreKeyed(now, p, p.HopsKey(), egress, ds)
}

// scoreKeyed is score with the candidate's sent-list key precomputed.
func (d *Diversity) scoreKeyed(now sim.Time, p *seg.PCB, key string, egress addr.IfID, ds float64) float64 {
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
func (d *Diversity) sentLookup(now sim.Time, key string, egress addr.IfID) (sentRecord, bool) {
	byKey := d.sent[egress]
	if byKey == nil {
		return sentRecord{}, false
	}
	rec, ok := byKey[key]
	if !ok {
		return sentRecord{}, false
	}
	if now >= rec.expiry {
		delete(byKey, key)
		return sentRecord{}, false
	}
	return rec, true
}

// pcbIDs returns the interned ids of a stored PCB's links, cached per
// instance (see baseIDs).
func (d *Diversity) pcbIDs(p *seg.PCB) []uint32 {
	if ids, ok := d.baseIDs[p]; ok {
		return ids
	}
	links := p.Links()
	ids := make([]uint32, len(links))
	for i, lk := range links {
		ids[i] = d.intern(lk)
	}
	if len(d.baseIDs) >= baseIDsCap {
		clear(d.baseIDs)
	}
	d.baseIDs[p] = ids
	return ids
}

// addByLink records that selPCBs[pi] contains the link id, growing the
// dense per-id index as new ids are interned.
func (d *Diversity) addByLink(id uint32, pi int32) {
	if int(id) >= len(d.byLink) {
		d.byLink = append(d.byLink, make([][]int32, int(id)+1-len(d.byLink))...)
	}
	if len(d.byLink[id]) == 0 {
		d.usedLink = append(d.usedLink, id)
	}
	d.byLink[id] = append(d.byLink[id], pi)
}

// addEgBy records that selIfs[fi]'s egress link has the given id.
func (d *Diversity) addEgBy(id uint32, fi int32) {
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
func (d *Diversity) resetSelect() {
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

// pcbState is the per-stored-PCB scoring state of one Select round: the
// interned ids of the beacon's own links (shared across all egress
// interfaces), their accumulated log-sum against the round's Link History
// Table, and how many of them have a zero counter (raw-mode short
// circuit). A commit only adjusts baseSum/zeros by the delta of the
// touched counters instead of re-walking the link slice.
type pcbState struct {
	pcb     *seg.PCB
	key     string // HopsKey, the sent-list key (cached on the PCB)
	base    []uint32
	baseSum float64
	zeros   int32
}

// ifState is the per-egress-interface scoring state of one Select round.
type ifState struct {
	egress addr.IfID
	id     uint32
	log    float64
	zero   bool
}

// candState is one (stored PCB, egress interface) combination; candidate
// i*len(ifaces)+j pairs PCB i with interface j.
type candState struct {
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
func (d *Diversity) Select(now sim.Time, origin, neighbor addr.IA, ifaces []addr.IfID, stored []*seg.PCB) []Selection {
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
		pcbs = append(pcbs, pcbState{pcb: p, key: p.HopsKey(), base: base, baseSum: sum, zeros: zeros})
	}
	d.selPCBs = pcbs
	if len(pcbs) == 0 {
		return nil
	}
	nIf := len(ifaces)
	if cap(d.selIfs) < nIf {
		d.selIfs = make([]ifState, nIf)
	}
	ifs := d.selIfs[:nIf]
	for i, ifID := range ifaces {
		id := d.intern(seg.LinkKey{IA: d.local, If: ifID})
		c := table[id]
		ifs[i] = ifState{egress: ifID, id: id, log: d.term(c), zero: c == 0}
		d.addEgBy(id, int32(i))
	}

	if cap(d.selCands) < len(pcbs)*nIf {
		d.selCands = make([]candState, len(pcbs)*nIf)
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
func (d *Diversity) commitRecord(now sim.Time, origin, neighbor addr.IA, p *seg.PCB, egress addr.IfID, key string, ds float64, base []uint32, egID uint32) bool {
	byKey := d.sent[egress]
	if byKey == nil {
		byKey = map[string]sentRecord{}
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
	byKey[key] = sentRecord{
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
func (d *Diversity) commit(now sim.Time, origin, neighbor addr.IA, p *seg.PCB, egress addr.IfID, table map[uint32]int32) {
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
func (d *Diversity) Revoke(link seg.LinkKey) {
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
func (d *Diversity) SentCount() int {
	n := 0
	for _, m := range d.sent {
		n += len(m)
	}
	return n
}

// HistoryCounter exposes a Link History Table counter (test hook).
func (d *Diversity) HistoryCounter(origin, neighbor addr.IA, link seg.LinkKey) int {
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
