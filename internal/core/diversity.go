package core

import (
	"maps"
	"math"
	"slices"
	"time"

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
// score is exactly 0 and the threshold blocks it. Exactly 0 by
// construction: dsOf decides saturation on the log scale (counter
// product >= MaxGeoMean^n, within saturationTol), not by rounding the
// mean back through exp. Dissemination toward a
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
	// egress link) and the pair it was disseminated for (IA.Uint64), kept
	// so revocations can clear the record and roll back its Link History
	// Table counters.
	links            []uint32
	origin, neighbor uint64
	// key (the path's HopsKey, or HopsKeyVia for LatencyAware) and egress
	// identify the record.
	key    string
	egress addr.IfID
}

// sentKey files a Diversity record under its path hash and egress; a
// record whose sentKey another path's record holds is filed in spill.
func sentKey(hash uint64, egress addr.IfID) uint64 {
	return hash ^ uint64(egress)*0x9e3779b97f4a7c15
}

// sentName is a record's hop key and egress.
type sentName struct {
	key    string
	egress addr.IfID
}

// Diversity is the Path-Diversity-Based Path Construction Algorithm
// (Algorithm 1). One instance holds the AS-local state of one beacon
// server: Link History Tables per [origin AS, neighbor AS] pair and Sent
// PCBs Lists per egress interface.
type Diversity struct {
	Params       Params
	local        addr.IA
	lnMaxGeoMean float64

	// hist[origin][neighbor][linkID] counts how many disseminated valid
	// paths from origin toward neighbor include the link.
	hist map[addr.IA]map[addr.IA]map[uint32]int32
	// sent is the Sent PCBs List, keyed by sentKey; spill is nil until a
	// collision.
	sent  map[uint64]sentRecord
	spill map[sentName]sentRecord
	// ids interns Link History Table keys into dense uint32 identifiers:
	// hashing a word-sized id beats the 16-byte LinkKey struct in the
	// Select hot loop, and the collapse under ASDisjoint happens once per
	// link instead of once per scoring round.
	ids map[seg.LinkKey]uint32

	// The rest is derived state, never serialized and empty after a
	// restore. paths[pathSlot[HopsHash]] is a stored path's slot, which
	// indexes its quiet times: keyed by path identity, as origins
	// re-originate every interval.
	pathSlot  map[uint64]int32
	paths     []pathMemo
	freeSlots []int32
	swept     sim.Time
	// quiet[nbIdx[neighbor]][slot] is quietUntil over the path's candidates
	// toward the neighbor in whole seconds, rounded down (0: score them),
	// cleared when the neighbor's interfaces (nbIfs) change and, all of it,
	// on Revoke.
	nbIdx map[addr.IA]int
	nbIfs [][]addr.IfID
	quiet [][]uint32
	terms []float64 // term(c) for c < len(terms), filled in order

	// Select scratch, reused across calls. A selector instance belongs to
	// exactly one AS actor, so Select never runs concurrently with itself;
	// reusing these keeps the per-(origin, neighbor) hot loop free of map
	// and slice churn (it used to dominate beaconing profiles via GC).
	selPCBs    []pcbState
	selIDs     []uint32 // backs selPCBs' base ids
	selIfs     []ifState
	selCands   []candState
	byLink     [][]int32 // interned id -> indices into selPCBs
	egBy       [][]int32 // interned id -> indices into selIfs
	usedLink   []uint32  // ids with non-empty byLink lists this call
	usedEg     []uint32  // ids with non-empty egBy lists this call
	touchedPCB []bool
	touchedIf  []bool
}

// pathMemo is a path's slot: the longest lifetime of an instance offered
// (quiet times hold for no longer one) and the last Select that offered
// it.
type pathMemo struct {
	key             string // HopsKey; "" marks a free slot
	life, lastOffer sim.Time
}

// NewDiversity returns a diversity selector factory with the given
// parameters.
func NewDiversity(p Params) Factory {
	return func(local addr.IA) Selector {
		return &Diversity{
			Params:       p,
			local:        local,
			lnMaxGeoMean: math.Log(p.MaxGeoMean),
			hist:         map[addr.IA]map[addr.IA]map[uint32]int32{},
			sent:         map[uint64]sentRecord{},
			ids:          map[seg.LinkKey]uint32{},
			pathSlot:     map[uint64]int32{},
			nbIdx:        map[addr.IA]int{},
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

// linkIDs appends the interned ids of a PCB's links to ids.
func (d *Diversity) linkIDs(p *seg.PCB, ids []uint32) []uint32 {
	for _, lk := range p.Links() {
		ids = append(ids, d.intern(lk))
	}
	return ids
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
	if uint32(c) < uint32(len(d.terms)) {
		return d.terms[c]
	}
	t := math.Log(float64(c + 1))
	if d.Params.RawGeoMean {
		t = 0
		if c != 0 {
			t = math.Log(float64(c))
		}
	}
	if int(c) == len(d.terms) && c < 1<<10 {
		d.terms = append(d.terms, t)
	}
	return t
}

// dsOf turns a path's accumulated log-sum over n links into the link
// diversity score: the geometric mean scaled by MaxGeoMean into a
// jointness and inverted, so disjoint paths (low counters) score high.
// anyZero marks a raw-mode path containing a never-used link, which is
// maximally diverse by the paper's literal definition.
//
// Saturation is decided on the log scale: a counter product of at least
// MaxGeoMean^n scores exactly 0, however logSum was accumulated (through
// exp it could come out 2^-53). saturationTol absorbs the rounding; it is
// far below the gap between integer counter products (about 2^-n).
func (d *Diversity) dsOf(logSum float64, n int, anyZero bool) float64 {
	if n == 0 {
		return d.Params.MaxDiversity
	}
	if d.Params.RawGeoMean && anyZero {
		return d.Params.MaxDiversity
	}
	if logSum >= float64(n)*d.lnMaxGeoMean-saturationTol {
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

const saturationTol = 1e-9

// eq1 computes Equation 1 for one candidate of p: ds^f for not-
// previously-sent candidates (Equation 2), ds^g for previously-sent,
// still-valid candidates (Equation 3, reusing the diversity score
// recorded at send time).
func (d *Diversity) eq1(now sim.Time, p *seg.PCB, c *candState) float64 {
	if c.sentExp != 0 {
		sentRemaining := float64(c.sentExp - now)
		if sentRemaining < 0 {
			sentRemaining = 0
		}
		curRemaining := float64(p.Remaining(now))
		if curRemaining <= 0 {
			return 0
		}
		g := math.Pow(d.Params.Beta*sentRemaining/curRemaining, d.Params.Gamma)
		return math.Pow(c.sentDS, g)
	}
	lifetime := float64(p.Lifetime())
	if lifetime <= 0 {
		return 0
	}
	f := d.Params.Alpha * float64(p.Age(now)) / lifetime
	return math.Pow(c.ds, f)
}

// sentGet finds a path's record on an egress interface (k = sentKey).
func (d *Diversity) sentGet(k uint64, key string, egress addr.IfID) (sentRecord, bool) {
	if rec, ok := d.sent[k]; ok && rec.key == key {
		return rec, true
	}
	if len(d.spill) == 0 {
		return sentRecord{}, false
	}
	rec, ok := d.spill[sentName{key, egress}]
	return rec, ok
}

// sentPut files a record, in spill if another path holds its sentKey.
func (d *Diversity) sentPut(k uint64, rec sentRecord) {
	if old, ok := d.sent[k]; ok && old.key != rec.key {
		if d.spill == nil {
			d.spill = map[sentName]sentRecord{}
		}
		d.spill[sentName{rec.key, rec.egress}] = rec
		return
	}
	d.sent[k] = rec
	delete(d.spill, sentName{rec.key, rec.egress})
}

// sentLookup returns the diversity score and expiry of a valid Sent PCBs
// List record for the same path via the same egress interface (expiry 0:
// none); expired records are pruned lazily.
func (d *Diversity) sentLookup(now sim.Time, k uint64, key string, egress addr.IfID) (float64, sim.Time) {
	rec, ok := d.sentGet(k, key, egress)
	if ok && now >= rec.expiry {
		if d.sent[k].key == key {
			delete(d.sent, k)
		} else {
			delete(d.spill, sentName{key, egress})
		}
		return 0, 0
	}
	return rec.diversity, rec.expiry
}

// pathOf returns p's slot in d.paths. Paths whose hashes collide take the
// slot in turn, each time refilled and woken, so neither is ever quiet.
// An instance living longer than any before it wakes the path too.
func (d *Diversity) pathOf(now sim.Time, p *seg.PCB) int32 {
	s, ok := d.pathSlot[p.HopsHash()]
	if !ok {
		if n := len(d.freeSlots); n > 0 {
			s, d.freeSlots = d.freeSlots[n-1], d.freeSlots[:n-1]
		} else {
			s = int32(len(d.paths))
			d.paths = append(d.paths, pathMemo{})
		}
		d.pathSlot[p.HopsHash()] = s
	}
	pm := &d.paths[s]
	if pm.key != p.HopsKey() {
		*pm = pathMemo{key: p.HopsKey()}
	}
	pm.lastOffer = now
	if l := p.Lifetime(); l > pm.life {
		pm.life = l
		d.wake(s)
	}
	return s
}

// wake has every neighbor score the path's candidates again.
func (d *Diversity) wake(s int32) {
	for _, q := range d.quiet {
		if int(s) < len(q) {
			q[s] = 0
		}
	}
}

// sweep frees, at each new instant, the slots of paths not offered since
// the previous one: they have left the store (or never reach Select).
func (d *Diversity) sweep(now sim.Time) {
	if now <= d.swept {
		return
	}
	for s := range d.paths {
		if pm := &d.paths[s]; pm.key != "" && pm.lastOffer < d.swept {
			delete(d.pathSlot, seg.HashHops(pm.key))
			pm.key = ""
			d.freeSlots = append(d.freeSlots, int32(s))
		}
	}
	d.swept = now
}

// quietUntil is the instant before which a candidate scored but not
// taken cannot pass ScoreThreshold (T), given an instance initiated
// earlier and living at most life; now if it might pass sooner.
//
// Unsent with ds = 0, it scores 0^f = 0 whenever f > 0, for good:
// counters only rise until a Revoke, which clears every quiet time. Sent,
// it scores ds^g with g = (Beta*s/c)^Gamma (Equation 3), at most T while
// s >= K*c, K = (ln T/ln ds)^(1/Gamma)/Beta. Since c < life, that holds
// until expiry - K*life; the 0.1 % margin covers rounding while T <= 0.99
// and ds < 1. Taken, its record has just changed.
func (d *Diversity) quietUntil(now sim.Time, c *candState, life sim.Time) sim.Time {
	p := d.Params
	switch {
	case c.taken || p.ScoreThreshold < 0:
		return now
	case c.sentExp == 0:
		if c.ds == 0 && p.Alpha > 0 {
			return math.MaxInt64
		}
		return now
	case !(p.Beta > 0 && p.Gamma > 0 && p.ScoreThreshold > 0 && p.ScoreThreshold <= 0.99 && c.sentDS < 1):
		return now
	}
	g := max(math.Log(p.ScoreThreshold)/math.Log(c.sentDS), 1e-300) // sentDS = 0: any g > 0
	wait := math.Pow(g, 1/p.Gamma)/p.Beta*float64(life)*1.001 + 1
	if !(wait < float64(c.sentExp-now)) {
		return now
	}
	return c.sentExp - sim.Time(wait)
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
	d.selPCBs, d.selIDs = d.selPCBs[:0], d.selIDs[:0]
}

// pcbState is the per-stored-PCB scoring state of one Select round: the
// interned ids of the beacon's own links (shared across all egress
// interfaces), their accumulated log-sum against the round's Link History
// Table, and how many of them have a zero counter (raw-mode short
// circuit). A commit only adjusts baseSum/zeros by the delta of the
// touched counters instead of re-walking the link slice.
type pcbState struct {
	pcb     *seg.PCB
	slot    int32  // in d.paths
	key     string // HopsKey
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
// i*len(ifaces)+j pairs PCB i with interface j. sentDS and sentExp copy
// its live Sent PCBs List record (sentExp 0: none).
type candState struct {
	ds, score, sentDS float64
	sentExp           sim.Time
	taken             bool
}

// column returns the neighbor's index in d.quiet, clearing its quiet
// times if its interface list changed.
func (d *Diversity) column(neighbor addr.IA, ifaces []addr.IfID) int {
	nb, ok := d.nbIdx[neighbor]
	if !ok {
		nb = len(d.quiet)
		d.nbIdx[neighbor] = nb
		d.nbIfs, d.quiet = append(d.nbIfs, nil), append(d.quiet, nil)
	}
	if !slices.Equal(d.nbIfs[nb], ifaces) {
		d.nbIfs[nb] = append(d.nbIfs[nb][:0], ifaces...)
		clear(d.quiet[nb])
	}
	return nb
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
//
// A stored PCB whose candidates are all quiet (see quietUntil) is skipped
// before any link or counter lookup: commits only raise counters and
// leave other paths' records alone, so none of them can be picked.
func (d *Diversity) Select(now sim.Time, origin, neighbor addr.IA, ifaces []addr.IfID, stored []*seg.PCB) []Selection {
	if d.Params.Limit <= 0 || len(ifaces) == 0 {
		return nil
	}
	table := d.table(origin, neighbor)
	nb := d.column(neighbor, ifaces)
	d.sweep(now)
	defer d.resetSelect()

	pcbs := d.selPCBs[:0]
	for _, p := range stored {
		if p.Expired(now) {
			continue
		}
		slot := d.pathOf(now, p)
		if q := d.quiet[nb]; int(slot) < len(q) && sim.Time(q[slot])*quietUnit > now && p.Info.Timestamp < now {
			continue
		}
		n := len(d.selIDs)
		d.selIDs = d.linkIDs(p, d.selIDs)
		base := d.selIDs[n:len(d.selIDs):len(d.selIDs)]
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
		pcbs = append(pcbs, pcbState{pcb: p, slot: slot, key: p.HopsKey(), base: base, baseSum: sum, zeros: zeros})
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
		c.ds = d.dsOf(ps.baseSum+fs.log, len(ps.base)+1, ps.zeros > 0 || fs.zero)
		c.sentDS, c.sentExp = d.sentLookup(now, sentKey(ps.pcb.HopsHash(), fs.egress), ps.key, fs.egress)
		c.score = d.eq1(now, ps.pcb, c)
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
		d.wake(ps.slot) // its record changes

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
		if d.commitRecord(now, origin, neighbor, ps, fs, c.ds) {
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
	d.remember(now, nb, pcbs, cands)
	return out
}

// remember stores, for every path scored in this call, the earliest
// quiet time of its candidates toward the neighbor.
func (d *Diversity) remember(now sim.Time, nb int, pcbs []pcbState, cands []candState) {
	q := d.quiet[nb]
	if n := len(d.paths); len(q) < n {
		q = append(q, make([]uint32, n-len(q))...)
		d.quiet[nb] = q
	}
	for _, ps := range pcbs {
		q[ps.slot] = math.MaxUint32
	}
	nIf := len(cands) / len(pcbs)
	for i := range cands {
		s := pcbs[i/nIf].slot
		q[s] = uint32(min(sim.Time(q[s]), d.quietUntil(now, &cands[i], d.paths[s].life)/quietUnit))
	}
}

const quietUnit = sim.Time(time.Second)

// commitRecord updates the Sent PCBs List for one dissemination and
// reports whether the path was newly sent — in which case the caller must
// increment the Link History Table counters of the path's links plus the
// egress link. For a re-sent path only the record's timers are updated
// (paper §4.2: the counters count valid paths, not transmissions, and "if
// a path is sent again, its corresponding timers in Sent PCBs List get
// updated"). ds is the path's diversity score at send time, i.e. before
// this dissemination's own counter increments.
func (d *Diversity) commitRecord(now sim.Time, origin, neighbor addr.IA, ps *pcbState, fs *ifState, ds float64) bool {
	p := ps.pcb
	k := sentKey(p.HopsHash(), fs.egress)
	if rec, ok := d.sentGet(k, ps.key, fs.egress); ok && now < rec.expiry {
		rec.timestamp = p.Info.Timestamp
		rec.expiry = p.Info.Expiry
		d.sentPut(k, rec)
		return false
	}
	d.sentPut(k, sentRecord{
		diversity: ds,
		timestamp: p.Info.Timestamp,
		expiry:    p.Info.Expiry,
		links:     append(slices.Clip(ps.base), fs.id),
		origin:    origin.Uint64(),
		neighbor:  neighbor.Uint64(),
		key:       ps.key,
		egress:    fs.egress,
	})
	return true
}

// Revoke implements Revoker: drop every Sent-PCB record whose path used
// the failed link and roll back its Link History Table counters, so the
// surviving links regain diversity headroom and replacement paths are
// re-scored and re-sent at the next interval rather than suppressed.
// Counters fall, so every quiet time is cleared.
func (d *Diversity) Revoke(link seg.LinkKey) {
	id, ok := d.ids[d.tableKey(link)]
	if !ok {
		return // never disseminated over it
	}
	for _, q := range d.quiet {
		clear(q)
	}
	drop := func(rec sentRecord) bool {
		if !slices.Contains(rec.links, id) {
			return false
		}
		table := d.table(addr.IAFromUint64(rec.origin), addr.IAFromUint64(rec.neighbor))
		for _, lid := range rec.links {
			if c := table[lid]; c > 0 {
				table[lid] = c - 1
			}
		}
		return true
	}
	maps.DeleteFunc(d.sent, func(_ uint64, rec sentRecord) bool { return drop(rec) })
	maps.DeleteFunc(d.spill, func(_ sentName, rec sentRecord) bool { return drop(rec) })
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
