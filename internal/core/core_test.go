package core

import (
	"slices"
	"testing"
	"time"

	"scionmpr/internal/addr"
	"scionmpr/internal/seg"
	"scionmpr/internal/sim"
	"scionmpr/internal/trust"
)

const (
	hour   = sim.Time(time.Hour)
	minute = sim.Time(time.Minute)
)

type fakeSigner struct{ ia addr.IA }

func (f fakeSigner) IA() addr.IA                 { return f.ia }
func (f fakeSigner) Sign([]byte) ([]byte, error) { return make([]byte, trust.SignatureLen), nil }

// mkPCB builds a PCB from origin traversing the given (ia, ingress,
// egress) hops, initiated at ts with a 6 hour lifetime.
func mkPCB(t *testing.T, origin addr.IA, ts sim.Time, hops ...[3]uint64) *seg.PCB {
	t.Helper()
	p := seg.NewPCB(origin, 1, ts, 6*hour)
	for _, h := range hops {
		var err error
		local := addr.MustIA(1, addr.AS(h[0]))
		p, err = p.Extend(fakeSigner{ia: local}, addr.IA{}, addr.IfID(h[1]), addr.IfID(h[2]), nil, 1472)
		if err != nil {
			t.Fatal(err)
		}
	}
	return p
}

var (
	origin   = addr.MustIA(1, 100)
	neighbor = addr.MustIA(1, 200)
)

func TestBaselineSelectsShortest(t *testing.T) {
	b := NewBaseline(2)(addr.MustIA(1, 1)).(*Baseline)
	long := mkPCB(t, origin, 0, [3]uint64{100, 0, 1}, [3]uint64{2, 1, 2}, [3]uint64{3, 1, 2})
	short1 := mkPCB(t, origin, 0, [3]uint64{100, 0, 1}, [3]uint64{4, 1, 2})
	short2 := mkPCB(t, origin, 0, [3]uint64{100, 0, 2}, [3]uint64{5, 1, 2})
	sel := b.Select(0, origin, neighbor, []addr.IfID{9}, []*seg.PCB{long, short1, short2})
	if len(sel) != 2 {
		t.Fatalf("selections = %d, want 2", len(sel))
	}
	for _, s := range sel {
		if s.PCB == long {
			t.Error("baseline must prefer shorter PCBs")
		}
		if s.Egress != 9 {
			t.Error("wrong egress")
		}
	}
}

func TestBaselinePerInterfaceLimit(t *testing.T) {
	b := NewBaseline(1)(addr.MustIA(1, 1)).(*Baseline)
	p := mkPCB(t, origin, 0, [3]uint64{100, 0, 1})
	sel := b.Select(0, origin, neighbor, []addr.IfID{1, 2, 3}, []*seg.PCB{p})
	// Limit 1 per interface, 3 interfaces => 3 selections.
	if len(sel) != 3 {
		t.Fatalf("selections = %d, want 3 (one per interface)", len(sel))
	}
}

func TestBaselineSkipsExpired(t *testing.T) {
	b := NewBaseline(5)(addr.MustIA(1, 1)).(*Baseline)
	p := mkPCB(t, origin, 0, [3]uint64{100, 0, 1})
	if sel := b.Select(7*hour, origin, neighbor, []addr.IfID{1}, []*seg.PCB{p}); len(sel) != 0 {
		t.Errorf("expired PCB selected: %v", sel)
	}
	if sel := b.Select(0, origin, neighbor, nil, []*seg.PCB{p}); sel != nil {
		t.Error("no interfaces must select nothing")
	}
	z := NewBaseline(0)(addr.MustIA(1, 1)).(*Baseline)
	if sel := z.Select(0, origin, neighbor, []addr.IfID{1}, []*seg.PCB{p}); sel != nil {
		t.Error("zero limit must select nothing")
	}
}

func TestBaselineResendsEveryInterval(t *testing.T) {
	b := NewBaseline(5)(addr.MustIA(1, 1)).(*Baseline)
	p := mkPCB(t, origin, 0, [3]uint64{100, 0, 1})
	first := b.Select(0, origin, neighbor, []addr.IfID{1}, []*seg.PCB{p})
	second := b.Select(10*minute, origin, neighbor, []addr.IfID{1}, []*seg.PCB{p})
	if len(first) != 1 || len(second) != 1 {
		t.Error("baseline must resend irrespective of previous sends")
	}
}

func newDiv(limit int) *Diversity {
	return NewDiversity(DefaultParams(limit))(addr.MustIA(1, 1)).(*Diversity)
}

func TestDiversityFirstRoundSelectsUpToLimit(t *testing.T) {
	d := newDiv(2)
	p1 := mkPCB(t, origin, 0, [3]uint64{100, 0, 1}, [3]uint64{2, 1, 2})
	p2 := mkPCB(t, origin, 0, [3]uint64{100, 0, 2}, [3]uint64{3, 1, 2})
	p3 := mkPCB(t, origin, 0, [3]uint64{100, 0, 3}, [3]uint64{4, 1, 2})
	sel := d.Select(0, origin, neighbor, []addr.IfID{9}, []*seg.PCB{p1, p2, p3})
	if len(sel) != 2 {
		t.Fatalf("selections = %d, want limit 2", len(sel))
	}
	if sel[0].PCB == sel[1].PCB {
		t.Error("must not select the same PCB twice in one round")
	}
	if d.SentCount() != 2 {
		t.Errorf("sent list size = %d, want 2", d.SentCount())
	}
}

func TestDiversitySuppressesImmediateResend(t *testing.T) {
	d := newDiv(5)
	p := mkPCB(t, origin, 0, [3]uint64{100, 0, 1}, [3]uint64{2, 1, 2})
	first := d.Select(0, origin, neighbor, []addr.IfID{9}, []*seg.PCB{p})
	if len(first) != 1 {
		t.Fatalf("first round = %d selections", len(first))
	}
	// Same beacon, next interval: previously sent, long remaining
	// lifetime => Equation 3 exponent is large, score ~ 0.
	second := d.Select(10*minute, origin, neighbor, []addr.IfID{9}, []*seg.PCB{p})
	if len(second) != 0 {
		t.Errorf("resent immediately: %v", second)
	}
}

func TestDiversityResendsNearExpiry(t *testing.T) {
	d := newDiv(5)
	p := mkPCB(t, origin, 0, [3]uint64{100, 0, 1}, [3]uint64{2, 1, 2})
	if n := len(d.Select(0, origin, neighbor, []addr.IfID{9}, []*seg.PCB{p})); n != 1 {
		t.Fatalf("first round = %d", n)
	}
	// A re-initiated instance of the same path arrives (fresh timestamps).
	fresh := mkPCB(t, origin, 5*hour+30*minute, [3]uint64{100, 0, 1}, [3]uint64{2, 1, 2})
	// At 5.5h the sent instance has 30 min left of 6h; the ratio
	// sentRemaining/currentRemaining is tiny => g ~ 0 => score ~ 1.
	sel := d.Select(5*hour+30*minute, origin, neighbor, []addr.IfID{9}, []*seg.PCB{fresh})
	if len(sel) != 1 {
		t.Fatal("near-expiry path must be refreshed to preserve connectivity")
	}
	// After the refresh the record's expiry is renewed: no more resends.
	again := d.Select(5*hour+40*minute, origin, neighbor, []addr.IfID{9}, []*seg.PCB{fresh})
	if len(again) != 0 {
		t.Error("refreshed path resent immediately")
	}
}

func TestDiversityPrefersDisjoint(t *testing.T) {
	d := newDiv(1)
	// Two paths sharing their first link, one fully disjoint.
	shared1 := mkPCB(t, origin, 0, [3]uint64{100, 0, 1}, [3]uint64{2, 1, 2})
	shared2 := mkPCB(t, origin, 0, [3]uint64{100, 0, 1}, [3]uint64{2, 1, 3}, [3]uint64{5, 1, 2})
	disjoint := mkPCB(t, origin, 0, [3]uint64{100, 0, 7}, [3]uint64{8, 1, 2})

	// Round 1 (limit 1): picks one of them; all score equally fresh, so
	// seed the history by selecting shared1 deterministically: offer only it.
	if n := len(d.Select(0, origin, neighbor, []addr.IfID{9}, []*seg.PCB{shared1})); n != 1 {
		t.Fatal("seeding round failed")
	}
	// Round 2: between shared2 (overlapping link 100#1) and disjoint, the
	// disjoint one must win.
	sel := d.Select(10*minute, origin, neighbor, []addr.IfID{9}, []*seg.PCB{shared2, disjoint})
	if len(sel) != 1 || sel[0].PCB != disjoint {
		t.Fatalf("want disjoint PCB selected, got %v", sel)
	}
}

func TestDiversityUsesParallelInterfaces(t *testing.T) {
	d := newDiv(2)
	p := mkPCB(t, origin, 0, [3]uint64{100, 0, 1}, [3]uint64{2, 1, 2})
	// Two parallel egress interfaces to the neighbor: the same PCB can be
	// sent on both, each outgoing link being new.
	sel := d.Select(0, origin, neighbor, []addr.IfID{8, 9}, []*seg.PCB{p})
	if len(sel) != 2 {
		t.Fatalf("selections = %d, want 2 (both parallel links)", len(sel))
	}
	if sel[0].Egress == sel[1].Egress {
		t.Error("parallel interfaces not both used")
	}
}

func TestDiversityHistoryCounters(t *testing.T) {
	d := newDiv(5)
	p := mkPCB(t, origin, 0, [3]uint64{100, 0, 1}, [3]uint64{2, 1, 2})
	d.Select(0, origin, neighbor, []addr.IfID{9}, []*seg.PCB{p})
	// Links on the scored path: 100#1 (origin egress), 2#2 (the arrival
	// link at the local AS, set by the last sender), and 1-1#9 (the local
	// AS's prospective outgoing link).
	first := seg.LinkKey{IA: addr.MustIA(1, 100), If: 1}
	arrival := seg.LinkKey{IA: addr.MustIA(1, 2), If: 2}
	out := seg.LinkKey{IA: addr.MustIA(1, 1), If: 9}
	if c := d.HistoryCounter(origin, neighbor, arrival); c != 1 {
		t.Errorf("counter(arrival link) = %d, want 1", c)
	}
	if c := d.HistoryCounter(origin, neighbor, first); c != 1 {
		t.Errorf("counter(first link) = %d, want 1", c)
	}
	if c := d.HistoryCounter(origin, neighbor, out); c != 1 {
		t.Errorf("counter(outgoing link) = %d, want 1", c)
	}
	if c := d.HistoryCounter(origin, addr.MustIA(3, 3), first); c != 0 {
		t.Error("foreign neighbor table must be empty")
	}
}

func TestDiversityScoreOrdering(t *testing.T) {
	d := newDiv(5)
	tbl := d.table(origin, neighbor)
	lk := func(as uint64, ifID uint16) seg.LinkKey {
		return seg.LinkKey{IA: addr.MustIA(1, addr.AS(as)), If: addr.IfID(ifID)}
	}
	tbl[d.intern(lk(1, 1))] = 1
	tbl[d.intern(lk(2, 1))] = 1

	allNew := d.diversityScore([]seg.LinkKey{lk(9, 1), lk(9, 2)}, tbl)
	half := d.diversityScore([]seg.LinkKey{lk(1, 1), lk(9, 2)}, tbl)
	allOld := d.diversityScore([]seg.LinkKey{lk(1, 1), lk(2, 1)}, tbl)
	if !(allNew > half && half > allOld) {
		t.Errorf("diversity ordering broken: new=%v half=%v old=%v", allNew, half, allOld)
	}
	// A fully covered path (every link reused) must score exactly zero so
	// the threshold always blocks it — the overhead-reduction invariant.
	if allOld != 0 {
		t.Errorf("fully covered path ds = %v, want 0", allOld)
	}
	// Saturated counters drive the score to zero.
	tbl[d.intern(lk(3, 1))] = 100
	if ds := d.diversityScore([]seg.LinkKey{lk(3, 1)}, tbl); ds != 0 {
		t.Errorf("saturated jointness must give ds=0, got %v", ds)
	}
	// Empty link list (degenerate) is maximally diverse.
	if ds := d.diversityScore(nil, tbl); ds != d.Params.MaxDiversity {
		t.Errorf("empty path ds = %v", ds)
	}
}

func TestDiversityRawGeoMeanAblation(t *testing.T) {
	p := DefaultParams(5)
	p.RawGeoMean = true
	d := NewDiversity(p)(addr.MustIA(1, 1)).(*Diversity)
	tbl := d.table(origin, neighbor)
	lk := func(as uint64) seg.LinkKey { return seg.LinkKey{IA: addr.MustIA(1, addr.AS(as)), If: 1} }
	tbl[d.intern(lk(1))] = 50
	// The paper-literal variant scores any path with one new link as
	// maximally diverse even if other links are heavily reused.
	ds := d.diversityScore([]seg.LinkKey{lk(1), lk(9)}, tbl)
	if ds != p.MaxDiversity {
		t.Errorf("raw geomean with a new link must be max, got %v", ds)
	}
	// And with all links reused the raw counters apply.
	old := d.diversityScore([]seg.LinkKey{lk(1)}, tbl)
	if old != 0 {
		t.Errorf("raw geomean 50/16 capped at jointness 1 => ds 0, got %v", old)
	}
}

func TestDiversityZeroLimit(t *testing.T) {
	d := newDiv(0)
	p := mkPCB(t, origin, 0, [3]uint64{100, 0, 1})
	if sel := d.Select(0, origin, neighbor, []addr.IfID{1}, []*seg.PCB{p}); sel != nil {
		t.Error("limit 0 must select nothing")
	}
}

func TestDiversitySkipsExpired(t *testing.T) {
	d := newDiv(5)
	p := mkPCB(t, origin, 0, [3]uint64{100, 0, 1})
	if sel := d.Select(7*hour, origin, neighbor, []addr.IfID{1}, []*seg.PCB{p}); len(sel) != 0 {
		t.Error("expired PCB selected")
	}
}

func TestDiversityScoreEquations(t *testing.T) {
	d := newDiv(5)
	p := mkPCB(t, origin, 0, [3]uint64{100, 0, 1})
	// Equation 2: fresh PCB, age 0 => exponent 0 => score 1 regardless of ds.
	if s := d.score(0, p, 9, 0.5); s != 1 {
		t.Errorf("fresh unsent score = %v, want 1", s)
	}
	// Aged PCB: exponent grows, score falls toward ds.
	sMid := d.score(3*hour, p, 9, 0.5)
	sLate := d.score(5*hour, p, 9, 0.5)
	if !(sLate < sMid && sMid < 1) {
		t.Errorf("aging must decrease score: mid=%v late=%v", sMid, sLate)
	}
	// Equation 3: after sending, identical instance is suppressed.
	tbl := d.table(origin, neighbor)
	d.commit(0, origin, neighbor, p, 9, tbl)
	sup := d.score(10*minute, p, 9, 0.9)
	if sup > 0.05 {
		t.Errorf("just-sent score = %v, want ~0", sup)
	}
	// Near expiry of the sent record the score recovers toward 1.
	fresh := mkPCB(t, origin, 5*hour+45*minute, [3]uint64{100, 0, 1})
	rec := d.score(5*hour+45*minute, fresh, 9, 0.9)
	if rec < 0.5 {
		t.Errorf("near-expiry score = %v, want high", rec)
	}
}

func TestSelectorNames(t *testing.T) {
	if n := newDiv(1).Name(); n != "diversity" {
		t.Error(n)
	}
	b := NewBaseline(1)(addr.MustIA(1, 1))
	if b.Name() != "baseline" {
		t.Error(b.Name())
	}
}

// permutations calls f with every ordering of xs (Heap's algorithm).
func permutations(xs []int32, f func([]int32)) {
	var gen func(k int)
	gen = func(k int) {
		if k <= 1 {
			f(xs)
			return
		}
		for i := 0; i < k; i++ {
			gen(k - 1)
			if k%2 == 0 {
				xs[i], xs[k-1] = xs[k-1], xs[i]
			} else {
				xs[0], xs[k-1] = xs[k-1], xs[0]
			}
		}
	}
	gen(len(xs))
}

// TestDiversitySaturationExact: counters whose smoothed product is
// exactly MaxGeoMean^n make a fully covered path, whose diversity score
// is 0 however the log-sum was accumulated — summed fresh in any link
// order, or built up one counter increment at a time as Select's commits
// do. One below the product stays positive.
func TestDiversitySaturationExact(t *testing.T) {
	d := newDiv(5)
	for _, counters := range [][]int32{
		{3, 0, 0, 1, 3}, {1, 1}, {3, 0}, {7, 0, 0}, {3, 1, 0}, {1, 1, 1},
		{15, 0, 0, 0}, {1, 1, 1, 1, 1, 1}, {3, 3, 1, 1, 0, 0}, {7, 1, 1, 0, 0},
	} {
		n := len(counters)
		permutations(counters, func(order []int32) {
			fresh := 0.0
			for _, c := range order {
				fresh += d.term(c)
			}
			if ds := d.dsOf(fresh, n, false); ds != 0 {
				t.Errorf("%v summed fresh: ds = %g, want 0", order, ds)
			}
			// Raise the counters from zero one increment at a time, link
			// by link in this order, adding the per-increment delta.
			inc := 0.0
			for _, c := range order {
				for k := int32(0); k < c; k++ {
					inc += d.term(k+1) - d.term(k)
				}
			}
			if ds := d.dsOf(inc, n, false); ds != 0 {
				t.Errorf("%v accumulated by increments: ds = %g, want 0", order, ds)
			}
		})
		below := append([]int32(nil), counters...)
		for i, c := range below {
			if c > 0 { // (c+1) -> c keeps the product an integer below 2^n
				below[i]--
				break
			}
		}
		sum := 0.0
		for _, c := range below {
			sum += d.term(c)
		}
		if ds := d.dsOf(sum, n, false); ds <= 0 {
			t.Errorf("%v (product below MaxGeoMean^n): ds = %g, want > 0", below, ds)
		}
	}
}

// diversityScore computes the link diversity score of an arbitrary path
// against a Link History Table from scratch (Select maintains the
// log-sums incrementally).
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

// score computes Equation 1 for one candidate from scratch.
func (d *Diversity) score(now sim.Time, p *seg.PCB, egress addr.IfID, ds float64) float64 {
	c := candState{ds: ds}
	c.sentDS, c.sentExp = d.sentLookup(now, sentKey(p.HopsHash(), egress), p.HopsKey(), egress)
	return d.eq1(now, p, &c)
}

// commit records one disseminated PCB against the given table, scoring
// the path from scratch: the record and counter increments of a Select
// pick.
func (d *Diversity) commit(now sim.Time, origin, neighbor addr.IA, p *seg.PCB, egress addr.IfID, table map[uint32]int32) {
	ps := &pcbState{pcb: p, key: p.HopsKey(), base: d.linkIDs(p, nil)}
	fs := &ifState{egress: egress, id: d.intern(seg.LinkKey{IA: d.local, If: egress})}
	ds := d.diversityScore(p.LinksVia(d.local, egress), table)
	if d.commitRecord(now, origin, neighbor, ps, fs, ds) {
		for _, id := range append(ps.base, fs.id) {
			table[id]++
		}
	}
}

// SentCount reports the number of Sent PCBs List entries.
func (d *Diversity) SentCount() int { return len(d.sent) + len(d.spill) }

// TestSentListHashCollision files two paths' records under one sentKey,
// as a 64-bit hash collision would: each stays found under its own hop
// key, expires and is revoked on its own, and both survive a checkpoint
// round trip.
func TestSentListHashCollision(t *testing.T) {
	d := newDiv(5)
	p1 := mkPCB(t, origin, 0, [3]uint64{100, 0, 1}, [3]uint64{2, 1, 2})
	p2 := mkPCB(t, origin, 0, [3]uint64{100, 0, 3}, [3]uint64{4, 1, 2})
	k := sentKey(p1.HopsHash(), 9)
	rec := func(p *seg.PCB, expiry sim.Time, link uint32) sentRecord {
		return sentRecord{diversity: 0.5, expiry: expiry, links: []uint32{link}, origin: origin.Uint64(), neighbor: neighbor.Uint64(), key: p.HopsKey(), egress: 9}
	}
	d.intern(seg.LinkKey{IA: addr.MustIA(1, 2), If: 2}) // id 1
	d.intern(seg.LinkKey{IA: addr.MustIA(1, 4), If: 2}) // id 2
	d.sentPut(k, rec(p1, hour, 1))
	d.sentPut(k, rec(p2, 2*hour, 2))
	if d.SentCount() != 2 || len(d.spill) != 1 {
		t.Fatalf("%d records, %d spilled; want 2 and 1", d.SentCount(), len(d.spill))
	}
	for _, c := range []struct {
		p    *seg.PCB
		want sim.Time
	}{{p1, hour}, {p2, 2 * hour}} {
		if _, exp := d.sentLookup(0, k, c.p.HopsKey(), 9); exp != c.want {
			t.Errorf("%s: expiry %v, want %v", c.p.HopsKey(), exp, c.want)
		}
	}
	blob := d.AppendState(nil)
	back := newDiv(5)
	if err := back.RestoreState(blob); err != nil || back.SentCount() != 2 {
		t.Fatalf("round trip: %v, %d records", err, back.SentCount())
	}
	if _, exp := d.sentLookup(90*minute, k, p1.HopsKey(), 9); exp != 0 || d.SentCount() != 1 {
		t.Errorf("expired record: expiry %v, %d records left", exp, d.SentCount())
	}
	if _, exp := d.sentLookup(90*minute, k, p2.HopsKey(), 9); exp != 2*hour {
		t.Errorf("the other record was lost with the expired one")
	}
	back.Revoke(seg.LinkKey{IA: addr.MustIA(1, 4), If: 2})
	if _, ok := back.sentGet(k, p2.HopsKey(), 9); ok || back.SentCount() != 1 {
		t.Errorf("revoked spilled record still filed (%d records)", back.SentCount())
	}
}

// TestPathSlotCollision maps a second path to the first one's slot, as a
// hash collision would: the two take the slot in turn and are never
// skipped, so selections match the verbatim oracle's interval after
// interval.
func TestPathSlotCollision(t *testing.T) {
	d := newDiv(1)
	ref := newRefDiversity(DefaultParams(1), addr.MustIA(1, 1))
	p1 := mkPCB(t, origin, 0, [3]uint64{100, 0, 1}, [3]uint64{2, 1, 2})
	p2 := mkPCB(t, origin, 0, [3]uint64{100, 0, 3}, [3]uint64{4, 1, 2})
	stored := []*seg.PCB{p1, p2}
	for i := sim.Time(1); i <= 40; i++ {
		now := i * 10 * minute
		if i == 1 {
			d.pathOf(now, p1)
			d.pathSlot[p2.HopsHash()] = d.pathSlot[p1.HopsHash()]
		}
		if i == 30 { // fresh instances, as re-origination brings
			stored = []*seg.PCB{mkPCB(t, origin, now, [3]uint64{100, 0, 1}, [3]uint64{2, 1, 2}), mkPCB(t, origin, now, [3]uint64{100, 0, 3}, [3]uint64{4, 1, 2})}
		}
		got := d.Select(now, origin, neighbor, []addr.IfID{9}, stored)
		want := ref.Select(now, origin, neighbor, []addr.IfID{9}, stored)
		if !slices.Equal(got, want) {
			t.Fatalf("at %v: Select %v, oracle %v", time.Duration(now), got, want)
		}
	}
	if len(d.paths) != 1 {
		t.Errorf("%d path slots, want the one shared", len(d.paths))
	}
}

// TestQuietMemoEdges drives Select through the cases where a candidate
// remembered as quiet becomes pickable again, each against the verbatim
// oracle; the last step of each must select something.
func TestQuietMemoEdges(t *testing.T) {
	n2 := addr.MustIA(1, 201)
	pcb := func(ts sim.Time, hops ...[3]uint64) *seg.PCB { return mkPCB(t, origin, ts, hops...) }
	x := pcb(0, [3]uint64{100, 0, 1})
	z := pcb(0, [3]uint64{100, 0, 2})
	y := pcb(0, [3]uint64{100, 0, 1}, [3]uint64{2, 1, 2})
	type step struct {
		now    sim.Time
		nb     addr.IA
		ifaces []addr.IfID
		stored []*seg.PCB
	}
	// X and Z are sent on one interface each; then X via 8 and Z via 9 are
	// fully covered and unsent (ds = 0), so quiet for good.
	covered := []step{
		{0, neighbor, []addr.IfID{9}, []*seg.PCB{x}},
		{0, neighbor, []addr.IfID{8}, []*seg.PCB{z}},
		{10 * minute, neighbor, []addr.IfID{8, 9}, []*seg.PCB{x, z}},
	}
	alpha0 := DefaultParams(1)
	alpha0.Alpha = 0
	for _, tc := range []struct {
		name  string
		p     Params
		steps []step
	}{
		// A fresh instance of age 0 scores 0^0 = 1 under Equation 2.
		{"fresh instance of a covered path", DefaultParams(5), append(covered,
			step{20 * minute, neighbor, []addr.IfID{8, 9}, []*seg.PCB{pcb(20*minute, [3]uint64{100, 0, 1}), z}})},
		// With Alpha = 0 every unsent candidate scores ds^0 = 1.
		{"alpha 0", alpha0, append(covered,
			step{20 * minute, neighbor, []addr.IfID{8, 9}, []*seg.PCB{x, z}})},
		// n2 remembers X via 9 as covered and unsent; then neighbor sends X
		// on the same interface, and a fresher instance near the record's
		// expiry passes Equation 3 toward n2.
		{"interface shared by two neighbors", DefaultParams(5), []step{
			{10 * minute, n2, []addr.IfID{9}, []*seg.PCB{y}},
			{20 * minute, n2, []addr.IfID{9}, []*seg.PCB{x, y}},
			{30 * minute, neighbor, []addr.IfID{9}, []*seg.PCB{x}},
			{5 * hour, n2, []addr.IfID{9}, []*seg.PCB{pcb(4*hour, [3]uint64{100, 0, 1}), y}},
		}},
	} {
		d := NewDiversity(tc.p)(addr.MustIA(1, 1)).(*Diversity)
		ref := newRefDiversity(tc.p, addr.MustIA(1, 1))
		for i, s := range tc.steps {
			got := d.Select(s.now, origin, s.nb, s.ifaces, s.stored)
			want := ref.Select(s.now, origin, s.nb, s.ifaces, s.stored)
			if !slices.Equal(got, want) {
				t.Fatalf("%s, step %d: Select %v, oracle %v", tc.name, i, got, want)
			}
			if i == len(tc.steps)-1 && len(got) == 0 {
				t.Errorf("%s: the last step selected nothing", tc.name)
			}
		}
	}
}
