package pathsrv

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"scionmpr/internal/addr"
	"scionmpr/internal/seg"
	"scionmpr/internal/sim"
	"scionmpr/internal/telemetry"
)

// The writer side as it was before publication became touched-pair: a
// per-link shard mask, and every dirty shard rebuilt from its whole
// master copy into a map. Kept verbatim as the oracle Service is compared
// against; the only removals are telemetry cells and cache invalidation.

// refSnapshot is the oracle's snapshot, the map form a Service's snapshot
// flattens to.
type refSnapshot struct {
	epoch     uint64
	pairs     map[pairKey]pairEntry
	minExpiry sim.Time
}

var emptyRefSnapshot = &refSnapshot{pairs: map[pairKey]pairEntry{}}

type refService struct {
	nshards uint32
	revTTL  sim.Time

	snaps []atomic.Pointer[refSnapshot]

	master     []map[pairKey][]*seg.PCB
	linkShards map[seg.LinkKey]uint64 // link -> bitmask of shards storing it
	revoked    map[seg.LinkKey]sim.Time
	dirty      uint64 // bitmask of shards needing a rebuild
	epoch      uint64

	Registrations, Refreshes, Publishes, PublishedShards uint64
	Revocations, Reinstatements, Rejected                uint64

	clock *sim.Simulator
}

func newRefService(n int, ttl sim.Time, clock *sim.Simulator) *refService {
	s := &refService{
		nshards:    uint32(n),
		revTTL:     ttl,
		snaps:      make([]atomic.Pointer[refSnapshot], n),
		master:     make([]map[pairKey][]*seg.PCB, n),
		linkShards: map[seg.LinkKey]uint64{},
		revoked:    map[seg.LinkKey]sim.Time{},
		clock:      clock,
	}
	for i := range s.snaps {
		s.snaps[i].Store(emptyRefSnapshot)
		s.master[i] = map[pairKey][]*seg.PCB{}
	}
	return s
}

func (s *refService) ShardOf(dst addr.IA) uint32 {
	return (&Service{nshards: s.nshards}).ShardOf(dst)
}

func (s *refService) trace(kind telemetry.EventKind, actor, subject, aux uint64, reason string) {
	if s.clock == nil {
		return
	}
	s.clock.Trace(sim.SerialShard, telemetry.Event{
		Kind: kind, Actor: actor, Subject: subject, Aux: aux, Reason: reason,
	})
}

func (s *refService) Register(now sim.Time, p *seg.PCB) error {
	if p.Expired(now) {
		s.Rejected++
		return fmt.Errorf("pathsrv: registering expired segment %v", p)
	}
	key := pairKey{src: p.Origin(), dst: p.Leaf()}
	if key.src == key.dst {
		s.Rejected++
		return fmt.Errorf("pathsrv: degenerate segment %v", p)
	}
	sh := s.ShardOf(key.dst)
	list, mutated, fresh := upsert(s.master[sh][key], p)
	if !mutated {
		return nil
	}
	s.master[sh][key] = list
	s.dirty |= 1 << sh
	if fresh {
		s.Registrations++
		mask := uint64(1) << sh
		for _, lk := range p.Links() {
			s.linkShards[lk] |= mask
		}
	} else {
		s.Refreshes++
	}
	return nil
}

func (s *refService) RevokeLink(now sim.Time, link seg.LinkKey, ttl sim.Time) int {
	if ttl <= 0 {
		ttl = s.revTTL
	}
	exp := now + ttl
	if cur, ok := s.revoked[link]; !ok || exp > cur {
		s.revoked[link] = exp
	}
	s.Revocations++
	s.trace(telemetry.PathRevoked, link.IA.Uint64(), uint64(link.If), 0, "serve")
	mask := s.linkShards[link]
	if mask == 0 {
		return 0
	}
	s.dirty |= mask
	return s.publish(now, "revoke")
}

func (s *refService) ReinstateLink(now sim.Time, link seg.LinkKey) int {
	if _, ok := s.revoked[link]; !ok {
		return 0
	}
	delete(s.revoked, link)
	s.Reinstatements++
	s.trace(telemetry.PathReinstated, link.IA.Uint64(), uint64(link.If), 0, "serve")
	mask := s.linkShards[link]
	if mask == 0 {
		return 0
	}
	s.dirty |= mask
	return s.publish(now, "reinstate")
}

func (s *refService) Publish(now sim.Time) int {
	s.expireRevocations(now)
	for sh := uint32(0); sh < s.nshards; sh++ {
		if snap := s.snaps[sh].Load(); snap.minExpiry > 0 && now >= snap.minExpiry {
			s.dirty |= 1 << sh
		}
	}
	if s.dirty == 0 {
		return 0
	}
	return s.publish(now, "publish")
}

func (s *refService) expireRevocations(now sim.Time) {
	var lapsed []seg.LinkKey
	for lk, exp := range s.revoked {
		if now >= exp {
			lapsed = append(lapsed, lk)
		}
	}
	if len(lapsed) == 0 {
		return
	}
	sort.Slice(lapsed, func(i, j int) bool {
		if lapsed[i].IA != lapsed[j].IA {
			return lapsed[i].IA.Less(lapsed[j].IA)
		}
		return lapsed[i].If < lapsed[j].If
	})
	for _, lk := range lapsed {
		delete(s.revoked, lk)
		s.Reinstatements++
		s.dirty |= s.linkShards[lk]
		s.trace(telemetry.PathReinstated, lk.IA.Uint64(), uint64(lk.If), 0, "lapse")
	}
}

func (s *refService) publish(now sim.Time, reason string) int {
	s.epoch++
	s.Publishes++
	var changed []pairKey
	for sh := uint32(0); sh < s.nshards; sh++ {
		if s.dirty&(1<<sh) == 0 {
			continue
		}
		changed = s.rebuild(sh, now, changed)
		s.PublishedShards++
		s.trace(telemetry.SnapshotPublished, uint64(sh), s.epoch,
			uint64(len(s.snaps[sh].Load().pairs)), reason)
	}
	s.dirty = 0
	return len(changed)
}

func (s *refService) rebuild(sh uint32, now sim.Time, changed []pairKey) []pairKey {
	old := s.snaps[sh].Load()
	master := s.master[sh]
	pairs := make(map[pairKey]pairEntry, len(master))
	var shardMin sim.Time
	for key, list := range master {
		live := list[:0]
		for _, p := range list {
			if !p.Expired(now) {
				live = append(live, p)
			}
		}
		if len(live) == 0 {
			delete(master, key)
			if _, had := old.pairs[key]; had {
				changed = append(changed, key)
			}
			continue
		}
		s.master[sh][key] = live

		visible := make([]*seg.PCB, 0, len(live))
		for _, p := range live {
			if len(s.revoked) > 0 && refSegmentRevoked(p, s.revoked) {
				continue
			}
			visible = append(visible, p)
		}
		if len(visible) == 0 {
			if _, had := old.pairs[key]; had {
				changed = append(changed, key)
			}
			continue
		}
		min := visible[0].Info.Expiry
		for _, p := range visible[1:] {
			if p.Info.Expiry < min {
				min = p.Info.Expiry
			}
		}
		pairs[key] = pairEntry{segs: visible, minExpiry: min}
		if shardMin == 0 || min < shardMin {
			shardMin = min
		}
		if !samePathSet(old.pairs[key].segs, visible) {
			changed = append(changed, key)
		}
	}
	s.snaps[sh].Store(&refSnapshot{epoch: s.epoch, pairs: pairs, minExpiry: shardMin})
	return changed
}

func refSegmentRevoked(p *seg.PCB, revoked map[seg.LinkKey]sim.Time) bool {
	for _, lk := range p.Links() {
		if _, ok := revoked[lk]; ok {
			return true
		}
	}
	return false
}

// opsTwin is a Service and the oracle driven by the same operations.
type opsTwin struct {
	t       testing.TB
	now     sim.Time
	svc     *Service
	ref     *refService
	ts, tr  *telemetry.Tracer
	traced  int // trace events already compared
	changes int // pairs changed by revocations and reinstatements
}

func newOpsTwin(t testing.TB) *opsTwin {
	o := &opsTwin{t: t, ts: telemetry.NewTracer(1 << 14), tr: telemetry.NewTracer(1 << 14)}
	cs, cr := &sim.Simulator{}, &sim.Simulator{}
	cs.SetTracer(o.ts)
	cr.SetTracer(o.tr)
	o.svc = New(Config{Shards: 4, RevocationTTL: hour, Clock: cs})
	o.ref = newRefService(4, hour, cr)
	return o
}

// opMids are the transit ASes a generated segment may cross.
var opMids = [][]uint64{{20}, {21}, {22}, {20, 21}, {21, 22}, {22, 23}, {23}}

// opLinks are the links revocations name: six in use and two that no
// segment crosses.
var opLinks = []seg.LinkKey{
	linkOf(10), linkOf(11), linkOf(20), linkOf(21), linkOf(22), linkOf(23),
	linkOf(99), {IA: addr.MustIA(1, 20), If: 1},
}

// apply runs one operation, coded as two bytes, on both and compares.
func (o *opsTwin) apply(op, arg byte) {
	o.t.Helper()
	kind, extra := op%8, sim.Time(op/8)
	var what string
	var a, b int
	switch kind {
	case 0, 1, 2: // register, fresh or refresh, possibly already expired
		hops := append([]uint64{10 + uint64(arg%2)}, opMids[int(arg/8)%len(opMids)]...)
		hops = append(hops, 30+uint64(arg/2%4))
		ts := max(0, o.now-extra%4*2*hour)
		p := mkSeg(o.t, ts, hops...)
		what = fmt.Sprintf("register %v at %v", hops, ts)
		ea, eb := o.svc.Register(o.now, p), o.ref.Register(o.now, p)
		if fmt.Sprint(ea) != fmt.Sprint(eb) {
			o.t.Fatalf("%s: error %v, oracle %v", what, ea, eb)
		}
	case 3:
		lk, ttl := opLinks[arg%8], []sim.Time{0, hour / 2, 4 * hour}[extra%3]
		what = fmt.Sprintf("revoke %v ttl %v", lk, ttl)
		a, b = o.svc.RevokeLink(o.now, lk, ttl), o.ref.RevokeLink(o.now, lk, ttl)
		o.changes += a
	case 4:
		lk := opLinks[arg%8]
		what = fmt.Sprintf("reinstate %v", lk)
		a, b = o.svc.ReinstateLink(o.now, lk), o.ref.ReinstateLink(o.now, lk)
		o.changes += a
	case 5:
		what = "publish"
		a, b = o.svc.Publish(o.now), o.ref.Publish(o.now)
	case 6:
		o.now += sim.Time(arg) * sim.Time(30*time.Second)
		return
	case 7: // degenerate
		what = "register degenerate"
		p := mkSeg(o.t, o.now, 10)
		if (o.svc.Register(o.now, p) == nil) != (o.ref.Register(o.now, p) == nil) {
			o.t.Fatalf("%s: errors differ", what)
		}
	}
	if a != b {
		o.t.Fatalf("at %v, %s: changed %d pairs, oracle %d", o.now, what, a, b)
	}
	o.compare(what)
}

// checkIndex asserts the segment index's invariants for every master
// segment: an id of its own pair, its expiry, the number of its links in
// the revocation set, and its id listed on each of its links; and the pair
// index's for every shard: strictly canonical keys, their inverse, one
// entry per key, the live count, and, once the shard has been rebuilt
// whole since its master copy last gained pairs, a slot naming its key for
// every master pair.
func checkIndex(s *Service) error {
	for sh, master := range s.master {
		snap := s.snaps[sh].Load()
		if len(snap.at) != len(snap.keys) || len(snap.entries) != len(snap.keys) {
			return fmt.Errorf("shard %d: %d keys, %d inverse, %d entries", sh, len(snap.keys), len(snap.at), len(snap.entries))
		}
		live := 0
		for i, key := range snap.keys {
			if i > 0 && comparePairs(snap.keys[i-1], key) >= 0 {
				return fmt.Errorf("shard %d: pair %v after %v", sh, key, snap.keys[i-1])
			}
			if j, ok := snap.at[key.packed()]; !ok || int(j) != i {
				return fmt.Errorf("shard %d: pair %v at slot %d, inverse %d", sh, key, i, j)
			}
			if len(snap.entries[i].segs) > 0 {
				live++
			}
		}
		if live != snap.live {
			return fmt.Errorf("shard %d: %d pairs served, live %d", sh, live, snap.live)
		}
		if s.dirty&(1<<sh) == 0 && s.masterMin[sh] != 0 {
			if len(master) != len(snap.keys) {
				return fmt.Errorf("shard %d: %d master pairs, %d keys", sh, len(master), len(snap.keys))
			}
			for key, pm := range master {
				if int(pm.slot) >= len(snap.keys) || pm.slot < 0 || snap.keys[pm.slot] != key {
					return fmt.Errorf("shard %d: pair %v at slot %d", sh, key, pm.slot)
				}
			}
		}
		for key, pm := range master {
			if len(pm.ids) != len(pm.segs) {
				return fmt.Errorf("shard %d pair %v: %d ids for %d segments", sh, key, len(pm.ids), len(pm.segs))
			}
			for i, p := range pm.segs {
				id := pm.ids[i]
				if int(id) >= len(s.segs) {
					return fmt.Errorf("pair %v segment %d: id %d of %d", key, i, id, len(s.segs))
				}
				st, revoked := s.segs[id], int32(0)
				for _, lk := range p.Links() {
					if _, ok := s.revoked[lk]; ok {
						revoked++
					}
					if e := s.linkShards[lk]; e == nil || !slices.Contains(e.segs, id) {
						return fmt.Errorf("link %v does not list segment %d of pair %v", lk, id, key)
					}
				}
				if st.pair != pm || pm.key != key || st.expiry != p.Info.Expiry || st.revoked != revoked {
					return fmt.Errorf("pair %v segment %d: expiry %v revoked %d, want expiry %v revoked %d (own pair: %v)",
						key, id, st.expiry, st.revoked, p.Info.Expiry, revoked, st.pair == pm)
				}
			}
		}
	}
	return nil
}

// compare asserts equal published and writer state, counters and trace,
// and the segment index's invariants.
func (o *opsTwin) compare(what string) {
	o.t.Helper()
	s, r := o.svc, o.ref
	fail := func(format string, args ...any) {
		o.t.Helper()
		o.t.Fatalf("at %v, after %s: %s", o.now, what, fmt.Sprintf(format, args...))
	}
	if got, want := [8]uint64{s.epoch, s.dirty, s.Registrations, s.Refreshes, s.Publishes, s.PublishedShards, s.Revocations, s.Reinstatements},
		[8]uint64{r.epoch, r.dirty, r.Registrations, r.Refreshes, r.Publishes, r.PublishedShards, r.Revocations, r.Reinstatements}; got != want || s.Rejected != r.Rejected {
		fail("epoch, dirty and counters %v / %d, oracle %v / %d", got, s.Rejected, want, r.Rejected)
	}
	for sh := uint32(0); sh < s.nshards; sh++ {
		a, b := s.snaps[sh].Load(), r.snaps[sh].Load()
		pairs := map[pairKey]pairEntry{}
		for _, key := range a.keys {
			if e := a.entry(key); len(e.segs) > 0 {
				pairs[key] = e
			}
		}
		if a.epoch != b.epoch || a.minExpiry != b.minExpiry || a.live != len(b.pairs) || !reflect.DeepEqual(pairs, b.pairs) {
			fail("shard %d snapshot differs: epoch %d/%d minExpiry %v/%v pairs %d (live %d)/%d",
				sh, a.epoch, b.epoch, a.minExpiry, b.minExpiry, len(pairs), a.live, len(b.pairs))
		}
		master := map[pairKey][]*seg.PCB{}
		for key, pm := range s.master[sh] {
			master[key] = pm.segs
		}
		if !reflect.DeepEqual(master, r.master[sh]) {
			fail("shard %d master differs", sh)
		}
	}
	if err := checkIndex(s); err != nil {
		fail("%v", err)
	}
	masks := map[seg.LinkKey]uint64{}
	for lk, e := range s.linkShards {
		if e.shards != 0 {
			masks[lk] = e.shards
		}
	}
	if !reflect.DeepEqual(masks, r.linkShards) {
		fail("link shard masks differ")
	}
	if !reflect.DeepEqual(s.revoked, r.revoked) {
		fail("revocations differ")
	}
	es, er := o.ts.Events(), o.tr.Events()
	if len(es) != len(er) || !reflect.DeepEqual(es[o.traced:], er[o.traced:]) {
		fail("trace differs")
	}
	o.traced = len(es)
}

// runOps applies ops, two bytes per operation, to a Service and the
// oracle and returns the twin.
func runOps(t testing.TB, ops []byte) *opsTwin {
	o := newOpsTwin(t)
	for i := 0; i+1 < len(ops); i += 2 {
		o.apply(ops[i], ops[i+1])
	}
	return o
}

// Deregister removes p's path from the oracle's master copy, as
// Service.Deregister does: the oracle's own addition, not part of the
// verbatim writer side above.
func (s *refService) Deregister(p *seg.PCB) bool {
	key := pairKey{src: p.Origin(), dst: p.Leaf()}
	sh := s.ShardOf(key.dst)
	list := s.master[sh][key]
	i := slices.IndexFunc(list, func(q *seg.PCB) bool { return q.HopsKey() == p.HopsKey() })
	if i < 0 {
		return false
	}
	s.master[sh][key] = slices.Delete(list, i, i+1)
	s.dirty |= 1 << sh
	return true
}

// TestDeregister interleaves de-registrations of registered, already
// removed and never registered paths with the seeded operation mix, and
// compares the Service with the oracle after each one: the path leaves
// the next publication, an emptied pair leaves the index, and revoking
// or reinstating a link of a removed path does not bring it back. A
// reply handed out before de-registrations never changes.
func TestDeregister(t *testing.T) {
	removed := 0
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		o := newOpsTwin(t)
		for step := 0; step < 400; step++ {
			if rng.Intn(3) > 0 {
				o.apply(byte(rng.Intn(256)), byte(rng.Intn(256)))
				continue
			}
			arg := byte(rng.Intn(256))
			hops := append([]uint64{10 + uint64(arg%2)}, opMids[int(arg/8)%len(opMids)]...)
			hops = append(hops, 30+uint64(arg/2%4))
			p := mkSeg(t, o.now, hops...)
			a, b := o.svc.Deregister(p), o.ref.Deregister(p)
			if a != b {
				t.Fatalf("seed %d step %d: deregister %v = %v, oracle %v", seed, step, hops, a, b)
			}
			if a {
				removed++
			}
			o.compare(fmt.Sprintf("deregister %v", hops))
		}
	}
	if removed == 0 {
		t.Fatal("no de-registration removed a path: the mix exercises nothing")
	}

	// Deregistering each segment of a reply while ranging over it removes
	// them all, and the reply, held across later publications, keeps its
	// contents.
	s := New(Config{Shards: 1})
	for _, mid := range []uint64{20, 21, 22} {
		if err := s.Register(0, mkSeg(t, 0, 10, mid, 30)); err != nil {
			t.Fatal(err)
		}
	}
	s.Publish(0)
	src, dst := addr.MustIA(1, 10), addr.MustIA(1, 30)
	held, _ := s.Lookup(0, src, dst)
	want := slices.Clone(held)
	for _, p := range held {
		if !s.Deregister(p) {
			t.Errorf("deregister %v failed", p)
		}
	}
	if err := s.Register(0, mkSeg(t, 0, 10, 30)); err != nil {
		t.Fatal(err)
	}
	s.Publish(0)
	if got, _ := s.Lookup(0, src, dst); len(got) != 1 || got[0].Len() != 2 {
		t.Errorf("after deregistering a reply and registering one path: %v", got)
	}
	if len(want) != 3 || !slices.Equal(held, want) {
		t.Errorf("held reply changed: %v, want %v", held, want)
	}
}

// TestPublishMatchesWholeShardRebuild drives seeded operation mixes —
// registrations fresh, refreshed and expired, revocations of known,
// unknown and already revoked links, reinstatements, publications, and
// clock jumps across segment expiry and revocation TTLs — through the
// touched-pair Service and the whole-shard oracle.
func TestPublishMatchesWholeShardRebuild(t *testing.T) {
	changes := 0
	for seed := int64(1); seed <= 40; seed++ {
		ops := make([]byte, 600)
		rand.New(rand.NewSource(seed)).Read(ops)
		changes += runOps(t, ops).changes
	}
	if changes == 0 {
		t.Fatal("no revocation or reinstatement changed a pair: the mix exercises nothing")
	}
}

// FuzzServiceOps is the same comparison driven from bytes.
func FuzzServiceOps(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		ops := make([]byte, 200)
		rand.New(rand.NewSource(seed)).Read(ops)
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		runOps(t, ops[:min(len(ops), 512)])
	})
}
