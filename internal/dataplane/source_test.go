package dataplane

import (
	"testing"
	"time"

	"scionmpr/internal/addr"
	"scionmpr/internal/seg"
	"scionmpr/internal/sim"
	"scionmpr/internal/topology"
)

// memEnv is a demo fabric with a short TTL, and the first two links of
// an A-6 to A-4 path that has two, for source-memory tests.
func memEnv(t *testing.T) (e *env, p *FwdPath, l1, l2 *topology.Link) {
	t.Helper()
	e = newEnv(t)
	e.fabric.RevocationTTL = 100 * time.Millisecond
	for _, p := range e.paths {
		if refs, err := p.LinkRefs(e.topo); err == nil && len(refs) >= 2 {
			return e, p, refs[0].Link, refs[1].Link
		}
	}
	t.Fatal("no A-6 to A-4 path with two links")
	return
}

// revokeAt has an SCMP revocation of l arrive at A-6 at t, as the
// router at l's upstream end would send it.
func revokeAt(e *env, t time.Duration, l *topology.Link) {
	e.sim.At(sim.Time(t), func() {
		e.fabric.arrive(e.fabric.e.idx[a6], &SCMP{Type: SCMPRevokedLink, Link: seg.LinkKey{IA: l.A, If: l.LocalIf(l.A)}})
	})
}

// revoked reads the memory for one link, every SCMP counted.
func revoked(m *SourceMemory, l *topology.Link) bool {
	return m.Crosses([]LinkRef{{Link: l, From: l.A}}, 0)
}

// TestSourceMemoryRecordsBeforeListeners: an SCMP revocation raised by a
// failed link reaches A-6's listeners with the link already in A-6's
// memory, for both directions of the link.
func TestSourceMemoryRecordsBeforeListeners(t *testing.T) {
	e, p, l1, _ := memEnv(t)
	e.fabric.FailLink(l1.ID)
	m := e.fabric.Source(a6)
	heard := 0
	e.fabric.AddSCMP(a6, func(msg *SCMP) {
		heard++
		if !revoked(m, l1) || !m.Crosses([]LinkRef{{Link: l1, From: l1.B}}, 0) {
			t.Error("listener ran before the memory recorded the revocation")
		}
	})
	pkt := &Packet{Src: addr.HostIP4(a6, 10, 0, 0, 1), Dst: addr.HostIP4(a4, 10, 0, 0, 2), Path: p}
	if err := e.fabric.Inject(pkt); err != nil {
		t.Fatal(err)
	}
	e.sim.Run()
	if heard != 1 {
		t.Fatalf("listener heard %d SCMPs, want 1", heard)
	}
	if revoked(e.fabric.Source(a4), l1) {
		t.Error("the revocation leaked into another AS's memory")
	}
}

// TestSourceMemoryLapse: a revocation lapses one TTL after its SCMP and
// runs the lapse listeners once. A reader at the lapse instant whose
// event was queued before the lapse event still sees it revoked.
func TestSourceMemoryLapse(t *testing.T) {
	e, _, l1, _ := memEnv(t)
	m := e.fabric.Source(a6)
	var lapsed []topology.LinkID
	var lapsedAt sim.Time
	m.OnLapse(func(id topology.LinkID) {
		lapsed = append(lapsed, id)
		lapsedAt = e.sim.Now()
	})
	var before, at, after bool
	e.sim.At(sim.Time(100*time.Millisecond), func() { at = revoked(m, l1) })
	revokeAt(e, 0, l1)
	e.sim.At(sim.Time(99*time.Millisecond), func() { before = revoked(m, l1) })
	e.sim.At(sim.Time(99*time.Millisecond), func() {
		// Queued after the lapse event.
		e.sim.At(sim.Time(100*time.Millisecond), func() { after = revoked(m, l1) })
	})
	e.sim.Run()
	if !before || !at || after {
		t.Errorf("revoked at 99ms, at 100ms before the lapse, after it = %v %v %v, want true true false", before, at, after)
	}
	if len(lapsed) != 1 || lapsed[0] != l1.ID || lapsedAt != sim.Time(100*time.Millisecond) {
		t.Errorf("lapses = %v at %v, want [%d] at 100ms", lapsed, lapsedAt, l1.ID)
	}
}

// TestSourceMemoryRefresh: a fresh SCMP pushes the lapse out by a TTL;
// the lapse event of the older SCMP is ignored.
func TestSourceMemoryRefresh(t *testing.T) {
	e, _, l1, _ := memEnv(t)
	m := e.fabric.Source(a6)
	var lapsedAt []sim.Time
	m.OnLapse(func(topology.LinkID) { lapsedAt = append(lapsedAt, e.sim.Now()) })
	revokeAt(e, 0, l1)
	revokeAt(e, 60*time.Millisecond, l1)
	var mid bool
	e.sim.At(sim.Time(130*time.Millisecond), func() { mid = revoked(m, l1) })
	e.sim.Run()
	if !mid {
		t.Error("refreshed revocation lapsed at the first SCMP's TTL")
	}
	if len(lapsedAt) != 1 || lapsedAt[0] != sim.Time(160*time.Millisecond) {
		t.Errorf("lapses at %v, want one at 160ms", lapsedAt)
	}
	if revoked(m, l1) {
		t.Error("still revoked after the refreshed TTL")
	}
}

// TestSourceMemoryNoListenerNoEvent: without a lapse listener the memory
// schedules nothing; the revocation lapses lazily when read.
func TestSourceMemoryNoListenerNoEvent(t *testing.T) {
	e, _, l1, _ := memEnv(t)
	revokeAt(e, 0, l1)
	e.sim.Run()
	if e.sim.Executed != 1 {
		t.Errorf("executed %d events, want only the SCMP arrival", e.sim.Executed)
	}
	m := e.fabric.Source(a6)
	e.sim.RunUntil(sim.Time(99 * time.Millisecond))
	if !revoked(m, l1) {
		t.Error("revocation lapsed before its TTL")
	}
	e.sim.RunUntil(sim.Time(100 * time.Millisecond))
	if revoked(m, l1) {
		t.Error("revocation held past its TTL")
	}
	if e.sim.Executed != 1 {
		t.Errorf("executed %d events, want 1", e.sim.Executed)
	}
}

// TestSourceMemoryLastSeenNeverLapses: the last-seen time outlives the
// revocation and follows the latest SCMP over the given links.
func TestSourceMemoryLastSeenNeverLapses(t *testing.T) {
	e, _, l1, l2 := memEnv(t)
	m := e.fabric.Source(a6)
	if _, ok := m.LastSeen([]LinkRef{{Link: l1}}); ok {
		t.Error("last-seen time before any SCMP")
	}
	revokeAt(e, 10*time.Millisecond, l1)
	revokeAt(e, 30*time.Millisecond, l2)
	e.sim.RunUntil(sim.Time(time.Hour))
	if revoked(m, l1) || revoked(m, l2) {
		t.Fatal("revocations did not lapse")
	}
	if at, ok := m.LastSeen([]LinkRef{{Link: l1}}); !ok || at != sim.Time(10*time.Millisecond) {
		t.Errorf("l1 last seen = %v, %v; want 10ms", at, ok)
	}
	if at, ok := m.LastSeen([]LinkRef{{Link: l1}, {Link: l2}}); !ok || at != sim.Time(30*time.Millisecond) {
		t.Errorf("path last seen = %v, %v; want 30ms", at, ok)
	}
}

// TestSourceMemoryLearnedSince: Crosses with a Learned watermark ignores
// revocations recorded before it until a fresh SCMP renews them.
func TestSourceMemoryLearnedSince(t *testing.T) {
	e, _, l1, l2 := memEnv(t)
	m := e.fabric.Source(a6)
	revokeAt(e, 0, l1)
	e.sim.RunUntil(sim.Time(time.Millisecond))
	since := m.Learned()
	revokeAt(e, 2*time.Millisecond, l2)
	e.sim.RunUntil(sim.Time(3 * time.Millisecond))
	p1, p2 := []LinkRef{{Link: l1}}, []LinkRef{{Link: l2}}
	if m.Crosses(p1, since) || !m.Crosses(p2, since) || !m.Crosses(p1, 0) {
		t.Error("watermark does not split the revocations")
	}
	revokeAt(e, 4*time.Millisecond, l1)
	e.sim.RunUntil(sim.Time(5 * time.Millisecond))
	if !m.Crosses(p1, since) {
		t.Error("a renewed revocation stayed below the watermark")
	}
}
