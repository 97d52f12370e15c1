package traffic

import (
	"testing"
	"time"

	"scionmpr/internal/addr"
	"scionmpr/internal/dataplane"
	"scionmpr/internal/sim"
	"scionmpr/internal/topology"
)

// twoLinkPath builds a tiny topology and returns the link refs of its only
// two-link path A -> B -> C.
func twoLinkPath(t *testing.T) []dataplane.LinkRef {
	t.Helper()
	g := topology.New()
	a, b, c := addr.MustIA(1, 11), addr.MustIA(1, 12), addr.MustIA(1, 13)
	g.AddAS(a, true)
	g.AddAS(b, true)
	g.AddAS(c, true)
	l1 := g.MustConnect(a, b, topology.Core)
	l2 := g.MustConnect(b, c, topology.Core)
	return []dataplane.LinkRef{{Link: l1, From: a}, {Link: l2, From: b}}
}

func TestAdmitGrantsBottleneckShare(t *testing.T) {
	refs := twoLinkPath(t)
	m := NewLinkModel(UniformCapacity(1e6)) // 1 MB/s, 50ms burst = 50k tokens
	granted, wait := m.AdmitAtLeast(0, refs, 30_000, 0)
	if granted != 30_000 || wait != 0 {
		t.Fatalf("granted=%d wait=%v", granted, wait)
	}
	// 20k tokens left; asking for 64k grants the remainder.
	granted, wait = m.AdmitAtLeast(0, refs, 64_000, 0)
	if granted != 20_000 || wait != 0 {
		t.Fatalf("granted=%d wait=%v", granted, wait)
	}
	// Bucket empty: no grant, positive wait.
	granted, wait = m.AdmitAtLeast(0, refs, 64_000, 0)
	if granted != 0 || wait <= 0 {
		t.Fatalf("granted=%d wait=%v", granted, wait)
	}
	// After the advertised wait the tokens are back (capped at burst).
	now := sim.Time(wait)
	granted, _ = m.AdmitAtLeast(now, refs, 40_000, 0)
	if granted == 0 {
		t.Fatalf("no grant after waiting %v", wait)
	}
}

func TestAdmitRefillIsRateBound(t *testing.T) {
	refs := twoLinkPath(t)
	m := NewLinkModel(UniformCapacity(1e6))
	// Drain the burst, then measure sustained admission over one second.
	m.AdmitAtLeast(0, refs, 1<<30, 0)
	total := int64(0)
	for step := 1; step <= 100; step++ {
		now := sim.Time(time.Duration(step) * 10 * time.Millisecond)
		g, _ := m.AdmitAtLeast(now, refs, 1<<20, 0)
		total += g
	}
	// 1 second at 1 MB/s: within rounding of 1e6 bytes.
	if total < 990_000 || total > 1_010_000 {
		t.Errorf("sustained admission = %d bytes/s, want ~1e6", total)
	}
}

func TestBottleneckAndUtilizations(t *testing.T) {
	refs := twoLinkPath(t)
	m := NewLinkModel(func(l *topology.Link) float64 {
		if l.ID == refs[0].Link.ID {
			return 2e6
		}
		return 5e5
	})
	if got := m.Bottleneck(refs); got != 5e5 {
		t.Errorf("bottleneck = %v", got)
	}
	if got := m.Bottleneck(nil); got != 0 {
		t.Errorf("empty path bottleneck = %v", got)
	}
	g, _ := m.AdmitAtLeast(0, refs, 10_000, 0)
	if g != 10_000 {
		t.Fatalf("granted = %d", g)
	}
	utils := m.Utilizations(time.Second)
	if len(utils) != 2 {
		t.Fatalf("utilizations = %d entries", len(utils))
	}
	if utils[0].ID > utils[1].ID {
		t.Error("not sorted by link ID")
	}
	for _, u := range utils {
		if u.Bytes != 10_000 {
			t.Errorf("link %d bytes = %v", u.ID, u.Bytes)
		}
		if want := 10_000 / (u.Rate * 1.0); u.Util != want {
			t.Errorf("link %d util = %v, want %v", u.ID, u.Util, want)
		}
	}
}

func TestRelCapacityDeterministicAndBounded(t *testing.T) {
	g := topology.New()
	x, y := addr.MustIA(1, 21), addr.MustIA(1, 22)
	g.AddAS(x, true)
	g.AddAS(y, true)
	l := g.MustConnect(x, y, topology.Core)
	p := RelCapacity(1e9, 2.5e8, 1e8)
	first := p(l)
	if first < 0.75e9 || first >= 1.25e9 {
		t.Errorf("core capacity %v outside jitter band", first)
	}
	if again := p(l); again != first {
		t.Error("capacity not deterministic")
	}
	if DefaultCapacity()(l) <= 0 {
		t.Error("default capacity not positive")
	}
}

func TestAdmitAtLeastHoldsForFloor(t *testing.T) {
	refs := twoLinkPath(t)
	m := NewLinkModel(UniformCapacity(1e6)) // 50k-token burst
	// Leave 20k tokens, below a 30k floor: nothing trickles out.
	if g, _ := m.AdmitAtLeast(0, refs, 30_000, 0); g != 30_000 {
		t.Fatalf("setup grant: %d", g)
	}
	granted, wait := m.AdmitAtLeast(0, refs, 64_000, 30_000)
	if granted != 0 || wait <= 0 {
		t.Fatalf("below floor: granted=%d wait=%v", granted, wait)
	}
	// The advertised wait targets the floor, not the full want: 10k
	// missing tokens at 1 MB/s is 10ms.
	if wait != 10*time.Millisecond {
		t.Errorf("wait=%v, want 10ms (time to floor)", wait)
	}
	// Once the floor fits, the grant is everything available.
	granted, _ = m.AdmitAtLeast(sim.Time(wait), refs, 64_000, 30_000)
	if granted != 30_000 {
		t.Errorf("at floor: granted=%d, want 30000", granted)
	}
	// A floor above the burst depth is clamped, not a deadlock.
	m.AdmitAtLeast(sim.Time(wait), refs, 1<<30, 0) // drain
	now := sim.Time(200 * time.Millisecond)
	granted, _ = m.AdmitAtLeast(now, refs, 1<<30, 1<<30)
	if granted != 50_000 {
		t.Errorf("clamped floor: granted=%d, want full 50k burst", granted)
	}
	// Floor zero is plain Admit: partial grants flow again.
	now += sim.Time(10 * time.Millisecond) // 10k tokens refilled
	granted, _ = m.AdmitAtLeast(now, refs, 64_000, 0)
	if granted != 10_000 {
		t.Errorf("floor 0: granted=%d, want the 10k partial grant", granted)
	}
}
