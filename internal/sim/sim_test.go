package sim

import (
	"math"
	"testing"
	"time"

	"scionmpr/internal/addr"
	"scionmpr/internal/topology"
)

func TestScheduleOrdering(t *testing.T) {
	var s Simulator
	var got []int
	s.Schedule(3*time.Second, func() { got = append(got, 3) })
	s.Schedule(1*time.Second, func() { got = append(got, 1) })
	s.Schedule(2*time.Second, func() { got = append(got, 2) })
	end := s.Run()
	if end != Time(3*time.Second) {
		t.Errorf("end time = %v", end)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("order = %v", got)
	}
}

func TestSameTimeFIFO(t *testing.T) {
	var s Simulator
	var got []int
	for i := 0; i < 5; i++ {
		i := i
		s.Schedule(time.Second, func() { got = append(got, i) })
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("FIFO violated: %v", got)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	var s Simulator
	fired := 0
	s.Schedule(time.Second, func() {
		s.Schedule(time.Second, func() { fired++ })
	})
	s.Run()
	if fired != 1 {
		t.Errorf("nested event fired %d times", fired)
	}
	if s.Now() != Time(2*time.Second) {
		t.Errorf("now = %v, want 2s", s.Now())
	}
}

func TestNegativeDelayRunsNow(t *testing.T) {
	var s Simulator
	ok := false
	s.Schedule(time.Second, func() {
		s.Schedule(-5*time.Second, func() { ok = s.Now() == Time(time.Second) })
	})
	s.Run()
	if !ok {
		t.Error("negative delay did not run at current time")
	}
}

func TestAtPastPanics(t *testing.T) {
	var s Simulator
	s.Schedule(2*time.Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past must panic")
			}
		}()
		s.At(Time(time.Second), func() {})
	})
	s.Run()
}

func TestRunUntil(t *testing.T) {
	var s Simulator
	fired := 0
	for i := 1; i <= 5; i++ {
		s.Schedule(time.Duration(i)*time.Second, func() { fired++ })
	}
	s.RunUntil(Time(3 * time.Second))
	if fired != 3 {
		t.Errorf("fired = %d, want 3", fired)
	}
	if s.Pending() != 2 {
		t.Errorf("pending = %d, want 2", s.Pending())
	}
	if s.Now() != Time(3*time.Second) {
		t.Errorf("now = %v", s.Now())
	}
	// RunUntil past the rest executes them.
	s.RunUntil(Time(10 * time.Second))
	if fired != 5 || s.Now() != Time(10*time.Second) {
		t.Errorf("fired=%d now=%v", fired, s.Now())
	}
}

func TestEvery(t *testing.T) {
	var s Simulator
	var at []Time
	s.Every(time.Second, 2*time.Second, Time(7*time.Second), func(now Time) {
		at = append(at, now)
	})
	s.Run()
	want := []Time{Time(time.Second), Time(3 * time.Second), Time(5 * time.Second), Time(7 * time.Second)}
	if len(at) != len(want) {
		t.Fatalf("firings = %v, want %v", at, want)
	}
	for i := range want {
		if at[i] != want[i] {
			t.Fatalf("firings = %v, want %v", at, want)
		}
	}
}

func TestEveryNoEnd(t *testing.T) {
	var s Simulator
	n := 0
	s.Every(0, time.Second, 0, func(Time) { n++ })
	s.RunUntil(Time(3 * time.Second))
	if n != 4 || s.Pending() != 1 {
		t.Errorf("unbounded Every fired %d times by 3s with %d pending, want 4 and 1", n, s.Pending())
	}
}

type testMsg int

func (m testMsg) WireLen() int { return int(m) }

func pairTopo() *topology.Graph {
	g := topology.New()
	a := addr.MustIA(1, 1)
	b := addr.MustIA(1, 2)
	g.AddAS(a, true)
	g.AddAS(b, true)
	g.MustConnect(a, b, topology.Core)
	return g
}

func TestNetworkDelivery(t *testing.T) {
	var s Simulator
	g := pairTopo()
	a, b := addr.MustIA(1, 1), addr.MustIA(1, 2)
	n := NewNetwork(&s, g, 10*time.Millisecond)

	var gotFrom addr.IA
	var gotSize int
	var gotAt Time
	n.Register(b, HandlerFunc(func(from addr.IA, l *topology.Link, m Message) {
		gotFrom, gotSize, gotAt = from, m.WireLen(), s.Now()
	}))

	link := g.LinksBetween(a, b)[0]
	n.Send(a, link, testMsg(100))
	s.Run()

	if gotFrom != a || gotSize != 100 {
		t.Errorf("delivery: from=%v size=%d", gotFrom, gotSize)
	}
	if gotAt != Time(10*time.Millisecond) {
		t.Errorf("delivered at %v, want 10ms", gotAt)
	}
	txc := n.InterfaceCounter(a, link.LocalIf(a))
	rxc := n.InterfaceCounter(b, link.LocalIf(b))
	if txc.TxBytes != 100 || txc.TxMsgs != 1 {
		t.Errorf("tx counter = %+v", txc)
	}
	if rxc.RxBytes != 100 || rxc.RxMsgs != 1 {
		t.Errorf("rx counter = %+v", rxc)
	}
	if n.TotalTx(a) != 100 || n.TotalRx(b) != 100 || n.GrandTotalTx() != 100 {
		t.Error("totals wrong")
	}
}

func TestNetworkDropsWithoutHandler(t *testing.T) {
	var s Simulator
	g := pairTopo()
	a, b := addr.MustIA(1, 1), addr.MustIA(1, 2)
	n := NewNetwork(&s, g, time.Millisecond)
	link := g.LinksBetween(a, b)[0]
	n.Send(a, link, testMsg(10))
	s.Run()
	if n.Dropped != 1 {
		t.Errorf("dropped = %d, want 1", n.Dropped)
	}
	// RX is still counted: bytes crossed the wire.
	if n.TotalRx(b) != 10 {
		t.Error("rx bytes not counted on drop")
	}
}

func TestNetworkSendForeignLinkPanics(t *testing.T) {
	var s Simulator
	g := pairTopo()
	c := addr.MustIA(1, 3)
	g.AddAS(c, false)
	n := NewNetwork(&s, g, time.Millisecond)
	link := g.LinksBetween(addr.MustIA(1, 1), addr.MustIA(1, 2))[0]
	defer func() {
		if recover() == nil {
			t.Error("sending on foreign link must panic")
		}
	}()
	n.Send(c, link, testMsg(1))
}

func TestNetworkInterfaceListing(t *testing.T) {
	var s Simulator
	g := pairTopo()
	a, b := addr.MustIA(1, 1), addr.MustIA(1, 2)
	n := NewNetwork(&s, g, time.Millisecond)
	n.Register(a, HandlerFunc(func(addr.IA, *topology.Link, Message) {}))
	n.Register(b, HandlerFunc(func(addr.IA, *topology.Link, Message) {}))
	link := g.LinksBetween(a, b)[0]
	n.Send(a, link, testMsg(7))
	n.Send(b, link, testMsg(9))
	s.Run()
	keys := n.Interfaces()
	if len(keys) != 2 {
		t.Fatalf("interfaces = %v", keys)
	}
	per := n.PerInterfaceTxBytes()
	if per[0]+per[1] != 16 {
		t.Errorf("per-interface tx = %v", per)
	}
	n.ResetCounters()
	if len(n.Interfaces()) != 0 || n.GrandTotalTx() != 0 {
		t.Error("reset did not clear counters")
	}
}

func TestSetLinkDelay(t *testing.T) {
	var s Simulator
	g := pairTopo()
	a, b := addr.MustIA(1, 1), addr.MustIA(1, 2)
	n := NewNetwork(&s, g, 10*time.Millisecond)
	link := g.LinksBetween(a, b)[0]

	if d := n.DelayOr(link.ID, n.Delay); d != 10*time.Millisecond {
		t.Fatalf("default delay = %v", d)
	}
	n.SetLinkDelay(link.ID, 3*time.Millisecond)
	if d := n.DelayOr(link.ID, n.Delay); d != 3*time.Millisecond {
		t.Fatalf("override delay = %v", d)
	}

	var gotAt Time
	n.Register(b, HandlerFunc(func(addr.IA, *topology.Link, Message) { gotAt = s.Now() }))
	n.Send(a, link, testMsg(1))
	s.Run()
	if gotAt != Time(3*time.Millisecond) {
		t.Errorf("delivered at %v, want the 3ms override", gotAt)
	}

	// d <= 0 restores the network-wide default.
	for _, reset := range []time.Duration{0, 3 * time.Millisecond, -time.Second} {
		n.SetLinkDelay(link.ID, reset)
	}
	if d := n.DelayOr(link.ID, n.Delay); d != 10*time.Millisecond {
		t.Errorf("delay after reset = %v, want default", d)
	}
}

// TestSetLinkLossRange: a rate that is not positive heals the link —
// NaN included, which must never be stored as a live loss rate — and
// rates above 1 clamp.
func TestSetLinkLossRange(t *testing.T) {
	var s Simulator
	g := pairTopo()
	n := NewNetwork(&s, g, time.Millisecond)
	id := g.Links[0].ID
	for _, tc := range []struct{ set, want float64 }{
		{0.25, 0.25}, {math.NaN(), 0}, {0.5, 0.5}, {-1, 0}, {7, 1}, {0, 0},
	} {
		n.SetLinkLoss(id, tc.set)
		if got := n.LinkLoss(id); got != tc.want {
			t.Errorf("SetLinkLoss(%v): LinkLoss = %v, want %v", tc.set, got, tc.want)
		}
	}
}
