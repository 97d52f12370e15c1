package chaos

import (
	"testing"
	"time"

	"scionmpr/internal/sim"
	"scionmpr/internal/topology"
)

// BenchmarkFlapTick measures one fail/restore edge pair through the
// depth-counting engine — the per-occurrence cost of a flapping link.
func BenchmarkFlapTick(b *testing.B) {
	s := &sim.Simulator{}
	rec := newRecorder(s)
	e := NewEngine(s, rec)
	id := topology.LinkID(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.failLink(id)
		e.restoreLink(id)
	}
}

type benchMsg struct{}

func (benchMsg) WireLen() int { return 64 }

// BenchmarkGrayDropDecision measures the per-message cost of the
// gray-failure drop decision inside sim.Network.Send's hot path. The
// rate is 1.0 so every message takes the drop branch and nothing piles
// up in the event heap.
func BenchmarkGrayDropDecision(b *testing.B) {
	g := topology.Demo()
	s := &sim.Simulator{}
	n := sim.NewNetwork(s, g, time.Millisecond)
	link := g.Links[0]
	n.SetLinkLoss(link.ID, 1.0)
	msg := benchMsg{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Send(link.A, link, msg)
	}
	if n.DroppedByLoss != uint64(b.N) {
		b.Fatalf("dropped %d of %d", n.DroppedByLoss, b.N)
	}
}

// BenchmarkScheduleApply measures expanding a 32-link churn schedule
// into its concrete fault plan.
func BenchmarkScheduleApply(b *testing.B) {
	links := make([]topology.LinkID, 64)
	for i := range links {
		links[i] = topology.LinkID(i + 1)
	}
	sched := FlapChurn(1, links, 32, 0, sim.Time(10*time.Minute), 2*time.Second, 30*time.Second)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := &sim.Simulator{}
		e := NewEngine(s, newRecorder(s))
		if err := e.Apply(sched); err != nil {
			b.Fatal(err)
		}
	}
}
