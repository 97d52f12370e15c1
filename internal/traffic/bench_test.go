package traffic_test

import (
	"testing"
	"time"

	"scionmpr/internal/addr"
	"scionmpr/internal/dataplane"
	"scionmpr/internal/sim"
	"scionmpr/internal/topology"
	"scionmpr/internal/traffic"
	"scionmpr/scion"
)

// BenchmarkTokenBucketRefill measures chunk admission along a 3-link path:
// per-direction refill, bottleneck grant and charge across all buckets.
func BenchmarkTokenBucketRefill(b *testing.B) {
	g := topology.New()
	ias := make([]addr.IA, 4)
	for i := range ias {
		ias[i] = addr.MustIA(1, addr.AS(i+1))
		g.AddAS(ias[i], true)
	}
	var refs []dataplane.LinkRef
	for i := 0; i+1 < len(ias); i++ {
		l, err := g.Connect(ias[i], ias[i+1], topology.Core)
		if err != nil {
			b.Fatal(err)
		}
		refs = append(refs, dataplane.LinkRef{Link: l, From: ias[i]})
	}
	m := traffic.NewLinkModel(traffic.UniformCapacity(1.25e9))
	now := sim.Time(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Advance virtual time so the refill path (not just the
		// bucket-empty path) is exercised every call.
		now += sim.Time(50 * time.Microsecond)
		m.AdmitAtLeast(now, refs, 64<<10, 0)
	}
}

// BenchmarkFlowArrivalChurn measures the engine end to end: a fresh demo
// network absorbing a 1000-flow Poisson workload to completion, including
// path lookups, admission, head packets and completion bookkeeping.
func BenchmarkFlowArrivalChurn(b *testing.B) {
	src1 := addr.MustIA(1, 0xff00_0000_0106)
	dst1 := addr.MustIA(1, 0xff00_0000_0104)
	src2 := addr.MustIA(2, 0xff00_0000_0203)
	var flows float64
	for i := 0; i < b.N; i++ {
		n, err := scion.NewNetwork(scion.DemoTopology(), scion.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		eng, err := traffic.NewEngine(traffic.Config{
			Fabric:   n.Fabric(),
			Provider: n.Paths,
			Links:    traffic.NewLinkModel(traffic.DefaultCapacity()),
		})
		if err != nil {
			b.Fatal(err)
		}
		specs := traffic.Generate(traffic.WorkloadParams{
			Flows:       1000,
			Pairs:       [][2]addr.IA{{src1, dst1}, {src2, src1}, {dst1, src2}},
			ArrivalRate: 5000,
			MeanSize:    64 << 10,
			Seed:        7,
		})
		for _, spec := range specs {
			eng.Add(spec)
		}
		s := eng.Run()
		if s.Completed != 1000 {
			b.Fatalf("completed = %d", s.Completed)
		}
		flows = float64(s.Completed)
	}
	b.ReportMetric(flows, "flows/op")
}
