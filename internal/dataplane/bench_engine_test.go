package dataplane

import (
	"testing"

	"scionmpr/internal/slayers"
)

// BenchmarkForward measures single-core forwarding throughput of the
// default-constructed wire engine (one worker, so pkts/s is per core):
// one pre-encoded packet is injected repeatedly as raw bytes and driven
// end to end (decode, MAC verify, per-hop forwarding, delivery).
func BenchmarkForward(b *testing.B) {
	e := newEnv(b)
	eng := NewEngine(e.topo, e.infra.ForwardingKey)

	var delivered int
	eng.OnDeliver(a4, func(s *slayers.SCION) { delivered++ })

	buf := encodeTestPacket(b, testPacket(e, 0, make([]byte, 128), 1))
	mtu := e.paths[0].MTU

	// Warm pools and caches outside the timed region.
	if err := eng.InjectBytes(buf, mtu); err != nil {
		b.Fatal(err)
	}
	eng.Flush()
	delivered = 0

	b.ReportAllocs()
	b.ResetTimer()
	const chunk = 256
	for n := 0; n < b.N; {
		m := chunk
		if b.N-n < m {
			m = b.N - n
		}
		for i := 0; i < m; i++ {
			if err := eng.InjectBytes(buf, mtu); err != nil {
				b.Fatal(err)
			}
		}
		eng.Flush()
		n += m
	}
	b.StopTimer()

	if delivered != b.N {
		b.Fatalf("delivered %d of %d", delivered, b.N)
	}
	pps := float64(b.N) / b.Elapsed().Seconds()
	b.ReportMetric(pps, "pkts/s")
	b.ReportMetric(pps*float64(len(e.paths[0].Hops)), "hops/s")
}
