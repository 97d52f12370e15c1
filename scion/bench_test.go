package scion_test

import (
	"testing"

	"scionmpr/internal/addr"
	"scionmpr/scion"
)

// BenchmarkNetworkBootstrap measures the public API's full control-plane
// bootstrap (trust + beaconing + registration + path servers) on the demo
// network.
func BenchmarkNetworkBootstrap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		n, err := scion.NewNetwork(scion.DemoTopology(), scion.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := n.Paths(addr.MustIA(2, 0xff00_0000_0203), addr.MustIA(1, 0xff00_0000_0106)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPathLookup measures endpoint path lookup + combination +
// authorization on a bootstrapped network (cache defeated by alternating
// destinations).
func BenchmarkPathLookup(b *testing.B) {
	n, err := scion.NewNetwork(scion.DemoTopology(), scion.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	src := addr.MustIA(2, 0xff00_0000_0203)
	dsts := []addr.IA{
		addr.MustIA(1, 0xff00_0000_0106),
		addr.MustIA(1, 0xff00_0000_0104),
		addr.MustIA(3, 0xff00_0000_0304),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.Paths(src, dsts[i%len(dsts)]); err != nil {
			b.Fatal(err)
		}
	}
}
