package trust_test

import (
	"testing"

	"scionmpr/internal/addr"
	"scionmpr/internal/topology"
	"scionmpr/internal/trust"
)

// BenchmarkSigners compares the real ECDSA P-384 signer with the
// deterministic sized signer used in large simulations.
func BenchmarkSigners(b *testing.B) {
	g := topology.New()
	ia := addr.MustIA(1, 1)
	g.AddAS(ia, true)
	msg := make([]byte, 300)
	b.Run("ecdsa-p384", func(b *testing.B) {
		inf, err := trust.NewInfra(g, trust.ECDSA)
		if err != nil {
			b.Fatal(err)
		}
		s := inf.SignerFor(ia)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Sign(msg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sized", func(b *testing.B) {
		inf, err := trust.NewInfra(g, trust.Sized)
		if err != nil {
			b.Fatal(err)
		}
		s := inf.SignerFor(ia)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Sign(msg); err != nil {
				b.Fatal(err)
			}
		}
	})
}
