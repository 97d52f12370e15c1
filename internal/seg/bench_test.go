package seg

import (
	"testing"

	"scionmpr/internal/addr"
	"scionmpr/internal/topology"
	"scionmpr/internal/trust"
)

// benchPCB builds a 3-hop signed PCB for the wire benchmarks.
func benchPCB(b *testing.B) *PCB {
	b.Helper()
	inf, err := trust.NewInfra(topology.Demo(), trust.Sized)
	if err != nil {
		b.Fatal(err)
	}
	a1 := addr.MustIA(1, 0xff00_0000_0101)
	a3 := addr.MustIA(1, 0xff00_0000_0103)
	a5 := addr.MustIA(1, 0xff00_0000_0105)
	p := NewPCB(a1, 7, 0, 6*hour)
	p1, err := p.Extend(inf.SignerFor(a1), a3, 0, 2, nil, 1472)
	if err != nil {
		b.Fatal(err)
	}
	p2, err := p1.Extend(inf.SignerFor(a3), a5, 1, 2, nil, 1472)
	if err != nil {
		b.Fatal(err)
	}
	return p2
}

// BenchmarkWire measures the Encode hot path: the buffer is pre-sized
// from WireLen, so the encode itself is a single allocation.
func BenchmarkWire(b *testing.B) {
	p := benchPCB(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(p.Encode()) != p.WireLen() {
			b.Fatal("encode/WireLen mismatch")
		}
	}
}

// BenchmarkWireAppend measures AppendEncode with a reused buffer: the
// steady state is allocation-free.
func BenchmarkWireAppend(b *testing.B) {
	p := benchPCB(b)
	buf := make([]byte, 0, p.WireLen())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = p.AppendEncode(buf[:0])
	}
	if len(buf) != p.WireLen() {
		b.Fatal("encode/WireLen mismatch")
	}
}

// TestEncodeAllocs pins the allocation ceiling of the wire hot path so a
// regression shows up as a test failure, not only as a benchmark drift:
// Encode allocates exactly its output buffer, and AppendEncode into a
// pre-sized buffer allocates nothing.
func TestEncodeAllocs(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	inf, err := trust.NewInfra(topology.Demo(), trust.Sized)
	if err != nil {
		t.Fatal(err)
	}
	p := buildPCB(t, inf)
	if n := testing.AllocsPerRun(100, func() { p.Encode() }); n > 1 {
		t.Errorf("Encode allocates %.1f times per call, want <= 1", n)
	}
	buf := make([]byte, 0, p.WireLen())
	if n := testing.AllocsPerRun(100, func() { buf = p.AppendEncode(buf[:0]) }); n > 0 {
		t.Errorf("AppendEncode into sized buffer allocates %.1f times per call, want 0", n)
	}
}

// BenchmarkDecode measures Decode of a 3-hop beacon, caches included.
func BenchmarkDecode(b *testing.B) {
	enc := benchPCB(b).Encode()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtend measures one signed extension of a 3-hop beacon.
func BenchmarkExtend(b *testing.B) {
	p := benchPCB(b)
	inf, err := trust.NewInfra(topology.Demo(), trust.Sized)
	if err != nil {
		b.Fatal(err)
	}
	signer := inf.SignerFor(addr.MustIA(1, 0xff00_0000_0105))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Extend(signer, addr.IA{}, 1, 2, nil, 1472); err != nil {
			b.Fatal(err)
		}
	}
}
