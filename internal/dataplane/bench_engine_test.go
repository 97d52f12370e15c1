package dataplane

import (
	"math/rand"
	"strings"
	"testing"

	"scionmpr/internal/addr"
	"scionmpr/internal/combinator"
	"scionmpr/internal/slayers"
	"scionmpr/internal/topology"
)

// BenchmarkForward measures single-core forwarding throughput of the
// default-constructed wire engine: pre-encoded packets are injected as
// raw bytes and driven end to end (decode, MAC check, per-hop
// forwarding, delivery).
//
//	hot   one packet of one demo path, again and again: per-packet cost
//	wide  4 096 distinct paths of random walks on a 400-AS topology,
//	      injected in turn: the expected-MAC tables' working set
func BenchmarkForward(b *testing.B) {
	b.Run("hot", func(b *testing.B) {
		e := newEnv(b)
		eng := NewEngine(e.topo, e.infra.ForwardingKey)
		buf := encodeTestPacket(b, testPacket(e, 0, make([]byte, 128), 1))
		benchForward(b, eng, [][]byte{buf}, e.paths[0].MTU)
	})
	b.Run("wide", func(b *testing.B) {
		topo, bufs := widePaths(b, 4096)
		benchForward(b, NewEngine(topo, benchKey), bufs, 0)
	})
}

// benchForward injects bufs in turn, 256 per Flush, b.N packets in all,
// and checks that every one is delivered.
func benchForward(b *testing.B, eng *Engine, bufs [][]byte, mtu uint16) {
	var delivered int
	for _, ia := range eng.ias {
		eng.OnDeliver(ia, func(s *slayers.SCION) { delivered++ })
	}
	// Warm pools and tables outside the timed region.
	for _, buf := range bufs {
		if err := eng.InjectBytes(buf, mtu); err != nil {
			b.Fatal(err)
		}
		eng.Flush()
	}
	delivered = 0
	before := eng.Stats().Forwarded

	b.ReportAllocs()
	b.ResetTimer()
	const chunk = 256
	for n := 0; n < b.N; {
		m := min(chunk, b.N-n)
		for i := 0; i < m; i++ {
			if err := eng.InjectBytes(bufs[(n+i)%len(bufs)], mtu); err != nil {
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
	hops := int(eng.Stats().Forwarded-before) + delivered
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pkts/s")
	b.ReportMetric(float64(hops)/b.Elapsed().Seconds(), "hops/s")
}

// benchKey is a per-AS forwarding key for topologies without a trust
// infrastructure.
func benchKey(ia addr.IA) []byte { return []byte(strings.Repeat(ia.String(), 2)) }

// widePaths encodes n distinct loop-free paths of 2 to 6 hops, random
// walks over a generated 400-AS topology, as wire packets.
func widePaths(b *testing.B, n int) (*topology.Graph, [][]byte) {
	p := topology.DefaultGenParams()
	p.NumASes = 400
	topo, err := topology.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	ias := topo.IAs()
	rng := rand.New(rand.NewSource(1))
	seen := map[string]bool{}
	var bufs [][]byte
	for len(bufs) < n {
		at := ias[rng.Intn(len(ias))]
		var hops []combinator.Hop
		visited := map[addr.IA]bool{at: true}
		in := addr.IfID(0)
		for want := 2 + rng.Intn(5); len(hops) < want-1; {
			l := topo.AS(at).Links[rng.Intn(len(topo.AS(at).Links))]
			next := l.Other(at)
			if visited[next] {
				break
			}
			hops = append(hops, combinator.Hop{IA: at, In: in, Out: l.LocalIf(at)})
			at, in, visited[next] = next, l.RemoteIf(at), true
		}
		if len(hops) == 0 {
			continue
		}
		hops = append(hops, combinator.Hop{IA: at, In: in})
		fp, err := Authorize(&combinator.Path{Hops: hops}, benchKey)
		if err != nil {
			b.Fatal(err)
		}
		pkt := &Packet{Src: addr.HostIP4(hops[0].IA, 10, 0, 0, 1), Dst: addr.HostIP4(at, 10, 0, 0, 2),
			Path: fp, FlowID: uint32(len(bufs))}
		buf := encodeTestPacket(b, pkt)
		if key := string(buf[slayers.CmnHdrLen:]); !seen[key] {
			seen[key] = true
			bufs = append(bufs, buf)
		}
	}
	return topo, bufs
}
