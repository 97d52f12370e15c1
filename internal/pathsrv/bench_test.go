package pathsrv

import (
	"sync"
	"sync/atomic"
	"testing"

	"scionmpr/internal/addr"
	"scionmpr/internal/seg"
	"scionmpr/internal/sim"
)

// benchService registers a pairs x segsPerPair mesh and publishes it.
func benchService(tb testing.TB, pairs, segsPerPair int) (*Service, []addr.IA, []addr.IA) {
	tb.Helper()
	svc := New(Config{})
	sources := []addr.IA{addr.MustIA(1, 10), addr.MustIA(1, 11)}
	var dests []addr.IA
	for d := 0; d < pairs; d++ {
		dst := addr.MustIA(1, addr.AS(1000+d))
		dests = append(dests, dst)
		for _, src := range sources {
			for i := 0; i < segsPerPair; i++ {
				p := mkSeg(tb, 0, uint64(src.AS), uint64(100+i), uint64(dst.AS))
				if err := svc.Register(0, p); err != nil {
					tb.Fatal(err)
				}
			}
		}
	}
	svc.Publish(0)
	return svc, sources, dests
}

func BenchmarkServiceLookup(b *testing.B) {
	svc, sources, dests := benchService(b, 1024, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		segs, _ := svc.Lookup(0, sources[i&1], dests[i%len(dests)])
		if len(segs) != 4 {
			b.Fatalf("lookup = %d segments", len(segs))
		}
	}
}

func BenchmarkServiceLookupParallel(b *testing.B) {
	svc, sources, dests := benchService(b, 1024, 4)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			svc.Lookup(0, sources[i&1], dests[i%len(dests)])
			i++
		}
	})
}

func BenchmarkPublishDirtyShard(b *testing.B) {
	svc, _, dests := benchService(b, 1024, 4)
	// Each iteration dirties one shard via a refresh and republishes.
	refresh := make([]*seg.PCB, b.N)
	for i := range refresh {
		dst := dests[i%len(dests)]
		refresh[i] = mkSeg(b, sim.Time(i+1), 10, 100, uint64(dst.AS))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := svc.Register(sim.Time(i+1), refresh[i]); err != nil {
			b.Fatal(err)
		}
		svc.Publish(sim.Time(i + 1))
	}
}

func BenchmarkRevokeReinstate(b *testing.B) {
	svc, _, _ := benchService(b, 1024, 4)
	link := seg.LinkKey{IA: addr.MustIA(1, 100), If: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svc.RevokeLink(0, link, hour)
		svc.ReinstateLink(0, link)
	}
}

// TestConcurrentReadersBesideWriter drives the goroutine form of the
// concurrency contract: readers look up pairs while one writer refreshes
// segments, republishes, revokes and reinstates. Run with -race, it is the
// proof that readers touch only immutable snapshots.
func TestConcurrentReadersBesideWriter(t *testing.T) {
	svc, sources, dests := benchService(t, 128, 3)
	refresh := make([]*seg.PCB, len(dests))
	for i, dst := range dests {
		refresh[i] = mkSeg(t, sim.Time(i+1), 10, 100, uint64(dst.AS))
	}
	const readers, ops = 4, 2000
	var done atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer done.Add(1)
			for i := 0; i < ops; i++ {
				src, dst := sources[i&1], dests[(i*7+g)%len(dests)]
				if segs, _ := svc.Lookup(0, src, dst); len(segs) == 0 {
					t.Errorf("reader %d: empty reply for %v -> %v in a full mesh", g, src, dst)
					return
				}
			}
		}()
	}
	link := seg.LinkKey{IA: addr.MustIA(1, 101), If: 2}
	writes := 0
	for ; done.Load() < readers || writes == 0; writes++ {
		now := sim.Time(writes + 1)
		if err := svc.Register(now, refresh[writes%len(refresh)]); err != nil {
			t.Error(err)
			break
		}
		svc.Publish(now)
		if writes%2 == 0 {
			svc.RevokeLink(now, link, 1000*hour)
		} else {
			svc.ReinstateLink(now, link)
		}
	}
	wg.Wait()
}
