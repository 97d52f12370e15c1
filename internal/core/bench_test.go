package core_test

import (
	"slices"
	"sync"
	"testing"
	"time"

	"scionmpr/internal/addr"
	"scionmpr/internal/beacon"
	"scionmpr/internal/core"
	"scionmpr/internal/seg"
	"scionmpr/internal/sim"
	"scionmpr/internal/topology"
)

// selectCall is the input of one Select call.
type selectCall struct {
	now              sim.Time
	origin, neighbor addr.IA
	ifaces           []addr.IfID
	stored           []*seg.PCB
}

// recorder passes Select through to a diversity selector and keeps a
// copy of every call's input.
type recorder struct {
	core.Selector
	calls *[]selectCall
}

func (r recorder) Select(now sim.Time, origin, neighbor addr.IA, ifaces []addr.IfID, stored []*seg.PCB) []core.Selection {
	*r.calls = append(*r.calls, selectCall{now, origin, neighbor, slices.Clone(ifaces), slices.Clone(stored)})
	return r.Selector.Select(now, origin, neighbor, ifaces, stored)
}

var (
	harvestOnce sync.Once
	// harvested holds, in order, every Select input of the core AS with
	// the most core neighbours during 2 h of diversity beaconing on
	// Figure 5's 40-core topology (the benchmark's fig5_ctrl set-up).
	harvested []selectCall
	// harvestedAt is that AS.
	harvestedAt addr.IA
)

func harvest(b *testing.B) []selectCall {
	harvestOnce.Do(func() {
		gen := topology.DefaultGenParams()
		gen.NumASes, gen.Tier1, gen.Seed = 300, 10, 1
		full, err := topology.Generate(gen)
		if err != nil {
			b.Fatal(err)
		}
		topo, err := topology.ExtractCore(full, 40)
		if err != nil {
			b.Fatal(err)
		}
		at := &harvestedAt
		for _, ia := range topo.IAs() {
			if len(topo.CoreNeighbors(ia)) > len(topo.CoreNeighbors(*at)) {
				*at = ia
			}
		}
		div := core.NewDiversity(core.DefaultParams(5))
		f := func(local addr.IA) core.Selector {
			if local == *at {
				return recorder{div(local), &harvested}
			}
			return div(local)
		}
		cfg := beacon.DefaultRunConfig(topo, beacon.CoreMode, f, 60)
		cfg.Duration = 2 * time.Hour
		if _, err := beacon.Run(cfg); err != nil {
			b.Fatal(err)
		}
	})
	if len(harvested) == 0 {
		b.Fatal("nothing harvested")
	}
	return harvested
}

// lastInterval returns the calls of the final interval: one per
// (origin, neighbour) pair, against the fullest store.
func lastInterval(calls []selectCall) []selectCall {
	end := calls[len(calls)-1].now
	i := len(calls)
	for i > 0 && calls[i-1].now == end {
		i--
	}
	return calls[i:]
}

// replay runs calls on one selector per iteration and reports the time
// per call.
func replay(b *testing.B, calls []selectCall, f core.Factory) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := f(harvestedAt)
		for _, c := range calls {
			s.Select(c.now, c.origin, c.neighbor, c.ifaces, c.stored)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(calls)), "ns/call")
}

// BenchmarkDiversitySelect times Diversity.Select on harvested inputs.
// cold: a fresh selector, one call per (origin, neighbour) pair against
// the final store, as the ledger's core.div_select_us does. warm: one
// selector replaying every interval of the 2 h run in order, so state
// carried across intervals is exercised as in beaconing.
func BenchmarkDiversitySelect(b *testing.B) {
	calls := harvest(b)
	b.Run("cold", func(b *testing.B) { replay(b, lastInterval(calls), core.NewDiversity(core.DefaultParams(5))) })
	b.Run("warm", func(b *testing.B) { replay(b, calls, core.NewDiversity(core.DefaultParams(5))) })
}

// BenchmarkBaselineSelect times the baseline on the cold inputs of
// BenchmarkDiversitySelect.
func BenchmarkBaselineSelect(b *testing.B) {
	replay(b, lastInterval(harvest(b)), core.NewBaseline(5))
}
