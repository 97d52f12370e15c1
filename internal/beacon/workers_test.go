package beacon_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"scionmpr/internal/beacon"
	"scionmpr/internal/core"
	"scionmpr/internal/telemetry"
	"scionmpr/internal/topology"
)

// workersISD builds the 3-core ISD of a 120-AS synthetic Internet that
// the worker-count runs below beacon over (every AS is an actor).
func workersISD(tb testing.TB) *topology.Graph {
	tb.Helper()
	p := topology.DefaultGenParams()
	p.NumASes = 120
	p.Tier1 = 6
	full, err := topology.Generate(p)
	if err != nil {
		tb.Fatal(err)
	}
	isd, err := topology.BuildISD(full, 3)
	if err != nil {
		tb.Fatal(err)
	}
	return isd
}

// runWorkers runs one hour of diversity intra-ISD beaconing with w
// workers, with a metric registry attached when telem is set.
func runWorkers(tb testing.TB, isd *topology.Graph, telem bool, w int) *beacon.RunResult {
	tb.Helper()
	cfg := beacon.DefaultRunConfig(isd, beacon.IntraMode, core.NewDiversity(core.DefaultParams(5)), 15)
	cfg.Duration = time.Hour
	cfg.Workers = w
	if telem {
		cfg.Telemetry = telemetry.NewRegistry()
	}
	res, err := beacon.Run(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// BenchmarkBeaconWorkers measures the parallel scheduler's speedup on
// the 120-AS intra-ISD beaconing run. The results are byte-identical
// across worker counts — the determinism tests assert that — so only
// the wall clock should move. The telemetry=on variants attach a metric
// registry (per-shard counter cells on the hot path); the contract is
// ~0% overhead when disabled (nil-receiver no-ops) and <=3% when
// enabled.
func BenchmarkBeaconWorkers(b *testing.B) {
	isd := workersISD(b)
	for _, telem := range []bool{false, true} {
		for _, w := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("telemetry=%v/workers=%d", telem, w), func(b *testing.B) {
				var bytes uint64
				for i := 0; i < b.N; i++ {
					bytes = runWorkers(b, isd, telem, w).TotalOverheadBytes()
				}
				b.ReportMetric(float64(bytes), "overhead-bytes/run")
			})
		}
	}
}

// TestBeaconWorkersAllocs holds the allocations of one BeaconWorkers run
// per variant to a fixed bound. Each bound is the variant's allocs/op in
// the baseline capture that CI's allocs/op regression gate compared
// against (BenchmarkBeaconWorkers at -benchtime 1x, recorded with the
// arena beacon store), times 1.20: the gate's 20% threshold, floored.
// A run is measured from config construction to result, as one
// -benchtime 1x benchmark iteration is.
func TestBeaconWorkersAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instrumentation adds about 17% allocations, too close to the 20% bound")
	}
	isd := workersISD(t)
	for _, tc := range []struct {
		telem     bool
		w         int
		maxAllocs uint64
	}{
		{false, 1, 9013 * 6 / 5},
		{false, 2, 9781 * 6 / 5},
		{false, 4, 9807 * 6 / 5},
		{false, 8, 9866 * 6 / 5},
		{true, 1, 12097 * 6 / 5},
		{true, 2, 13224 * 6 / 5},
		{true, 4, 13252 * 6 / 5},
		{true, 8, 13308 * 6 / 5},
	} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		runWorkers(t, isd, tc.telem, tc.w)
		runtime.ReadMemStats(&after)
		allocs := after.Mallocs - before.Mallocs
		t.Logf("telemetry=%v/workers=%d: %d allocs (bound %d)", tc.telem, tc.w, allocs, tc.maxAllocs)
		if allocs > tc.maxAllocs {
			t.Errorf("telemetry=%v/workers=%d: %d allocs per run, bound %d", tc.telem, tc.w, allocs, tc.maxAllocs)
		}
	}
}
