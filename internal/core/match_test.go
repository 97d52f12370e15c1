package core_test

import (
	"testing"
	"time"

	"scionmpr/internal/beacon"
	"scionmpr/internal/chaos"
	"scionmpr/internal/core"
	"scionmpr/internal/sim"
	"scionmpr/internal/topology"
)

// TestSelectMatchesReference beacons with core.Diversity in lockstep with
// its two oracles (reference_test.go) and requires equal selections and
// equal Link History Tables for every (interval, AS, origin, neighbour):
// on the demo network, on a 40-core core for 12 h (so Equation 3
// refreshes and sent records expire) and on SCIONLab under link flaps
// (so Revoke rolls counters back).
func TestSelectMatchesReference(t *testing.T) {
	gen := topology.DefaultGenParams()
	gen.NumASes, gen.Tier1, gen.Seed = 300, 10, 1
	full, err := topology.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	core40, err := topology.ExtractCore(full, 40)
	if err != nil {
		t.Fatal(err)
	}
	// Under -race, 7 h still covers the first refreshes and expiries of
	// the 6 h lifetime.
	long := 12 * time.Hour
	if raceEnabled {
		long = 7 * time.Hour
	}
	for _, tc := range []struct {
		name     string
		topo     *topology.Graph
		mode     beacon.Mode
		store    int
		duration time.Duration
		flaps    int
	}{
		{"demo/core", topology.Demo(), beacon.CoreMode, 60, 12 * time.Hour, 0},
		{"demo/intra", topology.Demo(), beacon.IntraMode, 60, 12 * time.Hour, 0},
		{"core40", core40, beacon.CoreMode, 15, long, 0},
		{"scionlab/flaps", topology.SCIONLab(), beacon.CoreMode, 60, 12 * time.Hour, 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, ties := core.NewLockstep(t, core.DefaultParams(5))
			cfg := beacon.DefaultRunConfig(tc.topo, tc.mode, f, tc.store)
			cfg.Duration = tc.duration
			if tc.flaps > 0 {
				end := sim.Time(cfg.Duration)
				var links []topology.LinkID
				for _, l := range tc.topo.Links {
					links = append(links, l.ID)
				}
				cfg.Chaos = chaos.FlapChurn(1, links, tc.flaps, end/8, end-end/8, 40*time.Minute, 3*time.Hour)
			}
			res, err := beacon.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var sent uint64
			for _, srv := range res.Servers {
				sent += srv.Propagated
			}
			t.Logf("%d PCBs propagated; the straight-line oracle followed %d rounding ties", sent, ties())
		})
	}
}
