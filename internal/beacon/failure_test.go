package beacon

import (
	"testing"
	"time"

	"scionmpr/internal/addr"
	"scionmpr/internal/chaos"
	"scionmpr/internal/core"
	"scionmpr/internal/seg"
	"scionmpr/internal/sim"
	"scionmpr/internal/topology"
)

// outage is a chaos schedule that fails link at `at` and heals it `down`
// later: the engine fails the link on the control network and revokes it
// at every beacon server.
func outage(link *topology.Link, at, down time.Duration) *chaos.Schedule {
	return &chaos.Schedule{Events: []chaos.Event{
		{Kind: chaos.Flap, Link: link.ID, At: sim.Time(at), Down: down},
	}}
}

// A link failure halfway through the run: beacons must stop crossing the
// failed link, revocation must purge it from every store, and the
// network must re-disseminate alternatives so connectivity survives
// (topology remains connected without the link).
func TestLiveLinkFailureRecovery(t *testing.T) {
	demo := topology.Demo()
	keep := map[addr.IA]bool{}
	for _, ia := range demo.CoreIAs() {
		keep[ia] = true
	}
	coreTopo := demo.Subgraph(keep)
	a1 := addr.MustIA(1, 0xff00_0000_0101)
	b1 := addr.MustIA(2, 0xff00_0000_0201)
	failLink := coreTopo.LinksBetween(a1, b1)[0]

	for _, tc := range []struct {
		name    string
		factory core.Factory
	}{
		{"baseline", core.NewBaseline(5)},
		{"diversity", core.NewDiversity(core.DefaultParams(5))},
		{"latency", core.NewLatencyAware(5, core.UniformLatency(time.Millisecond))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultRunConfig(coreTopo, CoreMode, tc.factory, 20)
			cfg.Duration = 6 * time.Hour
			// Heals a minute after the last interval's beacons landed, so
			// nothing crosses it again within the run.
			cfg.Chaos = outage(failLink, 3*time.Hour, 3*time.Hour+time.Minute)
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Net.DroppedOnFailedLinks == 0 {
				t.Error("no beacons were dropped on the failed link (nothing was flowing?)")
			}
			// No stored beacon may still traverse the failed link: the
			// revocation purged existing ones and the dead link carried
			// nothing new.
			for ia, srv := range res.Servers {
				for _, origin := range srv.Store().Origins() {
					for _, e := range srv.Store().Entries(res.End, origin) {
						for _, lk := range e.PCB.Links() {
							l := coreTopo.LinkByIf(lk.IA, lk.If)
							if l != nil && l.ID == failLink.ID {
								t.Fatalf("%s still stores a beacon over the failed link", ia)
							}
						}
					}
				}
			}
			// Connectivity survives: every pair still has paths.
			cores := coreTopo.CoreIAs()
			for _, src := range cores {
				for _, dst := range cores {
					if src != dst && len(res.PathSet(src, dst)) == 0 {
						t.Errorf("lost connectivity %s -> %s after failure", src, dst)
					}
				}
			}
		})
	}
}

// Revoking selector state matters: after a failure, the diversity
// algorithm clears Sent-PCB records and rolls back link counters, so
// paths over the surviving links regain diversity headroom.
func TestDiversityRevokeClearsSentState(t *testing.T) {
	neighbor := addr.MustIA(1, 200)
	d := core.NewDiversity(core.DefaultParams(5))(addr.MustIA(1, 1)).(*core.Diversity)
	p := mkPCB(t, org, 0, 6*hour, [3]uint64{100, 0, 1}, [3]uint64{2, 1, 2})

	if n := len(d.Select(0, org, neighbor, []addr.IfID{9}, []*seg.PCB{p})); n != 1 {
		t.Fatal("first send failed")
	}
	if n := len(d.Select(10*sim.Time(time.Minute), org, neighbor, []addr.IfID{9}, []*seg.PCB{p})); n != 0 {
		t.Fatal("immediate resend not suppressed")
	}
	// The path used link 1-100#1; revoking it clears the record and the
	// counters, so the (re-offered) path is treated as fresh again.
	d.Revoke(seg.LinkKey{IA: addr.MustIA(1, 100), If: 1})
	if c := d.HistoryCounter(org, neighbor, seg.LinkKey{IA: addr.MustIA(1, 100), If: 1}); c != 0 {
		t.Errorf("counter after revoke = %d, want 0", c)
	}
	if n := len(d.Select(20*sim.Time(time.Minute), org, neighbor, []addr.IfID{9}, []*seg.PCB{p})); n != 1 {
		t.Error("path not re-sent after revocation")
	}
	// Revoking an unknown link is a no-op.
	d.Revoke(seg.LinkKey{IA: addr.MustIA(9, 9), If: 1})
}

// TestLinkRecoveryRepopulatesStores is the reinstatement half of the
// failure reaction: after the failed link heals, neighbors re-propagate
// over it at their next interval and beacons traversing it reappear in
// the stores — soft revocation state does not outlive the outage.
func TestLinkRecoveryRepopulatesStores(t *testing.T) {
	demo := topology.Demo()
	keep := map[addr.IA]bool{}
	for _, ia := range demo.CoreIAs() {
		keep[ia] = true
	}
	coreTopo := demo.Subgraph(keep)
	a1 := addr.MustIA(1, 0xff00_0000_0101)
	b1 := addr.MustIA(2, 0xff00_0000_0201)
	failLink := coreTopo.LinksBetween(a1, b1)[0]

	segsOverLink := func(res *RunResult) int {
		n := 0
		for _, srv := range res.Servers {
			for _, origin := range srv.Store().Origins() {
				for _, e := range srv.Store().Entries(res.End, origin) {
					for _, lk := range e.PCB.Links() {
						l := coreTopo.LinkByIf(lk.IA, lk.If)
						if l != nil && l.ID == failLink.ID {
							n++
						}
					}
				}
			}
		}
		return n
	}
	for _, tc := range []struct {
		name    string
		factory core.Factory
	}{
		{"baseline", core.NewBaseline(5)},
		{"diversity", core.NewDiversity(core.DefaultParams(5))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultRunConfig(coreTopo, CoreMode, tc.factory, 20)
			cfg.Duration = 6 * time.Hour
			cfg.Chaos = outage(failLink, 2*time.Hour, time.Hour)
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Net.DroppedOnFailedLinks == 0 {
				t.Error("the outage dropped nothing — failure not injected?")
			}
			if n := segsOverLink(res); n == 0 {
				t.Error("no stored beacon traverses the healed link: reinstatement failed")
			}
		})
	}
}
