package beacon

import (
	"testing"
	"time"

	"scionmpr/internal/addr"
	"scionmpr/internal/core"
	"scionmpr/internal/topology"
)

// System-wide invariants checked over a full beaconing run on a generated
// topology: stores respect their per-origin limits, no stored beacon
// contains a loop or a foreign-mode relationship violation, every stored
// beacon's links resolve against the topology, and all disseminated path
// sets stay within the optimum.
func TestBeaconingInvariants(t *testing.T) {
	p := topology.DefaultGenParams()
	p.NumASes = 150
	p.Tier1 = 6
	full, err := topology.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	coreTopo, err := topology.ExtractCore(full, 20)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		factory core.Factory
	}{
		{"baseline", core.NewBaseline(5)},
		{"diversity", core.NewDiversity(core.DefaultParams(5))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultRunConfig(coreTopo, CoreMode, tc.factory, 15)
			cfg.Duration = 2 * time.Hour
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for ia, srv := range res.Servers {
				store := srv.Store()
				for _, origin := range store.Origins() {
					entries := store.Entries(res.End, origin)
					if cfg.StoreLimit > 0 && len(entries) > cfg.StoreLimit {
						t.Errorf("%s: %d beacons for %s exceed limit %d", ia, len(entries), origin, cfg.StoreLimit)
					}
					for _, e := range entries {
						// No loops.
						seen := map[addr.IA]bool{}
						for _, hop := range e.PCB.IAs() {
							if seen[hop] {
								t.Fatalf("%s: loop in stored beacon %v", ia, e.PCB)
							}
							seen[hop] = true
						}
						if seen[ia] {
							t.Fatalf("%s: stored beacon already contains the local AS", ia)
						}
						// Origin consistency.
						if e.PCB.Origin() != origin {
							t.Fatalf("%s: beacon filed under wrong origin", ia)
						}
						// Every link resolves and is a core link.
						for _, lk := range e.PCB.Links() {
							l := coreTopo.LinkByIf(lk.IA, lk.If)
							if l == nil {
								t.Fatalf("%s: unresolvable link %v", ia, lk)
							}
							if l.Rel != topology.Core {
								t.Fatalf("%s: non-core link %v in core beacon", ia, l)
							}
						}
						// Valid at end time (Entries filters expired).
						if e.PCB.Expired(res.End) {
							t.Fatalf("%s: expired beacon returned", ia)
						}
					}
				}
			}
		})
	}
}

// Intra-ISD invariant: stored beacons strictly descend the provider
// hierarchy (every link is provider-to-customer in beacon direction).
func TestIntraISDBeaconsDescendHierarchy(t *testing.T) {
	p := topology.DefaultGenParams()
	p.NumASes = 150
	p.Tier1 = 6
	full, err := topology.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	isd, err := topology.BuildISD(full, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultRunConfig(isd, IntraMode, core.NewBaseline(5), 10)
	cfg.Duration = 2 * time.Hour
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, srv := range res.Servers {
		store := srv.Store()
		for _, origin := range store.Origins() {
			for _, e := range store.Entries(res.End, origin) {
				for _, lk := range e.PCB.Links() {
					l := isd.LinkByIf(lk.IA, lk.If)
					if l == nil {
						t.Fatal("unresolvable intra-ISD link")
					}
					// Beacon direction: upstream side lk.IA must be the
					// provider (l.A for ProviderOf links) or a core AS
					// (first hop off the core).
					if l.Rel == topology.ProviderOf && l.A != lk.IA {
						t.Fatalf("beacon climbed up a customer link: %v via %v", e.PCB, l)
					}
					if l.Rel == topology.PeerOf {
						t.Fatalf("beacon traversed a peering link: %v", e.PCB)
					}
					checked++
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no links checked")
	}
}
