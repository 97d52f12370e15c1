package topology_test

import (
	"testing"

	"scionmpr/internal/addr"
	"scionmpr/internal/topology"
)

// reachable returns the set of ASes reachable from src over any link,
// ignoring routing policy.
func reachable(g *topology.Graph, src addr.IA) map[addr.IA]bool {
	seen := map[addr.IA]bool{src: true}
	for queue := []addr.IA{src}; len(queue) > 0; queue = queue[1:] {
		for _, nb := range g.Neighbors(queue[0]) {
			if !seen[nb] {
				seen[nb] = true
				queue = append(queue, nb)
			}
		}
	}
	return seen
}

// Structural properties of generated topologies that the experiments
// rely on, checked across seeds.
func TestGeneratedTopologyConnectivity(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		p := topology.DefaultGenParams()
		p.NumASes = 300
		p.Tier1 = 8
		p.Seed = seed
		g, err := topology.Generate(p)
		if err != nil {
			t.Fatal(err)
		}

		// The whole Internet is one connected component (everyone buys
		// transit that chains up to the tier-1 clique).
		reach := reachable(g, addr.IA{ISD: 1, AS: 1})
		if len(reach) != g.NumASes() {
			t.Errorf("seed %d: only %d of %d ASes reachable", seed, len(reach), g.NumASes())
		}

		// Extracted cores stay connected enough for beaconing: every
		// core AS reaches every other.
		coreT, err := topology.ExtractCore(g, 30)
		if err != nil {
			t.Fatal(err)
		}
		cores := coreT.CoreIAs()
		coreReach := reachable(coreT, cores[0])
		if len(coreReach) != len(cores) {
			t.Errorf("seed %d: core network disconnected (%d of %d)", seed, len(coreReach), len(cores))
		}

		// Valley-free reachability exists: every stub has a provider
		// chain to some tier-1 (checked transitively via customer cones).
		total := 0
		for i := 1; i <= p.Tier1; i++ {
			total += g.CustomerCone(addr.IA{ISD: 1, AS: addr.AS(i)})
		}
		if total < g.NumASes() {
			t.Errorf("seed %d: tier-1 cones cover only %d of %d ASes", seed, total, g.NumASes())
		}
	}
}

func TestISDConstructionSubsetInvariants(t *testing.T) {
	p := topology.DefaultGenParams()
	p.NumASes = 300
	p.Tier1 = 8
	g, err := topology.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	isd, err := topology.BuildISD(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Every non-core member must be reachable from a core AS by walking
	// customer links only (the intra-ISD beaconing invariant).
	reached := map[addr.IA]bool{}
	var stack []addr.IA
	for _, c := range isd.CoreIAs() {
		reached[c] = true
		stack = append(stack, c)
	}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, cust := range isd.Customers(cur) {
			if !reached[cust] {
				reached[cust] = true
				stack = append(stack, cust)
			}
		}
	}
	for _, ia := range isd.IAs() {
		if !reached[ia] {
			t.Errorf("%s unreachable via provider-customer links from the ISD core", ia)
		}
	}
}
