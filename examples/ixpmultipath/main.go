// IXP multipath: the enhanced IXP deployment model of paper §3.5 /
// Figure 4. Instead of acting as an opaque "big switch", the IXP exposes
// its internal topology in the SCION control plane: each IXP site is its
// own SCION AS and the redundant inter-site links become visible,
// selectable inter-domain links. Customers then use SCION multipath to
// route through the IXP fabric and fail over between sites instantly.
//
// Topology (cores IXP-1..IXP-4 as the IXP sites, Figure 4 shape):
//
//	AS1 -- Site1 ===== Site2 -- AS2
//	        |  \     /  |
//	        |   Site3   |        (redundant inter-site links)
//	        |  /     \  |
//	AS3 -- Site3      Site4 -- AS4
//
// Run with: go run ./examples/ixpmultipath
package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"scionmpr/internal/graphalg"
	"scionmpr/scion"
)

func ia(as uint64) scion.IA { return scion.MustIA(1, scion.AS(as)) }

// buildIXP constructs the Figure 4 network: 4 IXP site ASes (core,
// fully exposed fabric with parallel inter-site links) and 4 customer
// ASes, one per site.
func buildIXP() *scion.Topology {
	g := scion.NewTopology()
	sites := make([]scion.IA, 4)
	for i := range sites {
		sites[i] = ia(uint64(0x100 + i + 1))
		g.AddAS(sites[i], true)
	}
	customers := make([]scion.IA, 4)
	for i := range customers {
		customers[i] = ia(uint64(0x200 + i + 1))
		g.AddAS(customers[i], false)
	}
	// Redundant site mesh: ring plus both diagonals, one edge doubled.
	g.MustConnect(sites[0], sites[1], scion.Core)
	g.MustConnect(sites[0], sites[1], scion.Core) // parallel link
	g.MustConnect(sites[1], sites[3], scion.Core)
	g.MustConnect(sites[3], sites[2], scion.Core)
	g.MustConnect(sites[2], sites[0], scion.Core)
	g.MustConnect(sites[0], sites[3], scion.Core)
	g.MustConnect(sites[1], sites[2], scion.Core)
	// Customers attach to their site redundantly (Figure 4 shows two
	// attachment circuits per customer).
	for i := range customers {
		g.MustConnect(sites[i], customers[i], scion.ProviderOf)
		g.MustConnect(sites[i], customers[i], scion.ProviderOf)
	}
	return g
}

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ixpmultipath:", err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	topo := buildIXP()
	fmt.Fprintln(w, "IXP topology:", topo.ComputeStats())

	// Control plane: core beaconing across the exposed IXP fabric plus
	// intra-ISD beaconing to the customers; data-plane links of 1 ms.
	opts := scion.DefaultOptions()
	opts.StoreLimit = 30
	opts.LinkDelay = time.Millisecond
	n, err := scion.NewNetwork(topo, opts)
	if err != nil {
		return err
	}

	src, dst := ia(0x201), ia(0x204) // customer at Site1 -> customer at Site4
	site1, site4 := ia(0x101), ia(0x104)
	paths, err := n.Paths(src, dst)
	if err != nil {
		return fmt.Errorf("no paths through the IXP fabric: %w", err)
	}
	fmt.Fprintf(w, "paths %s -> %s through the exposed IXP fabric: %d\n", src, dst, len(paths))

	// Multipath capacity through the fabric (Figure 6b metric, applied
	// to the IXP): how many site-to-site links can carry traffic in
	// parallel, versus a "big switch" single path.
	var pls [][]graphalg.PathLink
	for _, p := range paths {
		refs, err := p.LinkRefs(topo)
		if err != nil {
			return err
		}
		var pl []graphalg.PathLink
		for _, r := range refs {
			pl = append(pl, graphalg.PathLink{A: r.Link.A, B: r.Link.B, ID: r.Link.ID})
		}
		pls = append(pls, pl)
	}
	capacity := graphalg.UnionFlow(pls, src, dst)
	optimum := graphalg.OptimalFlow(topo, src, dst)
	fmt.Fprintf(w, "multipath capacity via exposed fabric: %d link-multiples (optimum %d, big-switch 1)\n",
		capacity, optimum)

	// Fast failover between IXP sites: stream packets, kill the direct
	// Site1-Site4 inter-site link mid-stream.
	sender, err := n.Host(src, 10, 1, 0, 1)
	if err != nil {
		return err
	}
	receiver, err := n.Host(dst, 10, 4, 0, 1)
	if err != nil {
		return err
	}
	delivered := 0
	receiver.OnReceive(func(scion.HostAddr, []byte) { delivered++ })
	s := n.Clock()
	direct := topo.LinksBetween(site1, site4)[0]
	for i := 0; i < 20; i++ {
		s.Schedule(time.Duration(i)*5*time.Millisecond, func() {
			_ = sender.Send(receiver.Addr, []byte("via-ixp"))
		})
	}
	s.Schedule(42*time.Millisecond, func() {
		fmt.Fprintf(w, "t=%v  inter-site link %s FAILED\n", s.Now(), direct)
		n.Fabric().FailLink(direct.ID)
	})
	n.Run()
	_, failovers := sender.Stats()
	fmt.Fprintf(w, "streamed 20 packets: delivered=%d failovers=%d\n", delivered, failovers)
	if failovers > 0 {
		fmt.Fprintln(w, "traffic re-routed over another IXP site without any help from the IXP fabric")
	} else {
		fmt.Fprintln(w, "active path did not traverse the failed link; redundancy held")
	}
	return nil
}
