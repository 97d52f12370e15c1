// SIG gateway: the bank deployment of paper §3.1 and §3.4. Branch
// offices with ordinary IP hosts (no SCION stack) sit behind customer-
// premise SIGs; the data centers behind another SIG. Legacy IPv4 packets
// are encapsulated into SCION packets, tunneled across the demo network,
// and decapsulated at the far side — "transparent IP-to-SCION
// conversion", Case b of Figure 3.
//
// It also prints the connection-count economics that motivated the first
// deployment: N branches x K data centers need N*K leased lines but only
// N+K SCION connections.
//
// Run with: go run ./examples/siggateway
package main

import (
	"fmt"
	"io"
	"net/netip"
	"os"
	"sort"

	"scionmpr/internal/sig"
	"scionmpr/scion"
)

var (
	// Branch ASes (bank offices) and the data-center AS.
	branchASes = []scion.IA{
		scion.MustIA(1, 0xff00_0000_0103), // A-3
		scion.MustIA(1, 0xff00_0000_0106), // A-6
	}
	dcAS = scion.MustIA(1, 0xff00_0000_0104) // A-4
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "siggateway:", err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	// Control plane: intra-ISD beaconing for up/down segments, core
	// beaconing for the A-1 <-> A-2 core segments (a branch homed at A-1
	// reaching a data center homed at A-2 needs all three).
	opts := scion.DefaultOptions()
	opts.StoreLimit = 20
	n, err := scion.NewNetwork(scion.DemoTopology(), opts)
	if err != nil {
		return err
	}

	// SIGs on the network. The ASMap assigns one /16 per site.
	var asmap sig.ASMap
	asmap.Add(netip.MustParsePrefix("10.3.0.0/16"), branchASes[0])
	asmap.Add(netip.MustParsePrefix("10.6.0.0/16"), branchASes[1])
	asmap.Add(netip.MustParsePrefix("10.4.0.0/16"), dcAS)

	newGW := func(ia scion.IA, b byte, mode sig.Mode) *sig.Gateway {
		return sig.NewGateway(n, scion.HostIP4(ia, 10, b, 0, 1), mode, &asmap,
			func(dst scion.IA) []*scion.FwdPath {
				paths, _ := n.Paths(ia, dst)
				return paths
			})
	}
	branchGWs := []*sig.Gateway{newGW(branchASes[0], 3, sig.CPE), newGW(branchASes[1], 6, sig.CPE)}
	dcGW := newGW(dcAS, 4, sig.CarrierGrade)

	received := map[string]int{}
	dcGW.OnDeliverIP(func(p sig.IPPacket) { received[p.Src.String()]++ })

	// Each branch host sends 3 legacy IP packets to the DC.
	for bi, gw := range branchGWs {
		for host := 1; host <= 3; host++ {
			pkt := sig.IPPacket{
				Src:     netip.AddrFrom4([4]byte{10, byte(3 + bi*3), 0, byte(host)}),
				Dst:     netip.MustParseAddr("10.4.0.99"),
				Payload: []byte(fmt.Sprintf("transaction-%d-%d", bi, host)),
			}
			if err := gw.HandleIP(pkt); err != nil {
				return err
			}
		}
	}
	n.Run()

	var srcs []string
	for src := range received {
		srcs = append(srcs, src)
	}
	sort.Strings(srcs)
	total := 0
	for _, src := range srcs {
		fmt.Fprintf(w, "data center received %d packets from %s\n", received[src], src)
		total += received[src]
	}
	if total != 6 {
		return fmt.Errorf("delivered %d of 6 packets", total)
	}
	for _, gw := range branchGWs {
		fmt.Fprintf(w, "branch SIG %s: encapsulated=%d (per-destination: %v)\n",
			gw.Local, gw.Encapsulated, gw.PerDstAS)
	}
	fmt.Fprintf(w, "DC SIG %s (%s): decapsulated=%d\n", dcGW.Local, dcGW.Mode, dcGW.Decapsulated)

	// The §3.1 economics.
	branches, dcs := 20, 3
	leased, scionConns := sig.ConnectionsSaved(branches, dcs)
	fmt.Fprintf(w, "\nleased-line economics (§3.1): %d branches x %d data centers\n", branches, dcs)
	fmt.Fprintf(w, "  leased lines needed: %d\n", leased)
	fmt.Fprintf(w, "  SCION connections:   %d (%.0f%% fewer; redundancy widens the gap)\n",
		scionConns, 100*(1-float64(scionConns)/float64(leased)))
	return nil
}
