// Leased line replacement using only the public API (package scion): a
// bank connects a branch to its data center over the SCION network
// instead of a leased line (paper §3.1). The example bootstraps a full
// network in three calls, streams transactions, kills the primary link
// mid-stream, and shows the connection surviving on a disjoint path —
// the availability property customers bought leased lines for.
//
// Run with: go run ./examples/leasedline
package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"scionmpr/scion"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "leasedline:", err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	// 1. Network bootstrap: the Figure 1 topology, diversity beaconing.
	net, err := scion.NewNetwork(scion.DemoTopology(), scion.DefaultOptions())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "network bootstrapped: %d ASes, control-plane cost %d bytes\n",
		net.Topo.NumASes(), net.ControlPlaneBytes())

	branchIA := scion.MustIA(1, 0xff00_0000_0106) // A-6
	dcIA := scion.MustIA(1, 0xff00_0000_0104)     // A-4

	// 2. Endpoints.
	branch, err := net.Host(branchIA, 10, 6, 0, 1)
	if err != nil {
		return err
	}
	dc, err := net.Host(dcIA, 10, 4, 0, 1)
	if err != nil {
		return err
	}
	received := 0
	dc.OnReceive(func(from scion.HostAddr, payload []byte) {
		received++
	})

	// Path diversity available to the branch:
	paths, err := net.Paths(branchIA, dcIA)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "branch -> data center: %d paths available (multi-path)\n", len(paths))

	// 3. Stream 30 "transactions", one every 10 ms; at t=85ms the primary
	// link fails.
	for i := 0; i < 30; i++ {
		i := i
		net.Clock().Schedule(time.Duration(i)*10*time.Millisecond, func() {
			_ = branch.Send(dc.Addr, []byte(fmt.Sprintf("txn-%03d", i)))
		})
	}
	var failedAt time.Duration
	net.Clock().Schedule(85*time.Millisecond, func() {
		hops := branch.ActivePathHops()
		if len(hops) < 2 {
			return
		}
		link, err := net.FailLink(hops[0], hops[1], 0)
		if err == nil {
			failedAt = time.Duration(net.Clock().Now())
			fmt.Fprintf(w, "t=%v  primary link %s failed\n", failedAt, link)
		}
	})
	net.Run()

	sent, failovers := branch.Stats()
	fmt.Fprintf(w, "sent=%d received=%d failovers=%d\n", sent, received, failovers)
	if failovers == 0 {
		return fmt.Errorf("expected a failover")
	}
	lost := int(sent) - received
	fmt.Fprintf(w, "transactions lost during failover: %d (no re-convergence, no operator action)\n", lost)
	fmt.Fprintln(w, "the SCION connection replaced the leased line and survived the cut")
	return nil
}
