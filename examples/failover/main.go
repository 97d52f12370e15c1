// Failover: the leased-line replacement story of paper §3.1 — a bank
// branch (host in A-6) streams traffic to a data center (host in A-4)
// over SCION. Mid-stream, the active path's first inter-domain link
// fails. The border router observing the failure emits an SCMP
// revocation; the endpoint switches to a disjoint path as soon as the
// message arrives — no route re-convergence, sub-RTT failover.
//
// Run with: go run ./examples/failover
package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"scionmpr/internal/dataplane"
	"scionmpr/internal/sim"
	"scionmpr/scion"
)

var (
	a4 = scion.MustIA(1, 0xff00_0000_0104)
	a6 = scion.MustIA(1, 0xff00_0000_0106)
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "failover:", err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	// Control plane: beaconing on the Figure 1 network, segments
	// registered at the path servers.
	opts := scion.DefaultOptions()
	opts.StoreLimit = 20
	n, err := scion.NewNetwork(scion.DemoTopology(), opts)
	if err != nil {
		return err
	}
	paths, err := n.Paths(a6, a4)
	if err != nil {
		return err
	}
	if len(paths) < 2 {
		return fmt.Errorf("need at least 2 candidate paths, got %d", len(paths))
	}
	fmt.Fprintf(w, "candidate paths %s -> %s: %d\n", a6, a4, len(paths))
	for _, p := range paths {
		fmt.Fprint(w, "  ")
		for _, h := range p.Hops {
			fmt.Fprint(w, " ", h.Hop)
		}
		fmt.Fprintln(w)
	}

	// Data plane: the branch streams to the data center.
	branch, err := n.Host(a6, 10, 6, 0, 1)
	if err != nil {
		return err
	}
	dc, err := n.Host(a4, 10, 4, 0, 1)
	if err != nil {
		return err
	}
	delivered := 0
	dc.OnReceive(func(scion.HostAddr, []byte) { delivered++ })
	s := n.Clock()
	var revokedAt, recoveredAt sim.Time
	n.Fabric().AddSCMP(a6, func(m *dataplane.SCMP) {
		revokedAt = s.Now()
		fmt.Fprintf(w, "t=%v  SCMP revocation received for link %s; switching path\n", s.Now(), m.Link)
	})

	// Stream one packet every 10 ms; at t=95 ms the first link of the
	// active path (the shortest, paths[0]) fails.
	refs, err := paths[0].LinkRefs(n.Topo)
	if err != nil {
		return err
	}
	failLink := refs[0].Link
	fmt.Fprintf(w, "active path: %d hops; will fail link %s at t=95ms\n", len(paths[0].Hops), failLink)

	for i := 0; i < 40; i++ {
		s.Schedule(time.Duration(i)*10*time.Millisecond, func() {
			_ = branch.Send(dc.Addr, []byte{byte(i)})
		})
	}
	s.Schedule(95*time.Millisecond, func() {
		fmt.Fprintf(w, "t=%v  link %s FAILED\n", s.Now(), failLink)
		n.Fabric().FailLink(failLink.ID)
	})
	// Observe recovery: first delivery after the revocation.
	prevDelivered := 0
	s.Every(0, time.Millisecond, sim.Time(600*time.Millisecond), func(now sim.Time) {
		if revokedAt > 0 && recoveredAt == 0 && delivered > prevDelivered {
			recoveredAt = now
		}
		prevDelivered = delivered
	})
	n.Run()

	sent, failovers := branch.Stats()
	fmt.Fprintf(w, "\nresults: sent=%d delivered=%d dropped-at-failed-link=%d failovers=%d\n",
		sent, delivered, n.Fabric().Stats().Revocations, failovers)
	if failovers == 0 {
		return fmt.Errorf("no failover happened")
	}
	fmt.Fprintf(w, "revocation received at t=%v; traffic restored at t=%v (delta %v)\n",
		revokedAt, recoveredAt, time.Duration(recoveredAt-revokedAt))
	fmt.Fprintln(w, "the new path avoids the failed link; no BGP-style re-convergence was needed")
	return nil
}
