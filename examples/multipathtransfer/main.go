// Multipath transfer: one large file-sized transfer striped across the k
// disjoint paths SCION hands the endpoint (paper §3: endpoints pick and
// combine paths; capacity aggregates across them). The transfer starts on
// every available path at once — weighted by each path's bottleneck
// capacity — and halfway through, one of the carrying links fails. The
// SCMP revocation reaches the sender within one RTT; the affected path is
// abandoned mid-transfer and its share shifts to the survivors, with no
// pause for re-convergence.
//
// Run with: go run ./examples/multipathtransfer
package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"scionmpr/internal/addr"
	"scionmpr/internal/metrics"
	"scionmpr/internal/sim"
	"scionmpr/internal/topology"
	"scionmpr/internal/traffic"
	"scionmpr/scion"
)

var (
	a6 = addr.MustIA(1, 0xff00_0000_0106)
	b3 = addr.MustIA(2, 0xff00_0000_0203)
)

const transferSize = 256 << 20 // 256 MiB

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "multipathtransfer:", err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	// Full control-plane bootstrap: beaconing, segment registration, path
	// servers. The endpoint in B-3 then looks up its paths to A-6.
	n, err := scion.NewNetwork(topology.Demo(), scion.DefaultOptions())
	if err != nil {
		return err
	}
	eng, err := traffic.NewEngine(traffic.Config{
		Fabric:   n.Fabric(),
		Provider: n.Paths,
		// 1 Gbps on every link direction.
		Links: traffic.NewLinkModel(traffic.UniformCapacity(1.25e8)),
	})
	if err != nil {
		return err
	}

	f := eng.Add(traffic.FlowSpec{ID: 1, Src: b3, Dst: a6, Size: transferSize})

	// Pick the link to fail: the second link of the first path, so the
	// revocation has to travel one hop back to the sender.
	fps, err := n.Paths(b3, a6)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "transfer: %s from %s to %s (%d candidate paths, striping over the best 8)\n",
		metrics.FmtBytes(transferSize), b3, a6, len(fps))
	refs, err := fps[0].LinkRefs(n.Topo)
	if err != nil {
		return err
	}
	target := refs[1].Link

	var revokedAt sim.Time
	eng.OnRevocation = func(_ *traffic.Flow, link topology.LinkID) {
		if link == target.ID && revokedAt == 0 {
			revokedAt = n.Clock().Now()
			fmt.Fprintf(w, "t=%-12v SCMP revocation for link %s arrived; path abandoned at %s/%s\n",
				time.Duration(revokedAt), target, metrics.FmtBytes(float64(f.Sent())),
				metrics.FmtBytes(transferSize))
		}
	}

	// Fail the link once roughly half the transfer is on the wire.
	const failAt = 600 * time.Millisecond
	n.Clock().Schedule(failAt, func() {
		fmt.Fprintf(w, "t=%-12v link %s FAILED mid-transfer\n", failAt, target)
		links := n.Topo.LinksBetween(target.A, target.B)
		for i, l := range links {
			if l.ID == target.ID {
				if _, err := n.FailLink(target.A, target.B, i); err != nil {
					fmt.Fprintln(os.Stderr, "FailLink:", err)
				}
			}
		}
	})

	eng.Run()

	if !f.Done() {
		return fmt.Errorf("transfer did not complete: sent=%d failed=%v", f.Sent(), f.Failed())
	}
	if revokedAt == 0 {
		return fmt.Errorf("the failed link never produced a revocation")
	}

	fmt.Fprintf(w, "\nper-path goodput over the whole transfer (fct %v):\n", f.FCT())
	for i, st := range f.PathStats() {
		status := "survived"
		if st.Revoked {
			status = "REVOKED "
		}
		fmt.Fprintf(w, "  path %d: %d hops, %v one-way, bottleneck %s  carried %8s (%s)  %s\n",
			i, st.Hops, st.Delay, metrics.FmtRate(st.Bottleneck),
			metrics.FmtBytes(float64(st.Sent)),
			metrics.FmtRate(float64(st.Sent)/f.FCT().Seconds()), status)
	}
	fmt.Fprintf(w, "\ntransfer complete: %s in %v (%s aggregate; a single 1 Gbps path needs %v)\n",
		metrics.FmtBytes(float64(f.Sent())), f.FCT(),
		metrics.FmtRate(f.Goodput(sim.Time(f.FCT()))),
		time.Duration(float64(transferSize)/1.25e8*float64(time.Second)).Round(time.Millisecond))
	fmt.Fprintf(w, "failover cost: %s retransmitted, %d path switches, revocation -> abandonment within one RTT\n",
		metrics.FmtBytes(float64(f.Lost())), f.PathSwitches())
	return nil
}
