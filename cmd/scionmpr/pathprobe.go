package main

import (
	"flag"
	"fmt"
	"io"
	"time"

	"scionmpr/internal/topology"
	"scionmpr/scion"
)

// pathprobe bootstraps a SCION network through the public API, looks up
// the multi-path set between two ASes, and probes each path with a
// round-trip packet, printing per-path hop sequences and virtual RTTs —
// the application-level path visibility that motivates path-aware
// networking (paper §1).
//
//	scionmpr pathprobe -topo demo -src 2-ff00:0:203 -dst 1-ff00:0:106
//	scionmpr pathprobe -topo scionlab -src 1-ff00:0:1000 -dst 11-ff00:0:1050
//	scionmpr pathprobe -topo gen -n 300 -src 1-11 -dst 1-108 -algo baseline
//
// -topo gen carves a single ISD with three core ASes out of an n-AS
// synthetic Internet; it has no default pair, so -src and -dst are
// required.
func pathprobe(fs *flag.FlagSet) func(io.Writer) error {
	g := graph{tier1: 8}
	fs.StringVar(&g.kind, "topo", "demo", "topology: demo | scionlab | gen")
	fs.IntVar(&g.n, "n", 300, "ASes for -topo gen")
	fs.Int64Var(&g.seed, "seed", 1, "generator seed")
	var (
		srcStr = fs.String("src", "", "source IA (defaults per topology; required for -topo gen)")
		dstStr = fs.String("dst", "", "destination IA (defaults per topology; required for -topo gen)")
		algo   = fs.String("algo", "diversity", "beaconing algorithm: baseline | diversity")
	)
	return func(w io.Writer) error {
		opts := scion.DefaultOptions()
		var err error
		if opts.Algorithm, err = algorithm(*algo); err != nil {
			return err
		}
		topo, err := g.build()
		if err != nil {
			return err
		}
		var src, dst scion.IA
		switch g.kind {
		case "demo":
			src = scion.MustIA(2, 0xff00_0000_0203)
			dst = scion.MustIA(1, 0xff00_0000_0106)
		case "scionlab":
			src = scion.MustIA(1, 0xff00_0000_1000)
			dst = scion.MustIA(11, 0xff00_0000_1050)
		case "gen":
			if topo, err = topology.BuildISD(topo, 3); err != nil {
				return err
			}
			if *srcStr == "" || *dstStr == "" {
				return fmt.Errorf("-topo gen requires -src and -dst")
			}
		}
		if *srcStr != "" {
			if src, err = scion.ParseIA(*srcStr); err != nil {
				return err
			}
		}
		if *dstStr != "" {
			if dst, err = scion.ParseIA(*dstStr); err != nil {
				return err
			}
		}

		start := time.Now()
		net, err := scion.NewNetwork(topo, opts)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "bootstrapped %d ASes in %v (control plane: %d bytes)\n",
			net.Topo.NumASes(), time.Since(start).Round(time.Millisecond), net.ControlPlaneBytes())

		paths, err := net.Paths(src, dst)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%d paths %s -> %s:\n", len(paths), src, dst)

		srcHost, err := net.Host(src, 10, 0, 0, 1)
		if err != nil {
			return err
		}
		dstHost, err := net.Host(dst, 10, 0, 0, 2)
		if err != nil {
			return err
		}
		// Echo responder: bounce every probe straight back.
		dstHost.OnReceive(func(from scion.HostAddr, payload []byte) {
			_ = dstHost.Send(from, payload)
		})
		for i, p := range paths {
			var hops []scion.IA
			for _, h := range p.Hops {
				hops = append(hops, h.Hop.IA)
			}
			// Probe: send on this specific path and time the round trip.
			sentAt := net.Clock().Now()
			var rtt time.Duration
			srcHost.OnReceive(func(scion.HostAddr, []byte) {
				rtt = time.Duration(net.Clock().Now() - sentAt)
			})
			if err := net.SendOn(p, srcHost.Addr, dstHost.Addr, []byte("probe")); err != nil {
				fmt.Fprintf(w, "  [%d] %v  (probe failed: %v)\n", i, hops, err)
				continue
			}
			net.Run()
			fmt.Fprintf(w, "  [%d] hops=%d rtt=%-8v mtu=%-5d %v\n", i, len(p.Hops), rtt, p.MTU, hops)
		}
		return nil
	}
}
