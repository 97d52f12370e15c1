// Command pathprobe bootstraps a SCION network through the public API,
// looks up the multi-path set between two ASes, and probes each path with
// a round-trip packet, printing per-path hop sequences and virtual RTTs —
// the application-level path visibility that motivates path-aware
// networking (paper §1).
//
// Usage:
//
//	pathprobe -topo demo -src 2-ff00:0:203 -dst 1-ff00:0:106
//	pathprobe -topo scionlab -src 1-ff00:0:1000 -dst 11-ff00:0:1050
//	pathprobe -topo gen -n 300 -src 1-11 -dst 1-108 -algo baseline
//
// -topo gen carves a single ISD with three core ASes out of an
// n-AS synthetic Internet; it has no default pair, so -src and -dst are
// required.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"scionmpr/scion"
)

// genCores is the ISD core size of -topo gen.
const genCores = 3

func main() {
	var (
		topoKind = flag.String("topo", "demo", "topology: demo | scionlab | gen")
		n        = flag.Int("n", 300, "ASes for -topo gen")
		seed     = flag.Int64("seed", 1, "generator seed")
		srcStr   = flag.String("src", "", "source IA (defaults per topology; required for -topo gen)")
		dstStr   = flag.String("dst", "", "destination IA (defaults per topology; required for -topo gen)")
		algoStr  = flag.String("algo", "diversity", "beaconing algorithm: baseline | diversity")
	)
	flag.Parse()
	if err := run(os.Stdout, *topoKind, *n, *seed, *srcStr, *dstStr, *algoStr); err != nil {
		fmt.Fprintln(os.Stderr, "pathprobe:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, topoKind string, n int, seed int64, srcStr, dstStr, algoStr string) error {
	opts := scion.DefaultOptions()
	switch algoStr {
	case "diversity":
	case "baseline":
		opts.Algorithm = scion.Baseline
	default:
		return fmt.Errorf("unknown algorithm %q (want baseline or diversity)", algoStr)
	}
	var topo *scion.Topology
	var src, dst scion.IA
	switch topoKind {
	case "demo":
		topo = scion.DemoTopology()
		src = scion.MustIA(2, 0xff00_0000_0203)
		dst = scion.MustIA(1, 0xff00_0000_0106)
	case "scionlab":
		topo = scion.SCIONLabTopology()
		src = scion.MustIA(1, 0xff00_0000_1000)
		dst = scion.MustIA(11, 0xff00_0000_1050)
	case "gen":
		var err error
		topo, err = scion.GenerateISDTopology(n, 8, genCores, seed)
		if err != nil {
			return err
		}
		if srcStr == "" || dstStr == "" {
			return fmt.Errorf("-topo gen requires -src and -dst")
		}
	default:
		return fmt.Errorf("unknown topology %q", topoKind)
	}
	var err error
	if srcStr != "" {
		if src, err = scion.ParseIA(srcStr); err != nil {
			return err
		}
	}
	if dstStr != "" {
		if dst, err = scion.ParseIA(dstStr); err != nil {
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
		// Probe: send and time the round trip on this specific path.
		sentAt := net.Clock().Now()
		var rtt time.Duration
		srcHost.OnReceive(func(scion.HostAddr, []byte) {
			rtt = time.Duration(net.Clock().Now() - sentAt)
		})
		// Temporarily pin the endpoint to this path by seeding only it.
		if err := probeOn(net, srcHost, dstHost, p); err != nil {
			fmt.Fprintf(w, "  [%d] %v  (probe failed: %v)\n", i, hops, err)
			continue
		}
		net.Run()
		fmt.Fprintf(w, "  [%d] hops=%d rtt=%-8v mtu=%-5d %v\n", i, len(p.Hops), rtt, p.MTU, hops)
	}
	return nil
}

// probeOn injects one probe over a specific forwarding path.
func probeOn(net *scion.Network, src, dst *scion.Host, p *scion.FwdPath) error {
	return net.SendOn(p, src.Addr, dst.Addr, []byte("probe"))
}
