// Quickstart: the full SCION control-and-data-plane round trip on the
// paper's Figure 1 demo network (3 ISDs, 7 core ASes).
//
// It builds every stage by hand on purpose, so each is visible: the
// other examples get the same world from one scion.NewNetwork call.
//
//  1. Run core and intra-ISD beaconing to discover path segments.
//  2. Register segments at path servers and look them up like an
//     endpoint would (up-segments locally, core- and down-segments from
//     the core path server).
//  3. Combine up + core + down segments into end-to-end paths, including
//     shortcuts and peering shortcuts.
//  4. Authorize a forwarding path (hop-field MACs) and send a packet from
//     ISD 2 (B-3) to ISD 1 (A-6) through the simulated data plane.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"scionmpr/internal/addr"
	"scionmpr/internal/beacon"
	"scionmpr/internal/combinator"
	"scionmpr/internal/core"
	"scionmpr/internal/dataplane"
	"scionmpr/internal/pathsrv"
	"scionmpr/internal/sim"
	"scionmpr/internal/topology"
	"scionmpr/internal/trust"
)

var (
	a1 = addr.MustIA(1, 0xff00_0000_0101)
	a2 = addr.MustIA(1, 0xff00_0000_0102)
	a6 = addr.MustIA(1, 0xff00_0000_0106)
	b2 = addr.MustIA(2, 0xff00_0000_0202)
	b3 = addr.MustIA(2, 0xff00_0000_0203)
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	topo := topology.Demo()
	fmt.Fprintln(w, "topology:", topo.ComputeStats())

	infra, err := trust.NewInfra(topo, trust.Sized)
	if err != nil {
		return err
	}

	// 1. Beaconing: core PCBs among the 7 core ASes, intra-ISD PCBs down
	// each ISD's provider-customer hierarchy.
	beaconRun := func(mode beacon.Mode) (*beacon.RunResult, error) {
		cfg := beacon.DefaultRunConfig(topo, mode, core.NewDiversity(core.DefaultParams(5)), 20)
		cfg.Duration = 2 * time.Hour
		cfg.Infra = infra
		cfg.Verify = true
		return beacon.Run(cfg)
	}
	coreRun, err := beaconRun(beacon.CoreMode)
	if err != nil {
		return err
	}
	intraRun, err := beaconRun(beacon.IntraMode)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "beaconing done: core bytes=%d intra bytes=%d\n",
		coreRun.TotalOverheadBytes(), intraRun.TotalOverheadBytes())

	now := intraRun.End

	// 2. Path servers: B-3 registers its up-segments locally and its
	// down-segments at B-2 (its ISD's core); same for A-6 at A-1/A-2.
	// Registration terminates the stored beacons into path segments, each
	// stored under its (origin, leaf) pair. The source-side path server
	// then performs the three lookups.
	localPS := pathsrv.New(pathsrv.Config{})
	corePSB2 := pathsrv.New(pathsrv.Config{})
	corePSA2 := pathsrv.New(pathsrv.Config{})
	for _, r := range []struct {
		run        *beacon.RunResult
		origin, at addr.IA
		ps         *pathsrv.Service
	}{
		{intraRun, b2, b3, localPS},
		{intraRun, a2, a6, corePSA2},
		{coreRun, a2, b2, corePSB2},
	} {
		segs, err := r.run.Terminate(infra.SignerFor(r.at), r.origin, r.at, nil)
		if err != nil {
			return err
		}
		for _, s := range segs {
			if err := r.ps.Register(now, s); err != nil {
				return err
			}
		}
		r.ps.Publish(now)
	}

	ups, _ := localPS.Lookup(now, b2, b3)
	cores, _ := corePSB2.Lookup(now, a2, b2)
	downs, _ := corePSA2.Lookup(now, a2, a6)
	fmt.Fprintf(w, "lookups: %d up-segments, %d core-segments, %d down-segments\n",
		len(ups), len(cores), len(downs))

	// 3. Combine segments into end-to-end paths.
	paths := combinator.AllPaths(ups, cores, downs)
	if len(paths) == 0 {
		return fmt.Errorf("no end-to-end paths from %s to %s", b3, a6)
	}
	fmt.Fprintf(w, "end-to-end paths %s -> %s: %d\n", b3, a6, len(paths))
	for i, p := range paths {
		if err := p.Check(topo); err != nil {
			return fmt.Errorf("path %d invalid: %w", i, err)
		}
	}
	fmt.Fprintln(w, "  best:", paths[0])

	// 4. Data plane: authorize hop fields and send a packet.
	var s sim.Simulator
	fabric := dataplane.NewFabric(&s, topo, 5*time.Millisecond, sim.NewLinkFaults(topo), infra.ForwardingKey)
	fp, err := dataplane.Authorize(paths[0], infra.ForwardingKey)
	if err != nil {
		return err
	}
	var delivered *dataplane.Packet
	fabric.OnDeliver(a6, func(pkt *dataplane.Packet) { delivered = pkt })
	pkt := &dataplane.Packet{
		Src:     addr.HostIP4(b3, 10, 2, 3, 1),
		Dst:     addr.HostIP4(a6, 10, 1, 6, 1),
		Path:    fp,
		Payload: []byte("hello, path-aware internet"),
	}
	if err := fabric.Inject(pkt); err != nil {
		return err
	}
	s.Run()
	if delivered == nil {
		return fmt.Errorf("packet not delivered")
	}
	fmt.Fprintf(w, "delivered %q from %s to %s over %d hops in %v virtual time\n",
		delivered.Payload, delivered.Src, delivered.Dst, len(fp.Hops), s.Now())
	// A-1 stays untouched: the chosen path is policy-compliant and only
	// crosses the on-path control plane, no global state anywhere.
	fmt.Fprintln(w, "core AS", a1, "forwarded", fabric.Stats().Forwarded, "packets total (stateless PCFS)")
	return nil
}
