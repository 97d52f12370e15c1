package experiments

import (
	"fmt"
	"io"
	"time"

	"scionmpr/internal/addr"
	"scionmpr/internal/bgp"
	"scionmpr/internal/dataplane"
	"scionmpr/internal/graphalg"
	"scionmpr/internal/sim"
	"scionmpr/scion"
)

// ConvergenceResult quantifies the paper's §5 remark that SCION has no
// convergence phase: after a failure, a BGP network needs route
// re-convergence before connectivity is restored, while a SCION endpoint
// merely waits for one SCMP round trip and switches to an already-known
// disjoint path.
type ConvergenceResult struct {
	// BGPInitial is the virtual time BGP needs to converge from cold
	// start on the topology.
	BGPInitial time.Duration
	// BGPAfterWithdraw is the additional virtual time to re-converge
	// after a prefix withdrawal.
	BGPAfterWithdraw time.Duration
	// SCIONFailover is the virtual time between a link failure hitting
	// an active path and the first delivery of a packet sent after it,
	// on an alternative path.
	SCIONFailover time.Duration
	// SCIONPathsReady reports that the packet sent at time zero, on the
	// path set looked up at time zero, was delivered: disseminated paths
	// are usable without any waiting (stable on dissemination).
	SCIONPathsReady bool
}

// RunConvergence measures both sides on a small topology.
func RunConvergence(s Scale) (*ConvergenceResult, error) {
	e, err := newEnv(s)
	if err != nil {
		return nil, err
	}
	res := &ConvergenceResult{}

	// BGP cold-start convergence on the core members' subgraph.
	bgpRes, err := bgp.Run(bgp.DefaultConfig(e.coreSub))
	if err != nil {
		return nil, err
	}
	res.BGPInitial = time.Duration(bgpRes.End)
	// Withdraw the highest-degree AS's prefix and measure re-convergence.
	victim := e.monitors()[0]
	before := bgpRes.End
	bgpRes.WithdrawPrefix(victim)
	res.BGPAfterWithdraw = time.Duration(bgpRes.End - before)

	// SCION: bootstrap, pick a pair whose first lookup returns >= 2
	// link-disjoint paths, stream packets from a host, fail the active
	// path's first link mid-stream, and time the failover.
	n, err := scion.NewNetwork(e.core, scion.Options{
		DisseminationLimit: s.DissemLimit,
		StoreLimit:         s.StoreLimit,
		BeaconingTime:      s.Duration,
		Interval:           s.Interval,
		Lifetime:           s.Lifetime,
		LinkDelay:          10 * time.Millisecond,
		Workers:            s.Workers,
		Telemetry:          s.Telemetry,
		Tracer:             s.Tracer,
	})
	if err != nil {
		return nil, err
	}
	pair, fps, err := pickMultipathPair(n)
	if err != nil {
		return nil, err
	}
	src, err := n.Host(pair[0], 10, 0, 0, 1)
	if err != nil {
		return nil, err
	}
	dst, err := n.Host(pair[1], 10, 0, 0, 2)
	if err != nil {
		return nil, err
	}
	// Packet i is sent at i*sendEvery and carries i. Failover ends with
	// the first delivery of a packet sent after the failure; a packet
	// already past the failed link does not count.
	const sendEvery = 5 * time.Millisecond
	var failedAt, restoredAt sim.Time
	delivered := 0
	dst.OnReceive(func(_ addr.Host, payload []byte) {
		delivered++
		if payload[0] == 0 {
			// Sent at time zero on the freshly looked-up path set.
			res.SCIONPathsReady = true
		}
		if failedAt > 0 && restoredAt == 0 && sim.Time(payload[0])*sim.Time(sendEvery) >= failedAt {
			restoredAt = n.Clock().Now()
		}
	})
	for i := 0; i < 60; i++ {
		n.Clock().Schedule(time.Duration(i)*sendEvery, func() {
			_ = src.Send(dst.Addr, []byte{byte(i)})
		})
	}
	n.Clock().Schedule(52*time.Millisecond, func() {
		// The host has not failed over yet, so its active path is the
		// first one the lookup returned.
		refs, err := fps[0].LinkRefs(n.Topo)
		if err == nil {
			n.Fabric().FailLink(refs[0].Link.ID)
			failedAt = n.Clock().Now()
		}
	})
	n.Run()
	if failedAt == 0 || restoredAt == 0 {
		return nil, fmt.Errorf("convergence experiment: failover did not complete (delivered %d)", delivered)
	}
	res.SCIONFailover = time.Duration(restoredAt - failedAt)
	return res, nil
}

// pickMultipathPair finds a sampled pair whose looked-up path set holds at
// least two link-disjoint paths.
func pickMultipathPair(n *scion.Network) ([2]addr.IA, []*dataplane.FwdPath, error) {
	for _, pair := range graphalg.SamplePairs(n.Topo, 50) {
		fps, err := n.Paths(pair[0], pair[1])
		if err != nil {
			continue
		}
		var pls [][]graphalg.PathLink
		for _, fp := range fps {
			refs, err := fp.LinkRefs(n.Topo)
			if err != nil {
				continue
			}
			pl := make([]graphalg.PathLink, len(refs))
			for i, r := range refs {
				pl[i] = graphalg.PathLink{A: r.Link.A, B: r.Link.B, ID: r.Link.ID}
			}
			pls = append(pls, pl)
		}
		if graphalg.UnionFlow(pls, pair[0], pair[1]) >= 2 {
			return pair, fps, nil
		}
	}
	return [2]addr.IA{}, nil, fmt.Errorf("no multipath pair found")
}

// Print renders the comparison.
func (r *ConvergenceResult) Print(w io.Writer) {
	fmt.Fprintln(w, "== Convergence vs failover (paper §5: SCION segments are stable on dissemination) ==")
	fmt.Fprintf(w, "BGP cold-start convergence:      %v (virtual)\n", r.BGPInitial)
	fmt.Fprintf(w, "BGP re-convergence (withdrawal): %v (virtual)\n", r.BGPAfterWithdraw)
	fmt.Fprintf(w, "SCION failover after link loss:  %v (SCMP revocation, then the next packet on a known path; no route recomputation)\n", r.SCIONFailover)
	fmt.Fprintf(w, "SCION paths usable on arrival:   %v\n", r.SCIONPathsReady)
}
