package experiments

import (
	"fmt"
	"io"
	"time"

	"scionmpr/internal/addr"
	"scionmpr/internal/beacon"
	"scionmpr/internal/core"
	"scionmpr/internal/metrics"
	"scionmpr/internal/pathsrv"
	"scionmpr/internal/seg"
	"scionmpr/internal/topology"
	"scionmpr/internal/trust"
	"scionmpr/scion"
)

// Table1Row is one control-plane component with its communication scope,
// firing frequency (Table 1 of the paper) and the message/byte counts
// measured on the demo network.
type Table1Row struct {
	Component string
	Scope     string // AS | ISD | Global
	Frequency string // Hours | Minutes | Seconds
	Messages  uint64
	Bytes     uint64
}

// Table1Result is the measured reproduction of Table 1.
type Table1Result struct {
	Rows []Table1Row
}

// RunTable1 exercises every control-plane component on the Figure 1 demo
// network — core beaconing, intra-ISD beaconing, the three lookup types,
// path (de-)registration, and revocation — and reports scope, frequency
// and measured traffic for each.
func RunTable1() (*Table1Result, error) {
	topo := topology.Demo()
	infra, err := trust.NewInfra(topo, trust.Sized)
	if err != nil {
		return nil, err
	}
	run := func(mode beacon.Mode) (*beacon.RunResult, error) {
		cfg := beacon.DefaultRunConfig(topo, mode, core.NewBaseline(5), 20)
		cfg.Duration = time.Hour
		cfg.Infra = infra
		return beacon.Run(cfg)
	}
	coreRun, err := run(beacon.CoreMode)
	if err != nil {
		return nil, err
	}
	intraRun, err := run(beacon.IntraMode)
	if err != nil {
		return nil, err
	}

	a1 := addr.MustIA(1, 0xff00_0000_0101)
	a6 := addr.MustIA(1, 0xff00_0000_0106)
	now := intraRun.End

	var termErr error
	terminate := func(run *beacon.RunResult, origin, at addr.IA) []*seg.PCB {
		segs, err := run.Terminate(infra.SignerFor(at), origin, at, nil)
		if termErr == nil {
			termErr = err
		}
		return segs
	}

	// Path servers: core PS at A-1, local PS at A-6, each storing segments
	// under their (origin, leaf) pairs.
	corePS := pathsrv.New(pathsrv.Config{})
	localPS := pathsrv.New(pathsrv.Config{})
	var isd1Cores []addr.IA
	for _, cs := range topo.CoreIAs() {
		if cs.ISD == 1 {
			isd1Cores = append(isd1Cores, cs)
		}
	}

	// Registration: every leaf of ISD 1 registers its segments at the
	// core path server (intra-ISD scope, every tens of minutes).
	const regHeader = 16
	var regMsgs, regBytes uint64
	register := func(ps *pathsrv.Service, segs []*seg.PCB) {
		for _, s := range segs {
			if err := ps.Register(now, s); err == nil {
				regMsgs++
				regBytes += uint64(s.WireLen() + regHeader)
			}
		}
	}
	isLeaf := func(ia addr.IA) bool { return ia.ISD == 1 && !topo.AS(ia).Core }
	for _, ia := range topo.IAs() {
		if isLeaf(ia) {
			for _, cs := range isd1Cores {
				register(corePS, terminate(intraRun, cs, ia))
			}
		}
	}
	// Core segments registered at the core PS (from core beaconing).
	for _, cs := range topo.CoreIAs() {
		register(corePS, terminate(coreRun, cs, a1))
	}
	// Up segments at the local PS of A-6.
	register(localPS, terminate(intraRun, a1, a6))

	if termErr != nil {
		return nil, termErr
	}
	corePS.Publish(now)
	localPS.Publish(now)
	// down answers a down-segment lookup: the segments from every core of
	// ISD 1 to dst.
	down := func(dst addr.IA) []*seg.PCB {
		var out []*seg.PCB
		for _, cs := range isd1Cores {
			segs, _ := corePS.Lookup(now, cs, dst)
			out = append(out, segs...)
		}
		return out
	}
	var downDsts []addr.IA // leaves with registered down-segments
	for _, ia := range topo.IAs() {
		if isLeaf(ia) && len(down(ia)) > 0 {
			downDsts = append(downDsts, ia)
		}
	}

	// Lookups with a Zipf workload over registered destinations.
	lookupTraffic := func(n int, do func(dst addr.IA) []*seg.PCB, dsts []addr.IA) (uint64, uint64) {
		if len(dsts) == 0 {
			return 0, 0
		}
		ranks := metrics.NewZipfRanks(len(dsts), 1.2, 7)
		var msgs, bytes uint64
		for i := 0; i < n; i++ {
			dst := dsts[ranks.Next()]
			reply := 2 // segment count
			for _, s := range do(dst) {
				reply += s.WireLen()
			}
			msgs += 2
			bytes += uint64(scion.Request{Type: scion.DownSeg, Dst: dst}.WireLen() + reply)
		}
		return msgs, bytes
	}
	downMsgs, downBytes := lookupTraffic(200, down, downDsts)
	coreMsgs, coreBytes := lookupTraffic(100, func(dst addr.IA) []*seg.PCB {
		segs, _ := corePS.Lookup(now, dst, a1)
		return segs
	}, topo.CoreIAs())
	epMsgs, epBytes := lookupTraffic(100, func(addr.IA) []*seg.PCB {
		segs, _ := localPS.Lookup(now, a1, a6)
		return segs
	}, []addr.IA{a6})

	// De-registration of one destination's segments.
	var deregMsgs, deregBytes uint64
	if len(downDsts) > 0 {
		for _, s := range down(downDsts[0]) {
			if corePS.Deregister(s) {
				deregMsgs++
				deregBytes += uint64(regHeader + 8)
			}
		}
		corePS.Publish(now)
	}

	// Revocation: fail the A-1 -> A-3 link; the owning AS revokes at the
	// core path server (intra-ISD scope, reactive / seconds). One message
	// per segment the revocation hides.
	served := func() (n int) {
		for _, dst := range downDsts {
			n += len(down(dst))
		}
		for _, cs := range topo.CoreIAs() {
			segs, _ := corePS.Lookup(now, cs, a1)
			n += len(segs)
		}
		segs, _ := localPS.Lookup(now, a1, a6)
		return n + len(segs)
	}
	a3 := addr.MustIA(1, 0xff00_0000_0103)
	var revMsgs, revBytes uint64
	if links := topo.LinksBetween(a1, a3); len(links) > 0 {
		lk := seg.LinkKey{IA: a1, If: links[0].LocalIf(a1)}
		before := served()
		corePS.RevokeLink(now, lk, 0)
		localPS.RevokeLink(now, lk, 0)
		revMsgs = uint64(before - served())
		revBytes = revMsgs * 24 // revocation message: link key + timestamp + MAC
	}

	res := &Table1Result{Rows: []Table1Row{
		{"Core Beaconing", "Global", "Minutes", sumMsgs(coreRun), coreRun.TotalOverheadBytes()},
		{"Intra-ISD Beaconing", "ISD", "Minutes", sumMsgs(intraRun), intraRun.TotalOverheadBytes()},
		{"Down-Path Segment Lookup", "Global", "Seconds", downMsgs, downBytes},
		{"Core-Path Segment Lookup", "ISD", "Seconds", coreMsgs, coreBytes},
		{"Endpoint Path Lookup", "AS", "Seconds", epMsgs, epBytes},
		{"Path (De-)Registration", "ISD", "Minutes", regMsgs + deregMsgs, regBytes + deregBytes},
		{"Path Revocation", "ISD", "Seconds", revMsgs, revBytes},
	}}
	return res, nil
}

func sumMsgs(r *beacon.RunResult) uint64 {
	var n uint64
	for _, srv := range r.Servers {
		n += srv.Originated + srv.Propagated
	}
	return n
}

// Print renders Table 1 with the measured columns appended.
func (r *Table1Result) Print(w io.Writer) {
	t := &metrics.Table{
		Header: []string{"SCION Control Plane Component", "Scope", "Frequency", "Messages", "Bytes"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Component, row.Scope, row.Frequency,
			fmt.Sprintf("%d", row.Messages), fmt.Sprintf("%d", row.Bytes),
		})
	}
	fmt.Fprintln(w, "== Table 1: path management overhead comparison (measured on the Figure 1 demo network, 1h) ==")
	t.Fprint(w)
}
