package experiments

import (
	"fmt"
	"io"
	"time"

	"scionmpr/internal/addr"
	"scionmpr/internal/beacon"
	"scionmpr/internal/core"
	"scionmpr/internal/metrics"
	"scionmpr/internal/pathdb"
	"scionmpr/internal/seg"
	"scionmpr/internal/sim"
	"scionmpr/internal/topology"
	"scionmpr/internal/trust"
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

	// Path servers: core PS at A-1, local PS at A-6.
	corePS := pathdb.NewServer(a1, true, sim.Time(time.Hour))
	localPS := pathdb.NewServer(a6, false, sim.Time(time.Hour))

	// Registration: every leaf of ISD 1 registers its segments at the
	// core path server (intra-ISD scope, every tens of minutes).
	const regHeader = 16
	var regMsgs, regBytes uint64
	for _, ia := range topo.IAs() {
		if ia.ISD != 1 || topo.AS(ia).Core {
			continue
		}
		for _, cs := range topo.CoreIAs() {
			if cs.ISD != 1 {
				continue
			}
			for _, s := range terminate(intraRun, cs, ia) {
				if err := corePS.RegisterDown(now, s); err == nil {
					regMsgs++
					regBytes += uint64(s.WireLen() + regHeader)
				}
			}
		}
	}
	// Core segments registered at the core PS (from core beaconing).
	for _, cs := range topo.CoreIAs() {
		for _, s := range terminate(coreRun, cs, a1) {
			if err := corePS.RegisterCore(now, s); err == nil {
				regMsgs++
				regBytes += uint64(s.WireLen() + regHeader)
			}
		}
	}
	// Up segments at the local PS of A-6.
	for _, cs := range []addr.IA{a1} {
		for _, s := range terminate(intraRun, cs, a6) {
			if err := localPS.RegisterUp(now, s); err == nil {
				regMsgs++
				regBytes += uint64(s.WireLen() + regHeader)
			}
		}
	}

	if termErr != nil {
		return nil, termErr
	}

	// Lookups with a Zipf workload over registered destinations.
	lookupTraffic := func(n int, do func(dst addr.IA) []*seg.PCB, dsts []addr.IA) (uint64, uint64) {
		if len(dsts) == 0 {
			return 0, 0
		}
		w := pathdb.NewZipfWorkload(dsts, 1.2, 7)
		var msgs, bytes uint64
		for i := 0; i < n; i++ {
			dst := w.Next()
			segs := do(dst)
			req := pathdb.Request{Type: pathdb.Down, Dst: dst}
			rep := pathdb.Reply{Segments: segs}
			msgs += 2
			bytes += uint64(req.WireLen() + rep.WireLen())
		}
		return msgs, bytes
	}
	downDsts := corePS.DownDestinations()
	downMsgs, downBytes := lookupTraffic(200, func(dst addr.IA) []*seg.PCB {
		return corePS.LookupDown(now, dst)
	}, downDsts)
	coreMsgs, coreBytes := lookupTraffic(100, func(dst addr.IA) []*seg.PCB {
		return corePS.LookupCore(now, dst)
	}, topo.CoreIAs())
	epMsgs, epBytes := lookupTraffic(100, func(addr.IA) []*seg.PCB {
		return localPS.LookupUp(now)
	}, []addr.IA{a6})

	// De-registration of one destination's segments.
	var deregMsgs, deregBytes uint64
	if len(downDsts) > 0 {
		for _, s := range corePS.LookupDown(now, downDsts[0]) {
			if corePS.Deregister(s) {
				deregMsgs++
				deregBytes += uint64(regHeader + 8)
			}
		}
	}

	// Revocation: fail the A-1 -> A-3 link; the owning AS revokes at the
	// core path server (intra-ISD scope, reactive / seconds).
	a3 := addr.MustIA(1, 0xff00_0000_0103)
	var revMsgs, revBytes uint64
	if links := topo.LinksBetween(a1, a3); len(links) > 0 {
		lk := seg.LinkKey{IA: a1, If: links[0].LocalIf(a1)}
		dropped := corePS.Revoke(lk) + localPS.Revoke(lk)
		revMsgs = uint64(dropped)
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
