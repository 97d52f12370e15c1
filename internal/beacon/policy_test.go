package beacon

import (
	"testing"
	"time"

	"scionmpr/internal/addr"
	"scionmpr/internal/core"
	"scionmpr/internal/seg"
	"scionmpr/internal/topology"
)

func TestPolicyAcceptsReceive(t *testing.T) {
	long := mkPCB(t, org, 0, 6*hour, [3]uint64{100, 0, 1}, [3]uint64{2, 1, 2}, [3]uint64{3, 1, 2})
	short := mkPCB(t, org, 0, 6*hour, [3]uint64{100, 0, 1})

	var nilPolicy *Policy
	if !nilPolicy.AcceptsReceive(long) || !nilPolicy.AllowsEgress(1) {
		t.Error("nil policy must allow everything")
	}

	p := &Policy{MaxHops: 2}
	if p.AcceptsReceive(long) {
		t.Error("MaxHops not enforced")
	}
	if !p.AcceptsReceive(short) {
		t.Error("short beacon rejected")
	}

	geo := &Policy{DenyOriginISDs: []addr.ISD{1}}
	if geo.AcceptsReceive(short) {
		t.Error("geofenced ISD accepted")
	}
	asDeny := &Policy{DenyOriginASes: []addr.IA{org}}
	if asDeny.AcceptsReceive(short) {
		t.Error("denied origin AS accepted")
	}
	custom := &Policy{AcceptFilter: func(pcb *seg.PCB) bool { return pcb.Len() > 5 }}
	if custom.AcceptsReceive(short) {
		t.Error("custom filter ignored")
	}
}

func TestPolicyAllowsEgress(t *testing.T) {
	p := &Policy{DenyEgress: []addr.IfID{3, 7}}
	if p.AllowsEgress(3) || p.AllowsEgress(7) {
		t.Error("denied interface allowed")
	}
	if !p.AllowsEgress(1) {
		t.Error("open interface denied")
	}
}

func TestGeofencingPolicyInSimulation(t *testing.T) {
	// ISD-3 beacons must never be stored at B-3 when its policy denies
	// ISD 3 origins — the geofencing use case of §3.1.
	demo := topology.Demo()
	b3 := addr.MustIA(2, 0xff00_0000_0203)
	keep := map[addr.IA]bool{}
	for _, ia := range demo.CoreIAs() {
		keep[ia] = true
	}
	coreTopo := demo.Subgraph(keep)
	b2 := addr.MustIA(2, 0xff00_0000_0202)
	_ = b3

	cfg := DefaultRunConfig(coreTopo, CoreMode, core.NewBaseline(5), 20)
	cfg.Duration = 2 * time.Hour
	cfg.Policies = map[addr.IA]*Policy{
		b2: {DenyOriginISDs: []addr.ISD{3}},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range coreTopo.CoreIAs() {
		ps := res.PathSet(c, b2)
		if c.ISD == 3 && len(ps) != 0 {
			t.Errorf("geofenced origin %s stored at B-2", c)
		}
		if c.ISD == 1 && len(ps) == 0 {
			t.Errorf("allowed origin %s missing at B-2", c)
		}
	}
	// Unrestricted ASes still receive ISD-3 beacons.
	a1 := addr.MustIA(1, 0xff00_0000_0101)
	c1 := addr.MustIA(3, 0xff00_0000_0301)
	if len(res.PathSet(c1, a1)) == 0 {
		t.Error("unrestricted AS lost ISD-3 beacons")
	}
}

func TestDenyEgressPolicyInSimulation(t *testing.T) {
	// Denying all of an AS's egress interfaces silences its beaconing.
	demo := topology.Demo()
	keep := map[addr.IA]bool{}
	for _, ia := range demo.CoreIAs() {
		keep[ia] = true
	}
	coreTopo := demo.Subgraph(keep)
	a1 := addr.MustIA(1, 0xff00_0000_0101)
	var deny []addr.IfID
	for _, l := range coreTopo.AS(a1).Links {
		deny = append(deny, l.LocalIf(a1))
	}
	cfg := DefaultRunConfig(coreTopo, CoreMode, core.NewBaseline(5), 20)
	cfg.Duration = time.Hour
	cfg.Policies = map[addr.IA]*Policy{a1: {DenyEgress: deny}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Servers[a1].Originated != 0 || res.Servers[a1].Propagated != 0 {
		t.Errorf("silenced AS still sent beacons: orig=%d prop=%d",
			res.Servers[a1].Originated, res.Servers[a1].Propagated)
	}
	// Its neighbors can still reach each other around it.
	a2 := addr.MustIA(1, 0xff00_0000_0102)
	b2 := addr.MustIA(2, 0xff00_0000_0202)
	if len(res.PathSet(b2, a2)) == 0 {
		t.Error("network did not route around the silenced AS")
	}
}
