package sim

import (
	"math"
	"testing"
	"time"

	"scionmpr/internal/topology"
)

// TestLossCoinFlowTable pins LossCoin keyed on a flow to the data plane's
// historical per-packet coin, splitmix64(flow<<32 ^ link) < rate, bit for
// bit: the table was recorded from that coin. Each pair's first two rates
// bracket the hash's own threshold (the largest rate that keeps the
// packet, and the next float up), so a single changed bit of the hash
// flips a row.
func TestLossCoinFlowTable(t *testing.T) {
	for _, tc := range []struct {
		flow uint32
		link topology.LinkID
		rate float64
		drop bool
	}{
		{0x0, 0, 0x1.c4415072f63b9p-01, false},
		{0x0, 0, 0x1.c4415072f63bap-01, true},
		{0x0, 0, 0.3, false},
		{0x1, 1, 0x1.021c8d37eacc8p-03, false},
		{0x1, 1, 0x1.021c8d37eacc9p-03, true},
		{0x1, 1, 0.3, true},
		{0x2, 3, 0x1.dc3229d4feb0ap-01, false},
		{0x2, 3, 0x1.dc3229d4feb0bp-01, true},
		{0x2, 3, 0.3, false},
		{0x7, 42, 0x1.57ff959b2bff5p-01, false},
		{0x7, 42, 0x1.57ff959b2bff6p-01, true},
		{0x7, 42, 0.3, false},
		{0x1234, 65535, 0x1.2bc9fdb89f64cp-03, false},
		{0x1234, 65535, 0x1.2bc9fdb89f64dp-03, true},
		{0x1234, 65535, 0.3, true},
		{0xabcde, 4294967295, 0x1.e52c25681e9ecp-03, false},
		{0xabcde, 4294967295, 0x1.e52c25681e9edp-03, true},
		{0xabcde, 4294967295, 0.3, true},
		{0xfffff, 0, 0x1.6603d15edef08p-04, false},
		{0xfffff, 0, 0x1.6603d15edef09p-04, true},
		{0xfffff, 0, 0.3, true},
		{0xffffffff, 1, 0x1.6ad594d649d8ap-02, false},
		{0xffffffff, 1, 0x1.6ad594d649d8bp-02, true},
		{0xffffffff, 1, 0.3, false},
	} {
		if got := LossCoin(uint64(tc.flow), tc.link, tc.rate); got != tc.drop {
			t.Errorf("LossCoin(%#x, %d, %x) = %v, want %v", tc.flow, tc.link, tc.rate, got, tc.drop)
		}
	}
}

// TestLossCoinRate: over 20 000 draws the coin drops within ±0.015 of
// the rate (about 3.3 standard deviations), for flow keys on one link and
// for the consecutive decision counts Network draws over many links, also
// past 2^32. The draws are deterministic, so this cannot flake.
func TestLossCoinRate(t *testing.T) {
	const n, rate = 20000, 0.3
	for name, draw := range map[string]func(i int) (uint64, topology.LinkID){
		"flow":            func(i int) (uint64, topology.LinkID) { return uint64(i), 7 },
		"count":           func(i int) (uint64, topology.LinkID) { return uint64(i) + 1, topology.LinkID(1 + i%64) },
		"count past 2^32": func(i int) (uint64, topology.LinkID) { return 1<<32 + uint64(i), 7 },
	} {
		drops := 0
		for i := 0; i < n; i++ {
			if key, link := draw(i); LossCoin(key, link, rate) {
				drops++
			}
		}
		if got := float64(drops) / n; math.Abs(got-rate) > 0.015 {
			t.Errorf("%s keys: drop share %.4f, want %.2f ± 0.015", name, got, rate)
		}
	}
}

// TestNetworkGrayLossCount: the network's loss decisions are keyed on
// its count of decisions, which only a lossy link advances, and a
// restored count continues the same decision sequence.
func TestNetworkGrayLossCount(t *testing.T) {
	g := pairTopo()
	link := g.Links[0]
	run := func(n *Network, msgs int) {
		for i := 0; i < msgs; i++ {
			n.Send(link.A, link, testMsg(1))
		}
	}
	var s Simulator
	ref := NewNetwork(&s, g, time.Millisecond)
	run(ref, 10) // healthy: draws nothing
	if ref.lossSeq != 0 {
		t.Fatalf("healthy link drew %d decisions", ref.lossSeq)
	}
	ref.SetLinkLoss(link.ID, 0.5)
	run(ref, 100)
	mid := ref.CheckpointState()
	run(ref, 100)
	if ref.lossSeq != 200 || ref.DroppedByLoss == 0 || ref.DroppedByLoss == 200 {
		t.Fatalf("count %d, dropped %d of 200", ref.lossSeq, ref.DroppedByLoss)
	}

	var s2 Simulator
	resumed := NewNetwork(&s2, g, time.Millisecond)
	resumed.RestoreState(mid)
	resumed.SetLinkLoss(link.ID, 0.5)
	run(resumed, 100)
	if resumed.lossSeq != ref.lossSeq || resumed.DroppedByLoss != ref.DroppedByLoss {
		t.Errorf("resumed: count %d dropped %d, uninterrupted: count %d dropped %d",
			resumed.lossSeq, resumed.DroppedByLoss, ref.lossSeq, ref.DroppedByLoss)
	}
}
