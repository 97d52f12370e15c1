package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// churnGoldenSmoke is the SHA-256 of RunChurn(SmokeScale()).Print.
const churnGoldenSmoke = "89609615f0b141a5e1bd3508e4e5accd68c7348e1c0b5fb8557e7620c168715b"

// TestChurnGolden pins the churn experiment's rendered output: the live
// beaconing plane runs sharded, so its output must not depend on the
// worker count.
func TestChurnGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("churn experiment in -short mode")
	}
	for _, w := range []int{1, 4} {
		s := SmokeScale()
		s.Workers = w
		res, err := RunChurn(s)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		res.Print(&buf)
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != churnGoldenSmoke {
			t.Errorf("workers %d: output SHA-256 %s, pinned %s\n%s", w, got, churnGoldenSmoke, buf.String())
		}
	}
}

// TestChurnOrderingAndDeterminism runs the continuous-churn experiment
// twice at smoke scale: the rendered output must be byte-identical (the
// whole fault schedule and every traffic reaction is seeded), and the
// Figure-6a ordering must hold — diversity reconnects and recovers no
// worse than the baseline, both strictly better than BGP best-path.
func TestChurnOrderingAndDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("churn experiment in -short mode")
	}
	s := SmokeScale()
	run := func() (*ChurnResult, []byte) {
		res, err := RunChurn(s)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		res.Print(&buf)
		return res, buf.Bytes()
	}
	res1, out1 := run()
	_, out2 := run()
	if !bytes.Equal(out1, out2) {
		t.Fatalf("churn output not deterministic:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", out1, out2)
	}
	if err := res1.CheckOrdering(); err != nil {
		t.Fatal(err)
	}

	// The churn must actually bite: BGP flows lose their only path.
	var bgp *ChurnSeries
	for i := range res1.Series {
		if res1.Series[i].Name == "BGP best-path" {
			bgp = &res1.Series[i]
		}
	}
	if bgp == nil || len(bgp.Outages) == 0 || bgp.DisconnectedFlows == 0 {
		t.Fatalf("expected BGP disconnections under flap churn, got %+v", bgp)
	}
	if bgp.FlapInjections == 0 {
		t.Fatal("chaos engine injected no flaps")
	}

	// Recovery semantics: SCION flows re-probe and readopt healed paths.
	for i := range res1.Series {
		s := &res1.Series[i]
		if s.Name != "BGP best-path" && s.Reprobes == 0 {
			t.Errorf("%s: no re-probes despite revocation TTL expiries", s.Name)
		}
	}
}
