package experiments

import (
	"bytes"
	"encoding/hex"
	"testing"
	"time"
)

// serveSmokeConfig is small enough for CI but large enough that the
// parallel client population, the chaos storm and cache invalidation
// all actually fire.
func serveSmokeConfig() ServeConfig {
	sc := DefaultServeConfig()
	sc.Endpoints = 2000
	sc.Actors = 8
	sc.Shards = 8
	sc.Duration = 4 * time.Second
	sc.Tick = 25 * time.Millisecond
	sc.MeanThink = 150 * time.Millisecond
	sc.CacheTTL = 1 * time.Second
	return sc
}

func runServeAt(t *testing.T, workers int, seed int64) *ServeResult {
	t.Helper()
	s := SmokeScale()
	s.Workers = workers
	s.Seed = seed
	res, err := RunServe(s, serveSmokeConfig())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// serveGoldenSeed1 is the seed-1 smoke fingerprint. Anything that moves
// an event, a byte on the wire or a counter of the serve stack moves it.
const serveGoldenSeed1 = "64569d3935c6f522c9600cc9aef95111a31d3b2d09de22753c7b553f85a81ee9"

// TestServeGolden is the serving layer's end-to-end determinism gate:
// the full stack — parallel client actors, beaconing, the registration
// feed, epoch publication and the chaos storm — must produce
// byte-identical fingerprints for every worker count, per seed, and
// seed 1 must match its pinned fingerprint.
func TestServeGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-worker golden comparison is not short")
	}
	for _, seed := range []int64{1, 2} {
		ref := runServeAt(t, 1, seed)
		refFP := ref.Fingerprint()
		if got := hex.EncodeToString(refFP[:]); seed == 1 && got != serveGoldenSeed1 {
			t.Errorf("seed 1 fingerprint %s, pinned %s", got, serveGoldenSeed1)
		}

		if ref.Totals.Lookups == 0 {
			t.Fatalf("seed %d: no lookups", seed)
		}
		if ref.Totals.Hits == 0 {
			t.Errorf("seed %d: cache never hit", seed)
		}
		if ref.Revocations == 0 {
			t.Errorf("seed %d: storm produced no revocations", seed)
		}
		if ref.Invalidations == 0 {
			t.Errorf("seed %d: revocations invalidated no cached pairs", seed)
		}
		if ref.Epoch == 0 || ref.Registrations == 0 {
			t.Errorf("seed %d: service never published (epoch=%d reg=%d)",
				seed, ref.Epoch, ref.Registrations)
		}
		if ref.P99 < ref.P50 || ref.P999 < ref.P99 {
			t.Errorf("seed %d: quantiles out of order: %v %v %v",
				seed, ref.P50, ref.P99, ref.P999)
		}

		for _, w := range []int{2, 4, 8} {
			got := runServeAt(t, w, seed)
			if fp := got.Fingerprint(); fp != refFP {
				t.Errorf("seed %d workers %d: fingerprint %s != %s",
					seed, w, hex.EncodeToString(fp[:8]), hex.EncodeToString(refFP[:8]))
				if got.Snapshot != ref.Snapshot {
					t.Errorf("snapshot diverges first at: %s", diffFirstLine(ref.Snapshot, got.Snapshot))
				}
				if got.TraceJSONL != ref.TraceJSONL {
					t.Errorf("trace diverges first at: %s", diffFirstLine(ref.TraceJSONL, got.TraceJSONL))
				}
			}
		}
	}
}

// diffFirstLine locates the first differing line of two texts.
func diffFirstLine(a, b string) string {
	la := bytes.Split([]byte(a), []byte("\n"))
	lb := bytes.Split([]byte(b), []byte("\n"))
	n := len(la)
	if len(lb) < n {
		n = len(lb)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(la[i], lb[i]) {
			return string(la[i]) + " vs " + string(lb[i])
		}
	}
	return "lengths differ"
}

func TestServeValidation(t *testing.T) {
	s := SmokeScale()
	if _, err := RunServe(s, ServeConfig{}); err == nil {
		t.Error("empty config accepted")
	}
	sc := serveSmokeConfig()
	sc.Duration = time.Second // below the client start
	if _, err := RunServe(s, sc); err == nil {
		t.Error("too-short duration accepted")
	}
}

func TestServePrint(t *testing.T) {
	res := runServeAt(t, 0, 1)
	var buf bytes.Buffer
	res.Print(&buf)
	out := buf.String()
	for _, want := range []string{"virtual QPS", "cache hit rate", "p999", "shard imbalance"} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Errorf("print output missing %q", want)
		}
	}
}
