package experiments

import (
	"bytes"
	"encoding/hex"
	"testing"
	"time"
)

// failoverSmokeConfig keeps the two-variant crash-storm run CI-sized
// while still exercising every resilience path: rolling crashes, the
// full blackout, WAL recovery, anti-entropy pulls and stale serves.
func failoverSmokeConfig() FailoverConfig {
	fc := DefaultFailoverConfig()
	fc.ServeConfig = serveSmokeConfig()
	fc.Replicas = 3
	fc.CheckpointEvery = 96
	fc.SyncInterval = 400 * time.Millisecond
	fc.CrashDown = 500 * time.Millisecond
	fc.CrashPeriod = 1300 * time.Millisecond
	return fc
}

func runFailoverAt(t *testing.T, workers int, seed int64) *FailoverResult {
	t.Helper()
	s := SmokeScale()
	s.Workers = workers
	s.Seed = seed
	res, err := RunFailover(s, failoverSmokeConfig())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// failoverGoldenSeed1 is the seed-1 smoke fingerprint of both variants.
const failoverGoldenSeed1 = "48663901c51e6a6ca438cda1fa689ffaa5bd3bb52eb4c9b9b88c84c54f986674"

// TestFailoverGolden is the crash-recovery determinism gate: the whole
// resilience stack — crash storm, WAL replay, anti-entropy, client
// failover with jittered backoff, serve-stale — must produce
// byte-identical fingerprints for every worker count, per seed, seed 1
// must match its pinned fingerprint, and every run must end with all
// replicas converged on one digest.
func TestFailoverGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-worker golden comparison is not short")
	}
	for _, seed := range []int64{1, 2} {
		ref := runFailoverAt(t, 1, seed)
		refFP := ref.Fingerprint()
		if got := hex.EncodeToString(refFP[:]); seed == 1 && got != failoverGoldenSeed1 {
			t.Errorf("seed 1 fingerprint %s, pinned %s", got, failoverGoldenSeed1)
		}

		for _, run := range ref.Runs {
			if run.Totals.Lookups == 0 {
				t.Fatalf("seed %d %s: no lookups", seed, run.Name)
			}
			if !run.Converged {
				t.Errorf("seed %d %s: replicas did not converge", seed, run.Name)
			}
			if run.Crashes == 0 || run.Recoveries != run.Crashes {
				t.Errorf("seed %d %s: crashes=%d recoveries=%d",
					seed, run.Name, run.Crashes, run.Recoveries)
			}
			if run.ReplayedRecords == 0 {
				t.Errorf("seed %d %s: recovery replayed nothing", seed, run.Name)
			}
			if run.Totals.Timeouts == 0 {
				t.Errorf("seed %d %s: storm produced no client timeouts", seed, run.Name)
			}
			if run.Totals.StaleServes == 0 {
				t.Errorf("seed %d %s: blackout produced no stale serves", seed, run.Name)
			}
			if run.SyncRounds == 0 || run.SyncPulls == 0 {
				t.Errorf("seed %d %s: anti-entropy never pulled (rounds=%d pulls=%d)",
					seed, run.Name, run.SyncRounds, run.SyncPulls)
			}
			if sr := run.SuccessRate; sr < 0.9 || sr > 1 {
				t.Errorf("seed %d %s: success rate = %v", seed, run.Name, sr)
			}
			if run.P99 < run.P50 || run.P999 < run.P99 {
				t.Errorf("seed %d %s: quantiles out of order", seed, run.Name)
			}
		}

		for _, w := range []int{2, 4, 8} {
			got := runFailoverAt(t, w, seed)
			if fp := got.Fingerprint(); fp != refFP {
				t.Errorf("seed %d workers %d: fingerprint %s != %s",
					seed, w, hex.EncodeToString(fp[:8]), hex.EncodeToString(refFP[:8]))
				for i := range got.Runs {
					if got.Runs[i].Snapshot != ref.Runs[i].Snapshot {
						t.Errorf("%s snapshot diverges first at: %s", got.Runs[i].Name,
							diffFirstLine(ref.Runs[i].Snapshot, got.Runs[i].Snapshot))
					}
					if got.Runs[i].TraceJSONL != ref.Runs[i].TraceJSONL {
						t.Errorf("%s trace diverges first at: %s", got.Runs[i].Name,
							diffFirstLine(ref.Runs[i].TraceJSONL, got.Runs[i].TraceJSONL))
					}
				}
			}
		}
	}
}

func TestFailoverValidation(t *testing.T) {
	s := SmokeScale()
	if _, err := RunFailover(s, FailoverConfig{}); err == nil {
		t.Error("empty config accepted")
	}
	fc := failoverSmokeConfig()
	fc.Duration = time.Second // below the client start
	if _, err := RunFailover(s, fc); err == nil {
		t.Error("too-short duration accepted")
	}
}

func TestFailoverPrint(t *testing.T) {
	res := runFailoverAt(t, 0, 1)
	var buf bytes.Buffer
	res.Print(&buf)
	out := buf.String()
	for _, want := range []string{
		"success rate", "stale-serve rate", "crashes / recoveries",
		"WAL records replayed", "anti-entropy rounds", "replicas converged",
	} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Errorf("print output missing %q", want)
		}
	}
}
