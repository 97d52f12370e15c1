package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"strings"
	"testing"

	"scionmpr/internal/strategy"
)

// tournamentTestGrid is the reduced grid the determinism tests run: one
// topology and workload, both fault axes, every registered policy.
func tournamentTestGrid() TournamentConfig {
	return TournamentConfig{
		Topologies: []string{"diversity"},
		Workloads:  []string{"steady"},
		Chaos:      []string{"flap", "spike"},
		Policies:   strategy.Names(),
	}
}

// tournamentGolden pins the reduced grid's fingerprint at smoke scale,
// seed 1. It digests every run's metrics, telemetry snapshot and trace:
// any behavior change in beaconing, path lookup, revocation handling,
// the chaos engine, the traffic engine or a policy shows up here.
const tournamentGolden = "5eac02cc043ea41aba3cde9e6ddec78310705420605de1c7016c50f596ea8662"

// tournamentMetricsGolden pins the same runs' metrics alone: every
// field fingerprintRun writes before the telemetry snapshot and trace.
// A change to how the control plane is instrumented may move
// tournamentGolden; it must not move this.
const tournamentMetricsGolden = "13fd76f791260d8384c36e1548e025b88c380f2d038e2bf98c29c41fa5c5a94d"

// tournamentMetricsDigest hashes each run's cell, policy and metrics in
// fingerprintRun's encoding.
func tournamentMetricsDigest(runs []TournamentRun) string {
	h := sha256.New()
	var b [8]byte
	w64 := func(v uint64) {
		binary.BigEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, run := range runs {
		h.Write([]byte(run.Cell() + "|" + run.Policy + "\n"))
		w64(math.Float64bits(run.GoodputBps))
		w64(math.Float64bits(run.SwitchRate))
		w64(math.Float64bits(run.LossFrac))
		w64(uint64(run.PathLifetime))
		w64(run.LookupOps)
		w64(uint64(run.Flows))
		w64(uint64(run.Completed))
		w64(uint64(run.Failed))
		w64(uint64(run.Outages))
		w64(run.Revocations)
		w64(run.Injections)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestTournamentGoldenFingerprint(t *testing.T) {
	s := SmokeScale()
	s.Workers = 1
	res, err := RunTournament(s, tournamentTestGrid())
	if err != nil {
		t.Fatal(err)
	}
	if got := tournamentMetricsDigest(res.Runs); got != tournamentMetricsGolden {
		t.Errorf("tournament metrics digest = %s, want %s", got, tournamentMetricsGolden)
	}
	if got := res.Fingerprint(); got != tournamentGolden {
		t.Errorf("tournament fingerprint = %s, want %s", got, tournamentGolden)
	}
	found := false
	for _, pol := range res.Config.Policies {
		if pol == res.Winner {
			found = true
		}
	}
	if !found {
		t.Errorf("winner %q is not a configured policy", res.Winner)
	}
	if len(res.Runs) != 2*len(res.Config.Policies) {
		t.Errorf("got %d runs, want %d", len(res.Runs), 2*len(res.Config.Policies))
	}
}

// TestTournamentWorkerInvariance requires byte-identical fingerprints
// for every worker count (the beacon-bootstrap parallelism is the only
// concurrent phase) and that the seed actually changes the outcome.
func TestTournamentWorkerInvariance(t *testing.T) {
	grid := tournamentTestGrid()
	run := func(workers int, seed int64) string {
		s := SmokeScale()
		s.Workers = workers
		s.Seed = seed
		res, err := RunTournament(s, grid)
		if err != nil {
			t.Fatal(err)
		}
		return res.Fingerprint()
	}
	ref := run(1, 1)
	for _, w := range []int{2, 4, 8} {
		if got := run(w, 1); got != ref {
			t.Errorf("workers=%d fingerprint %s != workers=1 %s", w, got, ref)
		}
	}
	ref2 := run(1, 2)
	if ref2 == ref {
		t.Error("seed 2 produced the same fingerprint as seed 1")
	}
	if got := run(4, 2); got != ref2 {
		t.Errorf("workers=4 seed=2 fingerprint %s != workers=1 %s", got, ref2)
	}
}

// TestTournamentAxesAndPrint exercises the remaining grid axes (the
// baseline algorithm, the bursty workload, the calm chaos axis) and the
// rendered report.
func TestTournamentAxesAndPrint(t *testing.T) {
	def := DefaultTournamentConfig()
	if len(def.Topologies) != 2 || len(def.Workloads) != 2 || len(def.Chaos) != 3 {
		t.Errorf("default grid = %+v", def)
	}
	if len(def.Policies) != len(strategy.Names()) {
		t.Errorf("default policies = %v", def.Policies)
	}
	s := SmokeScale()
	s.Workers = 1
	res, err := RunTournament(s, TournamentConfig{
		Topologies: []string{"baseline"},
		Workloads:  []string{"bursty"},
		Chaos:      []string{"calm"},
		Policies:   []string{"single-best", "weighted"},
	})
	if err != nil {
		t.Fatal(err)
	}
	scores := res.NormalizedScores()
	if len(scores) != 2 || scores[res.Winner] <= 0 {
		t.Errorf("scores = %v, winner %q", scores, res.Winner)
	}
	var buf strings.Builder
	res.Print(&buf)
	out := buf.String()
	for _, want := range []string{
		"strategy tournament", "baseline/bursty/calm", "single-best",
		"winner: " + res.Winner, "fingerprint: " + res.Fingerprint(),
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Print output missing %q", want)
		}
	}
	for _, run := range res.Runs {
		if run.Flows == 0 || run.GoodputBps <= 0 {
			t.Errorf("run %s/%s has no traffic: %+v", run.Cell(), run.Policy, run)
		}
	}
}

func TestTournamentRejectsBadGrid(t *testing.T) {
	s := SmokeScale()
	if _, err := RunTournament(s, TournamentConfig{}); err == nil {
		t.Error("empty grid should be rejected")
	}
	bad := []TournamentConfig{
		{Topologies: []string{"mesh"}, Workloads: []string{"steady"}, Chaos: []string{"calm"}, Policies: []string{"weighted"}},
		{Topologies: []string{"diversity"}, Workloads: []string{"trickle"}, Chaos: []string{"calm"}, Policies: []string{"weighted"}},
		{Topologies: []string{"diversity"}, Workloads: []string{"steady"}, Chaos: []string{"earthquake"}, Policies: []string{"weighted"}},
		{Topologies: []string{"diversity"}, Workloads: []string{"steady"}, Chaos: []string{"calm"}, Policies: []string{"nope"}},
	}
	for _, tc := range bad {
		if _, err := RunTournament(s, tc); err == nil {
			t.Errorf("grid %+v should be rejected", tc)
		}
	}
}

func TestTournamentWinner(t *testing.T) {
	runs := []TournamentRun{
		{Topology: "diversity", Workload: "steady", Chaos: "calm", Policy: "a", GoodputBps: 100},
		{Topology: "diversity", Workload: "steady", Chaos: "calm", Policy: "b", GoodputBps: 50},
		{Topology: "diversity", Workload: "steady", Chaos: "flap", Policy: "a", GoodputBps: 10},
		{Topology: "diversity", Workload: "steady", Chaos: "flap", Policy: "b", GoodputBps: 40},
	}
	// a: 1.0 + 0.25 = 1.25; b: 0.5 + 1.0 = 1.5.
	if got := tournamentWinner([]string{"a", "b"}, runs); got != "b" {
		t.Errorf("winner = %q, want b", got)
	}
	// Ties break toward the earlier policy.
	runs[2].GoodputBps = 20 // a: 1.5, b: 1.5
	if got := tournamentWinner([]string{"a", "b"}, runs); got != "a" {
		t.Errorf("tied winner = %q, want a (earlier)", got)
	}
}
