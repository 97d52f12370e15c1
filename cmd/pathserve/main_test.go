package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func smokeCfg() config {
	return config{
		scale:     "smoke",
		endpoints: 2000,
		actors:    8,
		shards:    8,
		duration:  4 * time.Second,
		think:     150 * time.Millisecond,
		tick:      25 * time.Millisecond,
		zipf:      1.2,
		cacheTTL:  time.Second,
		seed:      1,
	}
}

// TestRunDeterministic is the binary-level acceptance gate: the full
// stdout of a run — tables, counters and the closing fingerprint — must
// be byte-identical across invocations and across worker counts.
func TestRunDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-worker comparison is not short")
	}
	outs := make(map[int]string)
	for _, w := range []int{1, 4} {
		cfg := smokeCfg()
		cfg.workers = w
		var buf bytes.Buffer
		if err := run(&buf, cfg); err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		outs[w] = buf.String()
	}
	if outs[1] != outs[4] {
		t.Errorf("output differs between workers=1 and workers=4:\n--- w1 ---\n%s\n--- w4 ---\n%s", outs[1], outs[4])
	}
	if !strings.Contains(outs[1], "fingerprint: ") {
		t.Errorf("output missing fingerprint line:\n%s", outs[1])
	}

	// Same config again: the run itself must be reproducible.
	var again bytes.Buffer
	cfg := smokeCfg()
	cfg.workers = 1
	if err := run(&again, cfg); err != nil {
		t.Fatal(err)
	}
	if again.String() != outs[1] {
		t.Error("repeated identical run produced different output")
	}
}

func TestRunSeedSensitivity(t *testing.T) {
	if testing.Short() {
		t.Skip("two full runs are not short")
	}
	var a, b bytes.Buffer
	ca := smokeCfg()
	if err := run(&a, ca); err != nil {
		t.Fatal(err)
	}
	cb := smokeCfg()
	cb.seed = 2
	if err := run(&b, cb); err != nil {
		t.Fatal(err)
	}
	if a.String() == b.String() {
		t.Error("different seeds produced identical output")
	}
}

func TestRunWritesArtifacts(t *testing.T) {
	dir := t.TempDir()
	cfg := smokeCfg()
	cfg.traceOut = filepath.Join(dir, "trace.jsonl")
	cfg.snapOut = filepath.Join(dir, "snapshot.txt")
	var buf bytes.Buffer
	if err := run(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	tr, err := os.ReadFile(cfg.traceOut)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(tr, []byte("snapshot_published")) {
		t.Error("trace file has no snapshot_published events")
	}
	snap, err := os.ReadFile(cfg.snapOut)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(snap, []byte("pathsrv_lookups_total")) {
		t.Error("snapshot file has no pathsrv counters")
	}
}

// TestRunFleetMode drives the -replicas path end to end: both selector
// variants under the crash storm, the convergence check and artifacts.
func TestRunFleetMode(t *testing.T) {
	dir := t.TempDir()
	cfg := smokeCfg()
	cfg.replicas = 3
	cfg.ckptEvery = 96
	cfg.syncEvery = 400 * time.Millisecond
	cfg.crashDown = 500 * time.Millisecond
	cfg.crashPeriod = 1300 * time.Millisecond
	cfg.traceOut = filepath.Join(dir, "trace.jsonl")
	cfg.snapOut = filepath.Join(dir, "snapshot.txt")
	var buf bytes.Buffer
	if err := run(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"fingerprint: ", "crashes / recoveries", "replicas converged", "true",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("fleet output missing %q", want)
		}
	}
	tr, err := os.ReadFile(cfg.traceOut)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"replica_crashed", "replica_recovered", "antientropy_pull"} {
		if !bytes.Contains(tr, []byte(want)) {
			t.Errorf("trace file has no %s events", want)
		}
	}
	snap, err := os.ReadFile(cfg.snapOut)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"pathsrv_replica_crashes_total", "pathsrv_client_stale_serves_total"} {
		if !bytes.Contains(snap, []byte(want)) {
			t.Errorf("snapshot file missing %s", want)
		}
	}
}

func TestRunRejectsBadScale(t *testing.T) {
	cfg := smokeCfg()
	cfg.scale = "galactic"
	if err := run(&bytes.Buffer{}, cfg); err == nil {
		t.Error("unknown scale accepted")
	}
}
