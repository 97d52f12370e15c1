package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// smokeArgs is a CI-sized pathserve run.
func smokeArgs(extra ...string) []string {
	return append([]string{"pathserve", "-scale", "smoke", "-endpoints", "2000", "-actors", "8",
		"-shards", "8", "-duration", "4s", "-think", "150ms", "-tick", "25ms", "-cachettl", "1s"}, extra...)
}

// TestPathserveDeterministic is the binary-level acceptance gate: the
// full stdout of a run — tables, counters and the closing fingerprint —
// must be byte-identical across invocations and across worker counts.
func TestPathserveDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-worker comparison is not short")
	}
	outs := make(map[string]string)
	for _, w := range []string{"1", "4"} {
		out, err := runCmd(smokeArgs("-workers", w)...)
		if err != nil {
			t.Fatalf("workers=%s: %v", w, err)
		}
		outs[w] = out
	}
	if outs["1"] != outs["4"] {
		t.Errorf("output differs between workers=1 and workers=4:\n--- w1 ---\n%s\n--- w4 ---\n%s", outs["1"], outs["4"])
	}
	if !strings.Contains(outs["1"], "fingerprint: ") {
		t.Errorf("output missing fingerprint line:\n%s", outs["1"])
	}

	// Same config again: the run itself must be reproducible.
	again, err := runCmd(smokeArgs("-workers", "1")...)
	if err != nil {
		t.Fatal(err)
	}
	if again != outs["1"] {
		t.Error("repeated identical run produced different output")
	}
}

func TestPathserveSeedSensitivity(t *testing.T) {
	if testing.Short() {
		t.Skip("two full runs are not short")
	}
	a, err := runCmd(smokeArgs()...)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runCmd(smokeArgs("-seed", "2")...)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Error("different seeds produced identical output")
	}
}

func TestPathserveWritesArtifacts(t *testing.T) {
	dir := t.TempDir()
	trace, snapshot := filepath.Join(dir, "trace.jsonl"), filepath.Join(dir, "snapshot.txt")
	if _, err := runCmd(smokeArgs("-trace", trace, "-snapshot", snapshot)...); err != nil {
		t.Fatal(err)
	}
	tr, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(tr, []byte("snapshot_published")) {
		t.Error("trace file has no snapshot_published events")
	}
	snap, err := os.ReadFile(snapshot)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(snap, []byte("pathsrv_lookups_total")) {
		t.Error("snapshot file has no pathsrv counters")
	}
}

// TestPathserveFleetMode drives the -replicas path end to end: both
// selector variants under the crash storm, the convergence check and
// artifacts.
func TestPathserveFleetMode(t *testing.T) {
	dir := t.TempDir()
	trace, snapshot := filepath.Join(dir, "trace.jsonl"), filepath.Join(dir, "snapshot.txt")
	out, err := runCmd(smokeArgs("-replicas", "3", "-ckptevery", "96", "-syncevery", "400ms",
		"-crashdown", "500ms", "-crashperiod", "1300ms", "-trace", trace, "-snapshot", snapshot)...)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"fingerprint: ", "crashes / recoveries", "replicas converged", "true",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("fleet output missing %q", want)
		}
	}
	tr, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"replica_crashed", "replica_recovered", "antientropy_pull"} {
		if !bytes.Contains(tr, []byte(want)) {
			t.Errorf("trace file has no %s events", want)
		}
	}
	snap, err := os.ReadFile(snapshot)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"pathsrv_replica_crashes_total", "pathsrv_client_stale_serves_total"} {
		if !bytes.Contains(snap, []byte(want)) {
			t.Errorf("snapshot file missing %s", want)
		}
	}
}

func TestPathserveRejectsBadScale(t *testing.T) {
	if _, err := runCmd(smokeArgs("-scale", "galactic")...); err == nil {
		t.Error("unknown scale accepted")
	}
}
