package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, tc := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {91, 10}, {100, 10}, {1, 1}, {10, 1}, {11, 2}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("p%v = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty sample: %v", got)
	}
}

func TestHighestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{10000, 99.9}, {9999, 99}, {1000, 99}, {999, 98}, {500, 98}, {499, 95}, {200, 95}, {199, 90}, {100, 90}, {99, 80}, {50, 80}, {49, 75}, {40, 75}, {39, 50}, {3, 50}} {
		got := highestTail(tc.n)
		if got != tc.want {
			t.Errorf("n=%d: p%v, want p%v", tc.n, got, tc.want)
		}
		if beyond := tc.n - rankOf(got, tc.n); got > 50 && beyond < 10 {
			t.Errorf("n=%d: p%v leaves %d samples beyond", tc.n, got, beyond)
		}
	}
}

func TestQuartilesMatchPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 2.25]
	if q1, q3 = quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("two samples: %v, %v", q1, q3)
	}
}

func TestSelfTimeMergesOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "p", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},  // overlaps a
		{Name: "c", Start: 90, End: 120, Parent: 0}, // runs past the parent
		{Name: "d", Start: 35, End: 38, Parent: 2},  // grandchild: b's, not p's
		{Name: "open", Start: 50, End: -1, Parent: 0},
	}
	got := selfTimes(spans)
	want := []int64{100 - 50 - 10, 30, 27, 30, 3, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %q: self %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	r := &recorder{spans: spans}
	busy := layerBusyMs(r.byName())
	if len(busy) != 5 || busy["p"] != 40e-6 {
		t.Errorf("layer busy = %v", busy)
	}
}

func loadTestSpec(t *testing.T) *spec {
	t.Helper()
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// smoke runs one workload at smoke scale and fails the test on any
// failed output check.
func smoke(t *testing.T, w workload, seed int64, traced bool) (*outcome, *recorder) {
	t.Helper()
	c := &runCtx{sc: smokeScale, seed: seed, seconds: 0.2, traced: traced}
	if traced {
		c.rec = newRecorder()
	}
	out, err := w.run(c)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	if len(out.failures) > 0 || out.failed > 0 || out.attempted == 0 {
		t.Fatalf("%s: attempted %d, failed %d: %v", w.name, out.attempted, out.failed, out.failures)
	}
	return out, c.rec
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestSmokeWorkloadsPrintTheDeclaredMetrics(t *testing.T) {
	sp := loadTestSpec(t)
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(sp.Workloads), len(workloads))
	}
	set := map[string]bool{} // layer metrics some workload fills
	for i, w := range workloads {
		if sp.Workloads[i].Name != w.name {
			t.Errorf("workload %d: declared %q, program %q", i, sp.Workloads[i].Name, w.name)
		}
		out, _ := smoke(t, w, 1, false)
		v := out.verdict(sp, false, nil)
		if len(v.Metrics) != len(sp.EndToEnd) {
			t.Errorf("%s prints %d end-to-end metrics, %d declared", w.name, len(v.Metrics), len(sp.EndToEnd))
		}
		for name, m := range v.Metrics {
			if !nameRE.MatchString(name) {
				t.Errorf("%s: metric name %q", w.name, name)
			}
			if !(m.Value > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, name, m.Value)
			}
		}

		out, rec := smoke(t, w, 1, true)
		v = out.verdict(sp, true, rec)
		if len(v.Metrics) != len(sp.PerLayer) {
			t.Errorf("%s prints %d per-layer metrics, %d declared", w.name, len(v.Metrics), len(sp.PerLayer))
		}
		for name, val := range out.layer {
			if _, ok := v.Metrics[name]; !ok {
				t.Errorf("%s computes %s, which BENCHMARK.json does not declare", w.name, name)
			}
			if val != 0 {
				set[name] = true
			}
		}
		if share := out.layer["scion.paths_decomposed_share"]; w.name == "endpoint_cold" && (share < 0.5 || share > 2) {
			t.Errorf("decomposed lookup takes %.2f of Paths", share)
		}
	}
	for _, m := range sp.PerLayer {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("declared metric name %q", m.Name)
		}
		// These may legitimately read 0 at smoke scale.
		if !set[m.Name] && !strings.HasPrefix(m.Name, "dataplane.unaccounted") && !strings.HasPrefix(m.Name, "runtime.gc") &&
			m.Name != "seg.encode_allocs" && m.Name != "pathsrv.empty_share" {
			t.Errorf("no workload fills declared metric %s", m.Name)
		}
	}
	for _, name := range exactMetrics {
		if _, ok := sp.metric(name); !ok {
			t.Errorf("exact metric %s is not declared", name)
		}
	}
}

func TestSameSeedRepeatsExactMetrics(t *testing.T) {
	for _, w := range workloads {
		a, _ := smoke(t, w, 7, false)
		b, _ := smoke(t, w, 7, false)
		if len(a.exact) == 0 {
			t.Errorf("%s reports no exact metric", w.name)
		}
		for k, v := range a.exact {
			if b.exact[k] != v {
				t.Errorf("%s: %s = %v then %v for the same seed", w.name, k, v, b.exact[k])
			}
		}
	}
}

func TestSeedPermutesOperations(t *testing.T) {
	// The populations are fixed (see scale); the seed picks, among other
	// things, the faulty leg's failed link and tampered packets.
	seen := map[float64]bool{}
	for seed := int64(1); seed <= 4; seed++ {
		c := &runCtx{sc: smokeScale, seed: seed, seconds: 0.2}
		e, err := fwdSetup(c)
		if err != nil {
			t.Fatal(err)
		}
		tampered := 0
		for i, p := range e.flows[legFaulty] {
			if p.tampered {
				tampered += i + 1
			}
		}
		seen[float64(tampered)*1e6+float64(e.failed)] = true
	}
	if len(seen) < 2 {
		t.Errorf("four seeds chose the same faults")
	}
}

func TestRunRefusesWorkerOverride(t *testing.T) {
	t.Setenv("SCIONMPR_WORKERS", "3")
	err := run("fig5_ctrl", 1, 0.2, false, "", "", "../BENCHMARK.json")
	if err == nil || !strings.Contains(err.Error(), "SCIONMPR_WORKERS") {
		t.Errorf("run with SCIONMPR_WORKERS set: %v", err)
	}
}

func writeRecords(t *testing.T, name string, values map[string][]float64) string {
	t.Helper()
	var buf bytes.Buffer
	n := 0
	for _, xs := range values {
		n = len(xs)
	}
	for i := 0; i < n; i++ {
		r := record{Workload: "w", verdict: verdict{Correct: true, Attempted: 1, Metrics: map[string]metricValue{}}}
		for m, xs := range values {
			r.Metrics[m] = metricValue{Value: xs[i]}
		}
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(append(b, '\n'))
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareVerdicts(t *testing.T) {
	base := map[string][]float64{
		"ops_per_s": {100, 101, 99, 100, 100}, "op_ms_p50": {10, 10.1, 9.9, 10, 10},
		"op_ms_p90": {10, 20, 30, 40, 50}, "sim.events": {7, 7, 7, 7, 7},
	}
	a := writeRecords(t, "a.jsonl", base)
	for _, tc := range []struct {
		name   string
		change func(map[string][]float64)
		code   int
		want   string
	}{
		{"same", func(map[string][]float64) {}, 0, "within 20%"},
		{"slower throughput", func(m map[string][]float64) { m["ops_per_s"] = []float64{70, 70, 70, 70, 70} }, 1, "REGRESSION: 30.0% worse"},
		{"faster throughput", func(m map[string][]float64) { m["ops_per_s"] = []float64{150, 150, 150, 150, 150} }, 0, "1.500x A"},
		{"slower latency", func(m map[string][]float64) { m["op_ms_p50"] = []float64{13, 13, 13, 13, 13} }, 1, "REGRESSION: 30.0% worse"},
		{"noisy base", func(m map[string][]float64) { m["op_ms_p90"] = []float64{90, 90, 90, 90, 90} }, 0, "unresolved"},
		{"exact differs", func(m map[string][]float64) { m["sim.events"] = []float64{7, 7, 7, 7, 8} }, 1, "EXACT METRIC DIFFERS"},
	} {
		changed := map[string][]float64{}
		for k, v := range base {
			changed[k] = v
		}
		tc.change(changed)
		b := writeRecords(t, "b.jsonl", changed)
		var out bytes.Buffer
		code := compareMain([]string{"-spec", "../BENCHMARK.json", a, b}, &out)
		if code != tc.code || !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: exit %d, want %d, and %q in:\n%s", tc.name, code, tc.code, tc.want, out.String())
		}
	}
}
