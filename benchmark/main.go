// Command benchmark measures this repository end to end and layer by
// layer; README.md describes the workloads and metrics. It is run from
// the repository root:
//
//	go run -C benchmark . -workload all -seed 1
//	go run -C benchmark . -workload forward_steady -seed 1 -trace 1 -spans spans.json
//	go run -C benchmark . compare A.jsonl B.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// verdict is the last line of a run's standard output.
type verdict struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one run as -out appends it and compare reads it.
type record struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      int     `json:"trace"`
	GitRev     string  `json:"git_rev"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GOGC       string  `json:"gogc"`
	WallS      float64 `json:"wall_s"`
	verdict
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	name := flag.String("workload", "all", "workload name, or all")
	seed := flag.Int64("seed", 1, "permutes the fixed populations and drives every draw")
	seconds := flag.Float64("seconds", 20, "length of the measured window")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	spans := flag.String("spans", "", "with -trace 1, write the spans to this file")
	outFile := flag.String("out", "", "append one JSON record per run to this file, for compare")
	specPath := flag.String("spec", "../BENCHMARK.json", "the benchmark's declaration")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1, *spans, *outFile, *specPath); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced bool, spansFile, outFile, specPath string) error {
	// SCIONMPR_WORKERS silently replaces the Workers: 0 default that the
	// workloads are there to measure.
	if v := os.Getenv("SCIONMPR_WORKERS"); v != "" {
		return fmt.Errorf("SCIONMPR_WORKERS=%s is set; unset it", v)
	}
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	sp, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	if name == "all" {
		return runEach(seed, seconds, traced, spansFile, outFile, specPath)
	}
	i := slices.IndexFunc(workloads, func(w workload) bool { return w.name == name })
	if i < 0 {
		return fmt.Errorf("unknown workload %q", name)
	}
	w := workloads[i]
	c := &runCtx{sc: fullScale, seed: seed, seconds: seconds, traced: traced}
	if traced {
		c.rec = newRecorder()
	}
	t0 := time.Now()
	out, err := w.run(c)
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	rec := record{
		Workload: w.name, Seed: seed, Seconds: seconds, GitRev: gitRev(), GoVersion: runtime.Version(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GOGC: gogc(),
		WallS: time.Since(t0).Seconds(), verdict: out.verdict(sp, traced, c.rec),
	}
	if traced {
		rec.Trace = 1
	}
	printRun(os.Stdout, &rec, out, sp)
	if traced && spansFile != "" {
		if err := c.rec.writeFile(spansFile); err != nil {
			return err
		}
	}
	if outFile != "" {
		if err := appendRecord(outFile, &rec); err != nil {
			return err
		}
	}
	line, err := json.Marshal(rec.verdict)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rec.Correct {
		return fmt.Errorf("%s: output checks failed", w.name)
	}
	return nil
}

// runEach runs every workload in a process of its own, one after the
// other, so that each reports its own peak memory and starts from a
// fresh heap, as under the driver.
func runEach(seed int64, seconds float64, traced bool, spansFile, outFile, specPath string) error {
	var failed []string
	for _, w := range workloads {
		args := []string{"-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-out", outFile, "-spec", specPath}
		if traced {
			args = append(args, "-trace", "1")
			if spansFile != "" {
				args = append(args, "-spans", filepath.Join(filepath.Dir(spansFile), w.name+"."+filepath.Base(spansFile)))
			}
		}
		cmd := exec.Command(os.Args[0], args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			failed = append(failed, w.name)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("failed: %s", strings.Join(failed, ", "))
	}
	return nil
}

// verdict assembles the metrics the spec declares: the end-to-end set
// untraced, the per-layer set traced. A layer a workload never calls
// reports 0.
func (o *outcome) verdict(sp *spec, traced bool, rec *recorder) verdict {
	v := verdict{Correct: len(o.failures) == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	if !traced {
		vals := map[string]float64{
			"setup_s": o.setupS, "peak_rss_mb": peakRSSMB(), "ops_per_s": o.opsPerS,
			"op_ms_p50": median(o.opMs), "op_ms_p90": percentile(o.opMs, 90),
		}
		for _, m := range sp.EndToEnd {
			v.Metrics[m.Name] = metricValue{vals[m.Name], m.Unit}
		}
		return v
	}
	for name, val := range o.exact {
		o.layer[name] = val
	}
	for layer, ms := range layerBusyMs(rec.byName()) {
		o.layer[layer+".busy_ms"] = ms
	}
	o.layer["trace.spans"] = float64(len(rec.spans))
	for _, m := range sp.PerLayer {
		v.Metrics[m.Name] = metricValue{o.layer[m.Name], m.Unit}
	}
	return v
}

func printRun(w *os.File, r *record, o *outcome, sp *spec) {
	fmt.Fprintf(w, "# %s seed=%d seconds=%g trace=%d rev=%s %s nproc=%d GOMAXPROCS=%d GOGC=%s wall=%.1fs\n",
		r.Workload, r.Seed, r.Seconds, r.Trace, r.GitRev, r.GoVersion, r.NProc, r.GOMAXPROCS, r.GOGC, r.WallS)
	fmt.Fprintf(w, "# times are host time; nothing crosses a real link or loopback; operations: %d, p90 has %d samples beyond it\n",
		len(o.opMs), len(o.opMs)-rankOf(90, max(1, len(o.opMs))))
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		note := ""
		if sp.exact[n] {
			note = "  (exact)"
		}
		fmt.Fprintf(w, "%-36s %16s %s%s\n", n, strconv.FormatFloat(m.Value, 'f', -1, 64), m.Unit, note)
	}
	for _, f := range o.failures {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", f)
	}
}

func appendRecord(path string, r *record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	b, err := json.Marshal(r)
	if err == nil {
		_, err = f.Write(append(b, '\n'))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func gogc() string {
	if v := os.Getenv("GOGC"); v != "" {
		return v
	}
	return "100"
}

// gitRev reads the checked-out commit without starting git; the driver's
// checkouts are not repositories, and report "unknown".
func gitRev() string {
	head, err := os.ReadFile("../.git/HEAD")
	if err != nil {
		return "unknown"
	}
	s := strings.TrimSpace(string(head))
	if ref, ok := strings.CutPrefix(s, "ref: "); ok {
		b, err := os.ReadFile("../.git/" + ref)
		if err != nil {
			return "unknown"
		}
		s = strings.TrimSpace(string(b))
	}
	if len(s) > 12 {
		s = s[:12]
	}
	return s
}

// peakRSSMB is the process's VmHWM.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}
