package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// compareMain implements `compare A B`: one row per (workload, metric)
// with each side's median and quartiles and the ratio B÷A, judged
// against the bounds of BENCHMARK.json. It returns the exit code: 1 when
// an end-to-end metric regressed or an exact metric differs.
func compareMain(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("spec", "../BENCHMARK.json", "the benchmark's declaration")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: compare [-spec BENCHMARK.json] A.jsonl B.jsonl")
		return 2
	}
	sp, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	var sets [2]map[rowKey][]float64
	for i := range sets {
		if sets[i], err = readRecords(fs.Arg(i)); err != nil {
			fmt.Fprintln(os.Stderr, "compare:", err)
			return 2
		}
	}
	return compareSets(sp, sets[0], sets[1], w)
}

type rowKey struct{ workload, metric string }

func readRecords(path string) (map[rowKey][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[rowKey][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for name, m := range r.Metrics {
			k := rowKey{r.Workload, name}
			out[k] = append(out[k], m.Value)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s holds no runs", path)
	}
	return out, nil
}

func compareSets(sp *spec, a, b map[rowKey][]float64, w io.Writer) int {
	keys := make([]rowKey, 0, len(a))
	for k := range a {
		if _, ok := b[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	fmt.Fprintf(w, "%-15s %-32s %14s %27s %14s %27s %9s  %s\n", "workload", "metric", "A median", "A quartiles", "B median", "B quartiles", "B/A", "verdict")
	code := 0
	for _, k := range keys {
		ma, mb := median(a[k]), median(b[k])
		a1, a3 := quartiles(a[k])
		b1, b3 := quartiles(b[k])
		ratio := "n/a"
		if ma != 0 {
			ratio = fmt.Sprintf("%.3fx A", mb/ma)
		}
		verdict := ""
		m, declared := sp.metric(k.metric)
		switch {
		case sp.exact[k.metric]:
			verdict = "exact, equal"
			if ma != mb || a1 != a3 || b1 != b3 {
				verdict, code = "EXACT METRIC DIFFERS", 1
			}
		case declared && m.Bound > 0 && ma != 0:
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			switch {
			case (a3-a1)/ma > m.Bound:
				verdict = fmt.Sprintf("unresolved: A's own spread %.1f%% exceeds the %.0f%% bound", 100*(a3-a1)/ma, 100*m.Bound)
			case worse > m.Bound:
				verdict, code = fmt.Sprintf("REGRESSION: %.1f%% worse, bound %.0f%%", 100*worse, 100*m.Bound), 1
			default:
				verdict = fmt.Sprintf("within %.0f%%", 100*m.Bound)
			}
		}
		fmt.Fprintf(w, "%-15s %-32s %14.6g [%12.6g %12.6g] %14.6g [%12.6g %12.6g] %9s  %s\n",
			k.workload, k.metric, ma, a1, a3, mb, b1, b3, ratio, verdict)
	}
	return code
}
