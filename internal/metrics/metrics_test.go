package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestCDFBasics(t *testing.T) {
	c := NewCDF([]float64{3, 1, 2, 4})
	if len(c.xs) != 4 {
		t.Fatal("len")
	}
	if got := c.At(2); got != 0.5 {
		t.Errorf("At(2) = %v", got)
	}
	if got := c.At(0.5); got != 0 {
		t.Errorf("At(0.5) = %v", got)
	}
	if got := c.At(4); got != 1 {
		t.Errorf("At(4) = %v", got)
	}
	if c.Min() != 1 || c.Max() != 4 || c.Median() != 2 {
		t.Errorf("min/max/median = %v/%v/%v", c.Min(), c.Max(), c.Median())
	}
	if c.Mean() != 2.5 {
		t.Errorf("mean = %v", c.Mean())
	}
}

func TestCDFEmpty(t *testing.T) {
	c := NewCDF(nil)
	if c.At(5) != 0 || c.At(math.Inf(1)) != 0 {
		t.Error("empty At must be 0 everywhere")
	}
	if !math.IsNaN(c.Quantile(0.5)) || !math.IsNaN(c.Mean()) {
		t.Error("empty quantile/mean must be NaN")
	}
	if !math.IsNaN(c.Quantile(0)) || !math.IsNaN(c.Quantile(1)) {
		t.Error("empty min/max quantiles must be NaN")
	}
}

func TestCDFDropsNaNSamples(t *testing.T) {
	c := NewCDF([]float64{3, math.NaN(), 1, math.NaN(), 2})
	if len(c.xs) != 3 {
		t.Fatalf("Len = %d, want 3 (NaNs dropped)", len(c.xs))
	}
	if c.Min() != 1 || c.Max() != 3 || c.Median() != 2 {
		t.Errorf("min/max/median = %v/%v/%v", c.Min(), c.Max(), c.Median())
	}
	// Quantiles must stay monotone and well-defined at every q — the
	// pre-filter failure mode was NaNs landing mid-slice and breaking
	// the binary search and rank lookups.
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0; q += 0.05 {
		v := c.Quantile(q)
		if math.IsNaN(v) || v < prev {
			t.Fatalf("Quantile(%.2f) = %v after %v", q, v, prev)
		}
		prev = v
	}
	// All-NaN input behaves exactly like empty input.
	allNaN := NewCDF([]float64{math.NaN(), math.NaN()})
	if len(allNaN.xs) != 0 || allNaN.At(1) != 0 || !math.IsNaN(allNaN.Quantile(0.5)) {
		t.Error("all-NaN input must behave as empty")
	}
}

func TestCDFAtSpecialInputs(t *testing.T) {
	c := NewCDF([]float64{1, 2, math.Inf(1)})
	if !math.IsNaN(c.At(math.NaN())) {
		t.Error("At(NaN) must be NaN")
	}
	if got := c.At(math.Inf(1)); got != 1 {
		t.Errorf("At(+Inf) = %v, want 1 (counts +Inf samples)", got)
	}
	if got := c.At(math.Inf(-1)); got != 0 {
		t.Errorf("At(-Inf) = %v, want 0", got)
	}
	if got := c.At(2); got != 2.0/3.0 {
		t.Errorf("At(2) = %v, want 2/3", got)
	}
	if !math.IsNaN(c.Quantile(math.NaN())) {
		t.Error("Quantile(NaN) must be NaN")
	}
}

// TestQuantileNearestRank pins the documented convention: the result is
// sample ⌈q·n⌉-1 of the sorted slice, always an actual sample.
func TestQuantileNearestRank(t *testing.T) {
	c := NewCDF([]float64{10, 20, 30, 40})
	cases := []struct {
		q    float64
		want float64
	}{
		{0, 10}, {0.1, 10}, {0.25, 10}, {0.26, 20}, {0.5, 20},
		{0.51, 30}, {0.75, 30}, {0.76, 40}, {1, 40},
	}
	for _, tc := range cases {
		if got := c.Quantile(tc.q); got != tc.want {
			t.Errorf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		var xs []float64
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		c := NewCDF(xs)
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := c.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFloats(t *testing.T) {
	got := Floats([]uint64{1, 2, 3})
	if len(got) != 3 || got[2] != 3 {
		t.Errorf("floats = %v", got)
	}
}

func TestFprintCDFs(t *testing.T) {
	var sb strings.Builder
	FprintCDFs(&sb, "demo", []Series{
		{Name: "a", CDF: NewCDF([]float64{1, 2, 3})},
		{Name: "a-very-long-series-name-overflow", CDF: NewCDF([]float64{1e9, 2e9})},
	})
	out := sb.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "p50") {
		t.Errorf("output missing parts:\n%s", out)
	}
	if !strings.Contains(out, "e+09") {
		t.Error("large values must use scientific notation")
	}
	var empty strings.Builder
	FprintCDFs(&empty, "none", nil)
	if !strings.Contains(empty.String(), "no data") {
		t.Error("empty series output")
	}
}

func TestTable(t *testing.T) {
	tab := &Table{
		Header: []string{"component", "scope", "frequency"},
		Rows: [][]string{
			{"core beaconing", "global", "minutes"},
			{"lookup", "AS", "seconds"},
		},
	}
	var sb strings.Builder
	tab.Fprint(&sb)
	out := sb.String()
	if !strings.Contains(out, "core beaconing") || !strings.Contains(out, "---") {
		t.Errorf("table output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Errorf("table lines = %d", len(lines))
	}
}

func TestOrderOfMagnitude(t *testing.T) {
	if om := OrderOfMagnitude(1000, 10); math.Abs(om-2) > 1e-9 {
		t.Errorf("oom = %v", om)
	}
	if !math.IsNaN(OrderOfMagnitude(0, 1)) {
		t.Error("zero input must be NaN")
	}
}

func TestFprintHistogram(t *testing.T) {
	var sb strings.Builder
	FprintHistogram(&sb, "bw", []float64{1, 2, 2, 3, 10}, 3)
	out := sb.String()
	if !strings.Contains(out, "bw") || !strings.Contains(out, "#") {
		t.Errorf("histogram output:\n%s", out)
	}
	var empty strings.Builder
	FprintHistogram(&empty, "none", nil, 3)
	if !strings.Contains(empty.String(), "no data") {
		t.Error("empty histogram output")
	}
	var flat strings.Builder
	FprintHistogram(&flat, "flat", []float64{5, 5, 5}, 3)
	if !strings.Contains(flat.String(), "all 3 samples") {
		t.Error("degenerate histogram output")
	}
}

func TestFmtBytes(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{0, "0 B"},
		{512, "512 B"},
		{1024, "1.00 KiB"},
		{1536, "1.50 KiB"},
		{4 << 20, "4.00 MiB"},
		{1.25e9, "1.16 GiB"},
		{3 << 40, "3.00 TiB"},
		{1 << 50, "1024.00 TiB"},
	}
	for _, c := range cases {
		if got := FmtBytes(c.in); got != c.want {
			t.Errorf("FmtBytes(%v) = %q, want %q", c.in, got, c.want)
		}
	}
	if got := FmtRate(2048); got != "2.00 KiB/s" {
		t.Errorf("FmtRate(2048) = %q", got)
	}
}

func TestZipfRanks(t *testing.T) {
	z := NewZipfRanks(100, 1.2, 42)
	counts := make([]int, 100)
	for i := 0; i < 5000; i++ {
		counts[z.Next()]++
	}
	// The most popular rank must dominate the tail.
	if counts[0] < 10*counts[99]+1 {
		t.Errorf("Zipf skew too weak: head=%d tail=%d", counts[0], counts[99])
	}
	// An empty rank set is clamped to one rank.
	if r := NewZipfRanks(0, 1.2, 1).Next(); r != 0 {
		t.Errorf("empty rank set drew %d, want 0", r)
	}
}

func TestThinkTimes(t *testing.T) {
	tt := NewThinkTimes(100*time.Millisecond, 10*time.Millisecond, 7)
	var sum time.Duration
	const n = 20000
	for i := 0; i < n; i++ {
		d := tt.Next()
		if d < 10*time.Millisecond {
			t.Fatalf("think time %v below floor", d)
		}
		sum += d
	}
	mean := sum / n
	// Exponential with mean 100ms and a 10ms floor: the sample mean must
	// land near 100ms (the floor adds a few percent).
	if mean < 90*time.Millisecond || mean > 125*time.Millisecond {
		t.Errorf("sample mean = %v, want ~100ms", mean)
	}
	// Same seed, same stream.
	a, b := NewThinkTimes(time.Second, 0, 42), NewThinkTimes(time.Second, 0, 42)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("equal seeds must yield identical think-time streams")
		}
	}
	// Defaults: non-positive mean falls back to 1s, min clamped to mean.
	d := NewThinkTimes(0, 5*time.Second, 1)
	if d.mean != float64(time.Second) || d.min != d.mean {
		t.Errorf("defaults: mean=%v min=%v", d.mean, d.min)
	}
}
