// Package metrics provides the statistical helpers behind the paper's
// figures: empirical CDFs, quantiles, and plain-text renderings of CDF
// curves and tables suitable for terminal output and EXPERIMENTS.md; and
// the deterministic samplers workloads draw from (Zipf popularity ranks,
// exponential think times).
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// CDF is an empirical cumulative distribution over float samples.
type CDF struct {
	xs []float64 // sorted
}

// NewCDF builds a CDF; the input slice is copied. NaN samples are
// dropped — they carry no ordering information, and a NaN breaks the
// sortedness invariant every query relies on (sort.Float64s leaves NaNs
// in unspecified positions). ±Inf samples are kept and sort to the
// extremes.
func NewCDF(samples []float64) *CDF {
	xs := make([]float64, 0, len(samples))
	for _, v := range samples {
		if !math.IsNaN(v) {
			xs = append(xs, v)
		}
	}
	sort.Float64s(xs)
	return &CDF{xs: xs}
}

// At returns the empirical P(X <= x). On an empty distribution every
// probability is 0 (no sample is <= x); At(NaN) is NaN.
func (c *CDF) At(x float64) float64 {
	if math.IsNaN(x) {
		return math.NaN()
	}
	if len(c.xs) == 0 {
		return 0
	}
	if math.IsInf(x, 1) {
		return 1 // every sample is <= +Inf, including +Inf samples
	}
	i := sort.SearchFloat64s(c.xs, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(c.xs))
}

// Quantile returns the q-quantile (0 <= q <= 1) by the nearest-rank
// convention: the smallest stored sample x such that at least ⌈q·n⌉
// samples are <= x, i.e. xs[⌈q·n⌉-1] of the sorted samples. The result
// is always an actual sample (no interpolation), q <= 0 yields the
// minimum and q >= 1 the maximum. An empty distribution and Quantile(NaN)
// yield NaN.
func (c *CDF) Quantile(q float64) float64 {
	if len(c.xs) == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q <= 0 {
		return c.xs[0]
	}
	if q >= 1 {
		return c.xs[len(c.xs)-1]
	}
	i := int(math.Ceil(q*float64(len(c.xs)))) - 1
	if i < 0 {
		i = 0
	}
	return c.xs[i]
}

// Min returns the smallest sample.
func (c *CDF) Min() float64 { return c.Quantile(0) }

// Max returns the largest sample.
func (c *CDF) Max() float64 { return c.Quantile(1) }

// Median returns the 0.5 quantile.
func (c *CDF) Median() float64 { return c.Quantile(0.5) }

// Mean returns the arithmetic mean.
func (c *CDF) Mean() float64 {
	if len(c.xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range c.xs {
		s += x
	}
	return s / float64(len(c.xs))
}

// Floats converts an integer sample set.
func Floats[T ~int | ~int64 | ~uint64 | ~float64](in []T) []float64 {
	out := make([]float64, len(in))
	for i, v := range in {
		out[i] = float64(v)
	}
	return out
}

// Series is a named CDF for figure rendering.
type Series struct {
	Name string
	CDF  *CDF
}

// FprintCDFs renders the series as a quantile table: one row per
// quantile, one column per series — the textual equivalent of the paper's
// CDF figures.
func FprintCDFs(w io.Writer, title string, series []Series) {
	fmt.Fprintf(w, "== %s ==\n", title)
	if len(series) == 0 {
		fmt.Fprintln(w, "(no data)")
		return
	}
	fmt.Fprintf(w, "%-8s", "quantile")
	for _, s := range series {
		fmt.Fprintf(w, " %22s", truncate(s.Name, 22))
	}
	fmt.Fprintln(w)
	for _, q := range []float64{0.05, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 1.00} {
		fmt.Fprintf(w, "p%-7.0f", q*100)
		for _, s := range series {
			fmt.Fprintf(w, " %22s", fmtVal(s.CDF.Quantile(q)))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-8s", "mean")
	for _, s := range series {
		fmt.Fprintf(w, " %22s", fmtVal(s.CDF.Mean()))
	}
	fmt.Fprintln(w)
}

func fmtVal(v float64) string {
	switch {
	case math.IsNaN(v):
		return "-"
	case math.IsInf(v, 1):
		return "inf"
	case v != 0 && (math.Abs(v) < 0.01 || math.Abs(v) >= 1e6):
		return fmt.Sprintf("%.3e", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}

// Table is a simple aligned text table for Table 1 style output.
type Table struct {
	Header []string
	Rows   [][]string
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		var sb strings.Builder
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			if i < len(widths) {
				sb.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		fmt.Fprintln(w, strings.TrimRight(sb.String(), " "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
}

// FprintHistogram renders an ASCII bar histogram of the samples with the
// given number of equal-width buckets — the terminal rendering used by
// `go run ./cmd/scionmpr beaconsim` for bandwidth distributions.
func FprintHistogram(w io.Writer, title string, samples []float64, buckets int) {
	fmt.Fprintf(w, "== %s ==\n", title)
	if len(samples) == 0 || buckets < 1 {
		fmt.Fprintln(w, "(no data)")
		return
	}
	c := NewCDF(samples)
	lo, hi := c.Min(), c.Max()
	if hi == lo {
		fmt.Fprintf(w, "all %d samples = %s\n", len(samples), fmtVal(lo))
		return
	}
	width := (hi - lo) / float64(buckets)
	counts := make([]int, buckets)
	for _, x := range samples {
		i := int((x - lo) / width)
		if i >= buckets {
			i = buckets - 1
		}
		counts[i]++
	}
	maxCount := 0
	for _, n := range counts {
		if n > maxCount {
			maxCount = n
		}
	}
	const barWidth = 40
	for i, n := range counts {
		bar := ""
		if maxCount > 0 {
			bar = strings.Repeat("#", n*barWidth/maxCount)
		}
		fmt.Fprintf(w, "[%10s, %10s) %5d %s\n",
			fmtVal(lo+float64(i)*width), fmtVal(lo+float64(i+1)*width), n, bar)
	}
}

// FmtBytes renders a byte count with a binary unit prefix (B, KiB, MiB,
// GiB, TiB), the format used by traffic summaries.
func FmtBytes(v float64) string {
	units := []string{"B", "KiB", "MiB", "GiB", "TiB"}
	i := 0
	for v >= 1024 && i < len(units)-1 {
		v /= 1024
		i++
	}
	if i == 0 {
		return fmt.Sprintf("%.0f %s", v, units[i])
	}
	return fmt.Sprintf("%.2f %s", v, units[i])
}

// FmtRate renders a byte rate as bytes-per-second with a binary prefix.
func FmtRate(v float64) string { return FmtBytes(v) + "/s" }

// OrderOfMagnitude returns log10(a/b), the "orders of magnitude" language
// the paper uses for overhead comparisons.
func OrderOfMagnitude(a, b float64) float64 {
	if a <= 0 || b <= 0 {
		return math.NaN()
	}
	return math.Log10(a / b)
}
