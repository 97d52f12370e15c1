package telemetry

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"testing"
)

func TestNilRegistryIsNoop(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total")
	c.Cell(0).Add(5)
	c.Cell(3).Add(7)
	if got := c.Value(); got != 0 {
		t.Fatalf("nil counter Value = %d, want 0", got)
	}
	g := r.VolatileGauge("g")
	g.Set(3)
	if g != nil {
		t.Fatal("nil registry returned a gauge")
	}
	r.GaugeFunc("f", func() float64 { return 1 })
	h := r.Histogram("h", ExpBuckets(1, 2, 4))
	h.Observe(2)
	h.Cell(9).Observe(3)
	var buf bytes.Buffer
	if err := r.WriteSnapshot(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil registry snapshot = %q, %v", buf.String(), err)
	}
	if err := r.WriteProm(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil registry prom = %q, %v", buf.String(), err)
	}
}

func TestCounterShardMerge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("msgs_total")
	// Resolve cells first (setup), then increment as shard owners would.
	cells := []*Cell{c.Cell(0), c.Cell(1), c.Cell(2)}
	cells[0].Add(1)
	cells[1].Add(10)
	cells[2].Add(100)
	cells[1].Inc()
	if got := c.Value(); got != 112 {
		t.Fatalf("Value = %d, want 112", got)
	}
	// Same name returns the same counter.
	if r.Counter("msgs_total") != c {
		t.Fatal("same name must return the same counter")
	}
}

func TestHistogramMerge(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", []float64{1, 10})
	h.Cell(0).Observe(0.5)  // bucket le=1
	h.Cell(1).Observe(5)    // bucket le=10
	h.Cell(1).Observe(50)   // +Inf
	h.Cell(2).Observe(0.25) // bucket le=1
	counts, count, sum := h.merged()
	if want := []uint64{2, 1, 1}; len(counts) != 3 || counts[0] != want[0] || counts[1] != want[1] || counts[2] != want[2] {
		t.Fatalf("merged counts = %v, want %v", counts, want)
	}
	if count != 4 || sum != 55.75 {
		t.Fatalf("merged count/sum = %d/%g, want 4/55.75", count, sum)
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1, 4, 3)
	want := []float64{1, 4, 16}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", got, want)
		}
	}
}

func TestGaugeFuncSumsDuplicates(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("live", func() float64 { return 3 })
	r.GaugeFunc("live", func() float64 { return 4 })
	var buf bytes.Buffer
	if err := r.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), "live 7\n"; got != want {
		t.Fatalf("snapshot = %q, want %q", got, want)
	}
}

func TestSnapshotExcludesVolatile(t *testing.T) {
	r := NewRegistry()
	r.Counter("det_total").Cell(0).Add(1)
	r.VolatileGauge("wall_g").Set(4)
	r.VolatileGaugeFunc("wall_f", func() float64 { return 5 })

	var snap bytes.Buffer
	if err := r.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	want := "det_total 1\n"
	if snap.String() != want {
		t.Fatalf("snapshot = %q, want %q", snap.String(), want)
	}

	var prom bytes.Buffer
	if err := r.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"det_total", "wall_g", "wall_f"} {
		if !strings.Contains(prom.String(), name) {
			t.Fatalf("prom output missing %s:\n%s", name, prom.String())
		}
	}
	if !strings.Contains(prom.String(), "# TYPE det_total counter") {
		t.Fatalf("prom output missing TYPE line:\n%s", prom.String())
	}
}

func TestSnapshotStableAcrossInsertionOrder(t *testing.T) {
	build := func(names []string) string {
		r := NewRegistry()
		for i, n := range names {
			r.Counter(n).Cell(0).Add(uint64(i + 1))
		}
		var buf bytes.Buffer
		r.WriteSnapshot(&buf)
		return buf.String()
	}
	a := build([]string{"a_total", "b_total", "c_total"})
	// Same values registered in reverse order must render identically.
	r := NewRegistry()
	r.Counter("c_total").Cell(0).Add(3)
	r.Counter("b_total").Cell(0).Add(2)
	r.Counter("a_total").Cell(0).Add(1)
	var buf bytes.Buffer
	r.WriteSnapshot(&buf)
	if a != buf.String() {
		t.Fatalf("snapshot depends on registration order:\n%q\n%q", a, buf.String())
	}
}

func TestHistogramRendering(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram(`dur_seconds{mode="core"}`, []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(50)
	var buf bytes.Buffer
	if err := r.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	want := `dur_seconds_bucket{mode="core",le="+Inf"} 3
dur_seconds_bucket{mode="core",le="1"} 1
dur_seconds_bucket{mode="core",le="10"} 2
dur_seconds_count{mode="core"} 3
dur_seconds_sum{mode="core"} 55.5
`
	if buf.String() != want {
		t.Fatalf("histogram snapshot:\n%s\nwant:\n%s", buf.String(), want)
	}
}

func TestWriteJSONIsValid(t *testing.T) {
	r := NewRegistry()
	r.Counter(`c_total{reason="a\b"}`).Cell(0).Add(1)
	r.VolatileGauge("g").Set(2.5)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	// Must be one valid JSON object line.
	s := buf.String()
	if !strings.HasSuffix(s, "}\n") || !strings.HasPrefix(s, "{") {
		t.Fatalf("WriteJSON = %q", s)
	}
	if !strings.Contains(s, `"g":2.5`) {
		t.Fatalf("WriteJSON missing gauge: %q", s)
	}
}

func TestFmtFloat(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{0, "0"},
		{3, "3"},
		{-7, "-7"},
		{2.5, "2.5"},
		{1e20, "1e+20"},
	}
	for _, c := range cases {
		if got := fmtFloat(c.in); got != c.want {
			t.Errorf("fmtFloat(%g) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestStages(t *testing.T) {
	r := NewRegistry()
	var log bytes.Buffer
	s := NewStages(r, &log, "test")
	s.Done("alpha")
	s.Done("beta")
	if len(s.Stages) != 2 || s.Stages[0].Name != "alpha" || s.Stages[1].Name != "beta" {
		t.Fatalf("stages = %+v", s.Stages)
	}
	// Stage gauges are volatile: visible in Prom, absent from the snapshot.
	var snap, prom bytes.Buffer
	r.WriteSnapshot(&snap)
	r.WriteProm(&prom)
	if strings.Contains(snap.String(), "stage_wall_seconds") {
		t.Fatalf("volatile stage timer leaked into snapshot:\n%s", snap.String())
	}
	if !strings.Contains(prom.String(), `stage_wall_seconds{stage="alpha"}`) {
		t.Fatalf("prom output missing stage timer:\n%s", prom.String())
	}
	if !strings.Contains(log.String(), "[test] alpha") {
		t.Fatalf("log = %q", log.String())
	}
	// Nil Stages is a no-op.
	var nilStages *Stages
	nilStages.Done("x")
}

func TestServe(t *testing.T) {
	r := NewRegistry()
	r.Counter("served_total").Cell(0).Add(42)
	tr := NewTracer(8)
	tr.Emit(Event{Kind: BeaconOriginated, Actor: 1})
	addr, err := Serve("127.0.0.1:0", r, tr)
	if err != nil {
		t.Fatal(err)
	}
	get := func(path string) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return string(b)
	}
	if body := get("/metrics"); !strings.Contains(body, "served_total 42") {
		t.Fatalf("/metrics = %q", body)
	}
	if body := get("/snapshot"); body != "served_total 42\n" {
		t.Fatalf("/snapshot = %q", body)
	}
	if body := get("/trace"); !strings.Contains(body, `"kind":"beacon_originated"`) {
		t.Fatalf("/trace = %q", body)
	}
	if body := get("/trace?format=text"); !strings.Contains(body, "beacon_originated") {
		t.Fatalf("/trace?format=text = %q", body)
	}
	if body := get("/metrics.json"); !strings.Contains(body, `"served_total":42`) {
		t.Fatalf("/metrics.json = %q", body)
	}
}

func TestHistogramQuantile(t *testing.T) {
	var nilH *Histogram
	if nilH.Quantile(0.5) != 0 {
		t.Error("nil histogram quantile must be 0")
	}
	r := NewRegistry()
	h := r.Histogram("q_test", []float64{10, 100, 1000})
	if h.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile must be 0")
	}
	// 90 samples in (10,100], 10 in (100,1000]: p50 interpolates inside
	// the second bucket, p99 inside the third.
	for i := 0; i < 90; i++ {
		h.Observe(50)
	}
	for i := 0; i < 10; i++ {
		h.Observe(500)
	}
	p50 := h.Quantile(0.5)
	if p50 <= 10 || p50 > 100 {
		t.Errorf("p50 = %v, want in (10,100]", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 <= 100 || p99 > 1000 {
		t.Errorf("p99 = %v, want in (100,1000]", p99)
	}
	if got := h.Quantile(-1); got > 10 {
		t.Errorf("q<0 clamps to min, got %v", got)
	}
	// Mass in the +Inf bucket clamps to the top finite bound.
	inf := r.Histogram("q_inf", []float64{1})
	inf.Observe(99)
	if got := inf.Quantile(0.99); got != 1 {
		t.Errorf("+Inf mass quantile = %v, want clamp to 1", got)
	}
	// Sharded observation: quantiles merge cells like every other read.
	sh := r.Histogram("q_shard", []float64{1, 2, 4})
	sh.Cell(1).Observe(1.5)
	sh.Cell(2).Observe(3)
	if q := sh.Quantile(1); q <= 2 || q > 4 {
		t.Errorf("merged quantile = %v, want in (2,4]", q)
	}
}

// TestHistogramQuantileBoundaryRanks pins Quantile at exact bucket-
// boundary ranks, where an off-by-one in the cumulative comparison
// (cum+c >= rank vs >) would jump to the wrong bucket. The convention:
// with rank = q*count, a rank landing exactly on a bucket's cumulative
// count interpolates to that bucket's UPPER bound — never into the next
// bucket — and q=0 rests on the first occupied bucket's lower bound.
func TestHistogramQuantileBoundaryRanks(t *testing.T) {
	r := NewRegistry()
	// Two buckets with equal mass: (1,2] and (2,4], 2 samples each.
	h := r.Histogram("q_boundary", []float64{1, 2, 4})
	h.Observe(1.5)
	h.Observe(1.5)
	h.Observe(3)
	h.Observe(3)
	for _, tc := range []struct {
		q    float64
		want float64
	}{
		{0, 1},      // rank 0: lower bound of the first occupied bucket
		{0.25, 1.5}, // rank 1: halfway up the first bucket's 2 samples
		{0.5, 2},    // rank 2 == bucket-0 cum count: exactly the shared bound
		{0.75, 3},   // rank 3: halfway up the second bucket
		{1, 4},      // rank 4: the last occupied bucket's upper bound
	} {
		if got := h.Quantile(tc.q); got != tc.want {
			t.Errorf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}

	// A leading empty bucket must be skipped, not interpolated into:
	// all mass in (10,100], nothing in (0,10].
	skip := r.Histogram("q_skip", []float64{10, 100})
	skip.Observe(50)
	if got := skip.Quantile(0); got != 10 {
		t.Errorf("Quantile(0) with empty first bucket = %v, want 10", got)
	}
	if got := skip.Quantile(1); got != 100 {
		t.Errorf("Quantile(1) = %v, want 100", got)
	}

	// An interior empty bucket is likewise transparent: mass in (1,2]
	// and (4,8] only. Ranks at the gap resolve to bucket bounds, not to
	// points inside the empty (2,4] bucket.
	gap := r.Histogram("q_gap", []float64{1, 2, 4, 8})
	gap.Observe(1.5)
	gap.Observe(6)
	if got := gap.Quantile(0.5); got != 2 {
		t.Errorf("Quantile(0.5) at gap = %v, want 2 (first bucket's bound)", got)
	}
	if got := gap.Quantile(0.75); got != 6 {
		t.Errorf("Quantile(0.75) = %v, want 6 (midpoint of (4,8])", got)
	}

	// A single sample: every q > 0 interpolates within its bucket,
	// q=1 hits the bucket's upper bound exactly.
	one := r.Histogram("q_one", []float64{1, 2})
	one.Observe(1.5)
	if got := one.Quantile(1); got != 2 {
		t.Errorf("single-sample Quantile(1) = %v, want 2", got)
	}
	if got := one.Quantile(0.5); got != 1.5 {
		t.Errorf("single-sample Quantile(0.5) = %v, want 1.5", got)
	}

	// q outside [0,1] clamps to the ends.
	if got, want := one.Quantile(2), one.Quantile(1); got != want {
		t.Errorf("Quantile(2) = %v, want clamp to Quantile(1) = %v", got, want)
	}
	if got, want := one.Quantile(-0.5), one.Quantile(0); got != want {
		t.Errorf("Quantile(-0.5) = %v, want clamp to Quantile(0) = %v", got, want)
	}
}
