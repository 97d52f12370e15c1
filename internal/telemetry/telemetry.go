// Package telemetry is the instrumentation layer of the simulation
// runtime: sharded counters, gauges and histograms collected into a
// Registry, a bounded ring of structured trace events (trace.go), named
// stage timers (stages.go), and exporters — Prometheus text, JSON, a
// deterministic snapshot format, and an opt-in HTTP endpoint with
// net/http/pprof and expvar (http.go).
//
// # Determinism contract
//
// Metrics come in two classes. Deterministic metrics observe only
// virtual-time state (message counts, store sizes, flow outcomes); their
// snapshot (WriteSnapshot) must be byte-identical for any simulator
// worker count, extending the fingerprint guarantee of internal/sim.
// Volatile metrics observe wall-clock state (stage durations, scheduler
// batch shapes that depend on parallel execution); they are exported by
// WriteProm/WriteJSON but excluded from WriteSnapshot.
//
// Parallel-safety follows the sharding discipline of internal/sim: a
// counter or histogram is a set of per-shard cells. An actor running on
// simulator shard s increments only cell s, which no other worker
// touches during a segment; segment joins (sync.WaitGroup.Wait) order
// cross-segment access to the same cell. Totals are sums over cells, so
// they do not depend on the worker count — increments are attributed to
// shards, not workers. Gauges have no cells and must only be set from
// serial context (or via GaugeFunc, evaluated at export time).
//
// # Zero cost when disabled
//
// Every constructor and method tolerates nil receivers: a nil *Registry
// yields nil metrics, and Add/Inc/Observe on nil cells are no-ops — one
// inlined nil check on the hot path. Instrumented code therefore
// resolves its cells unconditionally at setup and never branches on an
// "enabled" flag itself.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Cell is one shard's slot of a Counter. Add and Inc are not atomic:
// a cell must only be touched by its owning shard (see the package
// comment). The struct is padded to a cache line so neighboring shards
// do not false-share.
type Cell struct {
	n uint64
	_ [7]uint64
}

// Add increments the cell by n. No-op on a nil cell.
func (c *Cell) Add(n uint64) {
	if c == nil {
		return
	}
	c.n += n
}

// Inc increments the cell by one. No-op on a nil cell.
func (c *Cell) Inc() { c.Add(1) }

// Counter is a monotonically increasing sum over per-shard cells.
type Counter struct {
	name  string
	cells []*Cell
}

// Cell returns (allocating if needed) the counter's cell for a shard.
// Resolve cells during setup, from serial context — growing the cell
// table during parallel execution is a race. Nil-safe: a nil counter
// yields a nil cell.
func (c *Counter) Cell(shard uint32) *Cell {
	if c == nil {
		return nil
	}
	for int(shard) >= len(c.cells) {
		c.cells = append(c.cells, nil)
	}
	if c.cells[shard] == nil {
		c.cells[shard] = &Cell{}
	}
	return c.cells[shard]
}

// Value sums all cells. Call from serial context only.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	var sum uint64
	for _, cell := range c.cells {
		if cell != nil {
			sum += cell.n
		}
	}
	return sum
}

// Gauge is a settable wall-clock-dependent value, excluded from the
// deterministic snapshot. Unlike counters, gauges have no shard cells:
// set them from serial context only.
type Gauge struct {
	name string
	v    float64
}

// Set stores the gauge value. No-op on a nil gauge.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.v = v
}

// HistCell is one shard's slot of a Histogram: per-bucket counts plus
// count and sum. Same ownership rules as Cell.
type HistCell struct {
	h      *Histogram
	counts []uint64
	count  uint64
	sum    float64
}

// Observe records one sample. No-op on a nil cell.
func (c *HistCell) Observe(v float64) {
	if c == nil {
		return
	}
	c.count++
	c.sum += v
	for i, ub := range c.h.bounds {
		if v <= ub {
			c.counts[i]++
			return
		}
	}
	c.counts[len(c.counts)-1]++ // +Inf bucket
}

// Histogram accumulates samples into fixed buckets, one cell per shard.
// Bucket upper bounds are set at creation; the implicit final bucket is
// +Inf. Merged totals are worker-count-invariant: each shard's partial
// sum is accumulated in that shard's deterministic observation order,
// and cells are merged in shard order.
type Histogram struct {
	name     string
	volatile bool
	bounds   []float64
	cells    []*HistCell
}

// ExpBuckets returns n exponentially growing bucket bounds starting at
// start with the given growth factor — the usual latency/size layout.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Cell returns (allocating if needed) the histogram's cell for a shard.
// Setup-time, serial context only. Nil-safe.
func (h *Histogram) Cell(shard uint32) *HistCell {
	if h == nil {
		return nil
	}
	for int(shard) >= len(h.cells) {
		h.cells = append(h.cells, nil)
	}
	if h.cells[shard] == nil {
		h.cells[shard] = &HistCell{h: h, counts: make([]uint64, len(h.bounds)+1)}
	}
	return h.cells[shard]
}

// Observe records a sample in the serial cell.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.Cell(0).Observe(v)
}

// merged returns the cell-merged bucket counts, count and sum.
func (h *Histogram) merged() (counts []uint64, count uint64, sum float64) {
	counts = make([]uint64, len(h.bounds)+1)
	for _, c := range h.cells {
		if c == nil {
			continue
		}
		for i, n := range c.counts {
			counts[i] += n
		}
		count += c.count
		sum += c.sum
	}
	return counts, count, sum
}

// gaugeFunc is a lazily evaluated gauge; several funcs registered under
// one name are summed (so independent subsystems can contribute to one
// total).
type gaugeFunc struct {
	name     string
	volatile bool
	fns      []func() float64
}

func (g *gaugeFunc) value() float64 {
	var sum float64
	for _, fn := range g.fns {
		sum += fn()
	}
	return sum
}

// Registry holds named metrics. The zero value is not usable; create
// with NewRegistry. A nil *Registry is a valid "telemetry disabled"
// registry: every constructor returns nil and every export writes
// nothing.
type Registry struct {
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	gaugeFuncs map[string]*gaugeFunc
	histograms map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		gaugeFuncs: map[string]*gaugeFunc{},
		histograms: map[string]*Histogram{},
	}
}

// Counter returns the deterministic counter with the given name,
// creating it on first use. Names may carry a static Prometheus-style
// label suffix, e.g. `beacon_rejected_total{reason="loop"}`.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	c := r.counters[name]
	if c == nil {
		c = &Counter{name: name}
		r.counters[name] = c
	}
	return c
}

// VolatileGauge returns the gauge with the given name, creating it on
// first use.
func (r *Registry) VolatileGauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{name: name}
		r.gauges[name] = g
	}
	return g
}

// GaugeFunc registers fn under name, evaluated at export time. Several
// funcs under one name are summed. No-op on a nil registry.
func (r *Registry) GaugeFunc(name string, fn func() float64) { r.gaugeFunc(name, false, fn) }

// VolatileGaugeFunc is GaugeFunc for wall-clock-dependent values.
func (r *Registry) VolatileGaugeFunc(name string, fn func() float64) { r.gaugeFunc(name, true, fn) }

func (r *Registry) gaugeFunc(name string, volatile bool, fn func() float64) {
	if r == nil {
		return
	}
	g := r.gaugeFuncs[name]
	if g == nil {
		g = &gaugeFunc{name: name, volatile: volatile}
		r.gaugeFuncs[name] = g
	}
	g.fns = append(g.fns, fn)
}

// Histogram returns the deterministic histogram with the given name,
// creating it with the given bucket bounds on first use (later calls
// ignore bounds).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	return r.histogram(name, bounds, false)
}

// VolatileHistogram is Histogram for wall-clock-dependent samples
// (e.g. WAL replay durations), excluded from the deterministic
// snapshot.
func (r *Registry) VolatileHistogram(name string, bounds []float64) *Histogram {
	return r.histogram(name, bounds, true)
}

func (r *Registry) histogram(name string, bounds []float64, volatile bool) *Histogram {
	if r == nil {
		return nil
	}
	h := r.histograms[name]
	if h == nil {
		h = &Histogram{name: name, volatile: volatile, bounds: append([]float64(nil), bounds...)}
		r.histograms[name] = h
	}
	return h
}

// fmtFloat renders a float64 value with stable, locale-free formatting.
func fmtFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// family splits a metric name from its static label suffix.
func family(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// histLine renders one histogram bucket name: family_bucket{...,le="x"}.
func histLine(name, le string) string {
	fam := family(name)
	if fam == name {
		return fmt.Sprintf("%s_bucket{le=%q}", fam, le)
	}
	labels := strings.TrimSuffix(name[len(fam):], "}")
	return fmt.Sprintf("%s_bucket%s,le=%q}", fam, labels, le)
}

// snapshotLine is one rendered metric sample.
type snapshotLine struct {
	name     string
	value    string
	volatile bool
	typ      string // counter | gauge | histogram
}

// lines renders every metric, sorted by name.
func (r *Registry) lines() []snapshotLine {
	if r == nil {
		return nil
	}
	var out []snapshotLine
	for _, c := range r.counters {
		out = append(out, snapshotLine{c.name, strconv.FormatUint(c.Value(), 10), false, "counter"})
	}
	for _, g := range r.gauges {
		out = append(out, snapshotLine{g.name, fmtFloat(g.v), true, "gauge"})
	}
	for _, g := range r.gaugeFuncs {
		out = append(out, snapshotLine{g.name, fmtFloat(g.value()), g.volatile, "gauge"})
	}
	for _, h := range r.histograms {
		counts, count, sum := h.merged()
		cum := uint64(0)
		for i, ub := range h.bounds {
			cum += counts[i]
			out = append(out, snapshotLine{histLine(h.name, fmtFloat(ub)), strconv.FormatUint(cum, 10), h.volatile, "histogram"})
		}
		cum += counts[len(counts)-1]
		out = append(out, snapshotLine{histLine(h.name, "+Inf"), strconv.FormatUint(cum, 10), h.volatile, "histogram"})
		out = append(out, snapshotLine{family(h.name) + "_count" + h.name[len(family(h.name)):], strconv.FormatUint(count, 10), h.volatile, "histogram"})
		out = append(out, snapshotLine{family(h.name) + "_sum" + h.name[len(family(h.name)):], fmtFloat(sum), h.volatile, "histogram"})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// WriteSnapshot writes the deterministic metrics as sorted "name value"
// lines — the byte-identical-across-worker-counts format that the
// fingerprint and golden tests consume. Call from serial context.
func (r *Registry) WriteSnapshot(w io.Writer) error {
	for _, l := range r.lines() {
		if l.volatile {
			continue
		}
		if _, err := fmt.Fprintf(w, "%s %s\n", l.name, l.value); err != nil {
			return err
		}
	}
	return nil
}

// WriteProm writes all metrics (volatile included) in the Prometheus
// text exposition format.
func (r *Registry) WriteProm(w io.Writer) error {
	lines := r.lines()
	typed := map[string]bool{}
	for _, l := range lines {
		fam := family(l.name)
		if l.typ == "histogram" {
			fam = strings.TrimSuffix(strings.TrimSuffix(fam, "_count"), "_sum")
			if i := strings.Index(fam, "_bucket"); i >= 0 {
				fam = fam[:i]
			}
		}
		if !typed[fam] {
			typed[fam] = true
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", fam, l.typ); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s %s\n", l.name, l.value); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON writes all metrics as one JSON object keyed by metric name,
// with keys sorted (a stable encoding).
func (r *Registry) WriteJSON(w io.Writer) error {
	lines := r.lines()
	var sb strings.Builder
	sb.WriteByte('{')
	for i, l := range lines {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.Write(appendJSONString(nil, l.name))
		sb.WriteByte(':')
		sb.WriteString(l.value)
	}
	sb.WriteString("}\n")
	_, err := io.WriteString(w, sb.String())
	return err
}
