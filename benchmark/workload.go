package main

import (
	"fmt"
	"runtime"
	"time"
)

// scale fixes the sizes of every workload. The topologies and operation
// populations are fixed instances, generated from topoSeed: on these
// sizes one operation costs between 5 ms and 300 ms depending on which
// AS pair or link it touches, so a seeded sample of them moves every
// median by more than any bound. The run's -seed permutes the fixed
// populations and drives every draw made on top of them.
type scale struct {
	// fig5_ctrl
	fig5ASes, fig5Tier1, fig5Core int
	fig5Beaconing                 time.Duration
	// endpoint_cold and forward_steady share the ISD topology.
	isdASes, isdTier1, isdCores int
	coldPairs                   int
	fwdPairs, fwdPool, fwdHot   int
	fwdBurst                    int
	// lookup_churn
	lookupASes, lookupTier1, lookupCore int
	lookupBeaconing                     time.Duration
	writerHz                            float64
	warmLookups                         int
	// setupReps is how often set-up is repeated for its median.
	setupReps int
}

const topoSeed = 1

// fullScale is what the driver measures. The issue asks for 1000-AS
// topologies in fig5_ctrl and lookup_churn; one run there takes over
// 30 s, and the driver's budget is about 35 s per run with its set-ups.
var fullScale = scale{
	fig5ASes: 300, fig5Tier1: 10, fig5Core: 40, fig5Beaconing: 2 * time.Hour,
	isdASes: 400, isdTier1: 10, isdCores: 5,
	coldPairs: 100,
	fwdPairs:  32, fwdPool: 4096, fwdHot: 16, fwdBurst: 512,
	lookupASes: 500, lookupTier1: 10, lookupCore: 50, lookupBeaconing: time.Hour,
	writerHz: 20, warmLookups: 10000,
	setupReps: 3,
}

// smokeScale runs every workload end to end in the tests.
var smokeScale = scale{
	fig5ASes: 120, fig5Tier1: 6, fig5Core: 16, fig5Beaconing: 30 * time.Minute,
	isdASes: 120, isdTier1: 6, isdCores: 3,
	coldPairs: 8,
	fwdPairs:  8, fwdPool: 64, fwdHot: 4, fwdBurst: 64,
	lookupASes: 120, lookupTier1: 6, lookupCore: 16, lookupBeaconing: 20 * time.Minute,
	writerHz: 50, warmLookups: 256,
	setupReps: 2,
}

// runCtx is what one workload run receives.
type runCtx struct {
	sc      scale
	seed    int64
	seconds float64
	// traced selects the per-layer run: the measured window is split in
	// two halves, the first with rec == nil, so that the same run yields
	// trace.overhead_share.
	traced bool
	rec    *recorder
}

// outcome is what a workload hands back.
type outcome struct {
	attempted, failed int
	// failures are the output checks that did not hold.
	failures []string
	setupS   float64
	opsPerS  float64
	opMs     []float64 // one sample per operation, for p50 and p90
	// layer holds the per-layer metrics of a traced run.
	layer map[string]float64
	// exact names the deterministic quantities of the run: equal seeds
	// must reproduce them bit for bit.
	exact map[string]float64
}

func newOutcome() *outcome {
	return &outcome{layer: map[string]float64{}, exact: map[string]float64{}}
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

// check records a failed output check without charging an operation.
func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

type workload struct {
	name string
	run  func(*runCtx) (*outcome, error)
}

var workloads = []workload{
	{"fig5_ctrl", runFig5},
	{"endpoint_cold", runCold},
	{"forward_steady", runForward},
	{"lookup_churn", runLookup},
}

// settle drops garbage before a timed phase so that one phase does not
// pay for the collection of its predecessor's heap.
func settle() { runtime.GC() }

func heapMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// medianSetup runs setup at least reps times, and on until a quarter of
// a second of set-up has been timed (at most 25 times) so that a set-up
// of a few milliseconds still yields a steady median. It drops each
// product but the last and returns that with the median wall time in
// seconds.
func medianSetup[T any](reps int, setup func() (T, error)) (T, float64, error) {
	var out T
	var walls []float64
	total := 0.0
	for i := 0; i < reps || (total < 0.25 && i < 25); i++ {
		var zero T
		out = zero
		settle()
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return out, 0, err
		}
		walls = append(walls, time.Since(t0).Seconds())
		total += walls[len(walls)-1]
		out = v
	}
	return out, median(walls), nil
}

// kernelNs times fn over n calls and returns nanoseconds per call.
func kernelNs(n int, fn func(i int)) float64 {
	if n <= 0 {
		return 0
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// window is the measured part of a run: workloads run cycles while
// next allows. In a traced run the first half of the window runs
// untraced (a nil recorder) and the second traced, with at least one
// cycle of each, so that the same run yields trace.overhead_share.
type window struct {
	ctx   *runCtx
	start time.Time
	// frac is the share of ctx.seconds after which no new cycle starts;
	// workloads with long cycles stop early so that the overshoot of the
	// last cycle lands near the requested length.
	frac           float64
	cycles, traced int
	// operation times of the untraced and the traced half
	untracedMs, tracedMs []float64
}

func (c *runCtx) newWindow(frac float64) *window {
	return &window{ctx: c, start: time.Now(), frac: frac}
}

func (w *window) elapsed() float64 { return time.Since(w.start).Seconds() }
func (w *window) done() bool       { return w.elapsed() >= w.ctx.seconds*w.frac }

// next reports whether another cycle runs, and its recorder.
func (w *window) next() (*recorder, bool) {
	first := w.cycles == 0
	w.cycles++
	if !w.ctx.traced {
		return nil, first || !w.done()
	}
	if first || w.elapsed() < w.ctx.seconds*w.frac/2 {
		return nil, true
	}
	if w.traced == 0 || !w.done() {
		w.traced++
		return w.ctx.rec, true
	}
	return nil, false
}

// observe files one operation's time under the half it ran in.
func (w *window) observe(rec *recorder, ms float64) {
	if rec == nil {
		w.untracedMs = append(w.untracedMs, ms)
	} else {
		w.tracedMs = append(w.tracedMs, ms)
	}
}

// overheadShare is traced ÷ untraced mean operation time − 1.
func (w *window) overheadShare() float64 {
	if len(w.untracedMs) == 0 || len(w.tracedMs) == 0 {
		return 0
	}
	return mean(w.tracedMs)/mean(w.untracedMs) - 1
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
