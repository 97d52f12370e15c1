package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer's public functions. Times are
// nanoseconds of host time since the recorder was created.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // span id, -1 for a root
	Op     int    `json:"op"`     // spans of one operation share it
}

// recorder keeps spans and counts in memory until the run ends. A nil
// recorder records nothing, so workloads call it unconditionally and
// the untraced run pays only the nil checks.
type recorder struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	counts map[string]int64
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), counts: map[string]int64{}}
}

// begin opens a span and returns its id for end and for children.
func (r *recorder) begin(name string, parent, op int) int {
	if r == nil {
		return -1
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Start: now, End: -1, Parent: parent, Op: op})
	id := len(r.spans) - 1
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// count adds n to a named counter, recorded at the same boundary as the
// surrounding span.
func (r *recorder) count(name string, n int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counts[name] += n
	r.mu.Unlock()
}

// selfTimes returns, per span, its duration minus the part of that
// interval its direct children cover (overlapping children are merged
// first, and clipped to the parent).
func selfTimes(spans []span) []int64 {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) && s.End >= s.Start {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		if s.End < s.Start {
			continue // never closed
		}
		iv := children[i]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, hi := int64(0), s.Start
		for _, c := range iv {
			lo, up := c[0], c[1]
			if lo < hi {
				lo = hi
			}
			if up > s.End {
				up = s.End
			}
			if up > lo {
				covered += up - lo
				hi = up
			}
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}

// nameStats aggregates closed spans by name.
type nameStats struct {
	calls  int64
	selfNs int64
	durNs  []int64
}

type spanStats map[string]*nameStats

// p50 is the median duration of the spans called name, in units of div
// nanoseconds; 0 when there is none.
func (m spanStats) p50(name string, div float64) float64 {
	st := m[name]
	if st == nil {
		return 0
	}
	xs := make([]float64, len(st.durNs))
	for i, d := range st.durNs {
		xs[i] = float64(d) / div
	}
	return median(xs)
}

func (r *recorder) byName() spanStats {
	out := spanStats{}
	if r == nil {
		return out
	}
	self := selfTimes(r.spans)
	for i, s := range r.spans {
		if s.End < s.Start {
			continue
		}
		st := out[s.Name]
		if st == nil {
			st = &nameStats{}
			out[s.Name] = st
		}
		st.calls++
		st.selfNs += self[i]
		st.durNs = append(st.durNs, s.End-s.Start)
	}
	return out
}

// layerBusyMs sums span self-times per layer: the part of a span name
// before its first dot.
func layerBusyMs(stats spanStats) map[string]float64 {
	out := map[string]float64{}
	for name, st := range stats {
		layer, _, _ := strings.Cut(name, ".")
		out[layer] += float64(st.selfNs) / 1e6
	}
	return out
}

func (r *recorder) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Spans  []span           `json:"spans"`
		Counts map[string]int64 `json:"counts"`
	}{r.spans, r.counts})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
