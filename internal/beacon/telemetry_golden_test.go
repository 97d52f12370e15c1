package beacon

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"scionmpr/internal/chaos"
	"scionmpr/internal/core"
	"scionmpr/internal/sim"
	"scionmpr/internal/telemetry"
	"scionmpr/internal/topology"
)

// goldenRun executes the telemetry determinism scenario: diversity core
// beaconing under a seed-derived chaos schedule (all four fault kinds),
// with a registry and tracer attached, returning the full deterministic
// snapshot and trace JSONL as bytes.
func goldenRun(t *testing.T, topo *topology.Graph, seed int64, workers int) (snapshot, trace string, dropped uint64) {
	t.Helper()
	cfg := DefaultRunConfig(topo, CoreMode, core.NewDiversity(core.DefaultParams(5)), 15)
	cfg.Duration = 60 * time.Minute
	cfg.Workers = workers
	cfg.Telemetry = telemetry.NewRegistry()
	cfg.Tracer = telemetry.NewTracer(1 << 15)
	end := sim.Time(cfg.Duration)
	links := make([]topology.LinkID, 0, len(topo.Links))
	for _, l := range topo.Links {
		links = append(links, l.ID)
	}
	ias := topo.IAs()
	sched := chaos.FlapChurn(seed, links, 4, end/6, end-end/6, 30*time.Second, 10*time.Minute)
	sched.Events = append(sched.Events,
		chaos.Event{Kind: chaos.Gray, Link: links[int(seed)%len(links)],
			At: end / 4, Down: 15 * time.Minute, Rate: 0.3},
		chaos.Event{Kind: chaos.Spike, Link: links[(int(seed)+1)%len(links)],
			At: end / 3, Down: 10 * time.Minute, Delay: 200 * time.Millisecond},
		chaos.Event{Kind: chaos.CrashAS, IA: ias[int(seed)%len(ias)],
			At: end / 2, Down: 10 * time.Minute},
	)
	cfg.Chaos = sched
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	var snap, tr bytes.Buffer
	if err := cfg.Telemetry.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	if err := cfg.Tracer.WriteJSONL(&tr); err != nil {
		t.Fatal(err)
	}
	return snap.String(), tr.String(), cfg.Tracer.Dropped
}

// TestTelemetryGoldenDeterminism is the telemetry layer's headline
// contract: with chaos faults injected, the deterministic metric
// snapshot and the trace event stream must be byte-identical for 1, 2,
// 4 and 8 workers, across seeds. Run with -race in CI.
func TestTelemetryGoldenDeterminism(t *testing.T) {
	p := topology.DefaultGenParams()
	p.NumASes = 100
	p.Tier1 = 5
	full, err := topology.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	coreTopo, err := topology.ExtractCore(full, 14)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 2} {
		seqSnap, seqTrace, seqDropped := goldenRun(t, coreTopo, seed, 1)
		if seqSnap == "" {
			t.Fatal("empty telemetry snapshot")
		}
		if seqTrace == "" {
			t.Fatal("empty trace stream")
		}
		// The scenario must actually produce the event kinds the layer
		// instruments, or determinism is vacuous.
		for _, kind := range []string{
			"beacon_originated", "beacon_propagated", "beacon_filtered",
			"fault_applied", "fault_healed",
		} {
			if !strings.Contains(seqTrace, `"kind":"`+kind+`"`) {
				t.Errorf("seed %d: trace stream has no %s events", seed, kind)
			}
		}
		for _, metric := range []string{"beacon_originated_total", "beacon_received_total", "net_tx_bytes_total", "sim_events_executed"} {
			if !strings.Contains(seqSnap, metric) {
				t.Errorf("seed %d: snapshot missing %s:\n%s", seed, metric, seqSnap)
			}
		}
		// Volatile scheduler-shape metrics must never leak into the
		// deterministic snapshot.
		if strings.Contains(seqSnap, "sim_parallel") {
			t.Errorf("seed %d: volatile metric in deterministic snapshot", seed)
		}
		for _, w := range []int{2, 4, 8} {
			snap, trace, dropped := goldenRun(t, coreTopo, seed, w)
			if snap != seqSnap {
				t.Errorf("seed %d: snapshot with %d workers differs from sequential:\n%s", seed, w, diffFirst(snap, seqSnap))
			}
			if trace != seqTrace {
				t.Errorf("seed %d: trace stream with %d workers differs from sequential:\n%s", seed, w, diffFirst(trace, seqTrace))
			}
			if dropped != seqDropped {
				t.Errorf("seed %d: dropped count with %d workers = %d, sequential %d", seed, w, dropped, seqDropped)
			}
		}
	}
}

// diffFirst renders the first differing line of two line-oriented strings.
func diffFirst(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d: got %q, want %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("length mismatch: %d vs %d lines", len(g), len(w))
}
