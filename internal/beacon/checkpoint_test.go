package beacon

import (
	"encoding/binary"
	"strings"
	"testing"
	"time"

	"scionmpr/internal/chaos"
	"scionmpr/internal/core"
	"scionmpr/internal/sim"
	"scionmpr/internal/telemetry"
	"scionmpr/internal/topology"
	"scionmpr/internal/wire"
)

// chaosCfg builds the determinism scenario of detRun as a config: core
// beaconing with the diversity selector under a chaos schedule covering
// all four fault kinds, several of which straddle the checkpoint time
// used by the tests (gray failure active 22.5–42.5 min, flap churn
// throughout, crash at 45 min).
func chaosCfg(t *testing.T, topo *topology.Graph, seed int64, workers int) RunConfig {
	t.Helper()
	cfg := DefaultRunConfig(topo, CoreMode, core.NewDiversity(core.DefaultParams(5)), 15)
	cfg.Duration = 90 * time.Minute
	cfg.Workers = workers
	end := sim.Time(cfg.Duration)
	links := make([]topology.LinkID, 0, len(topo.Links))
	for _, l := range topo.Links {
		links = append(links, l.ID)
	}
	ias := topo.IAs()
	sched := chaos.FlapChurn(seed, links, 4, end/6, end-end/6, 30*time.Second, 10*time.Minute)
	sched.Events = append(sched.Events,
		chaos.Event{Kind: chaos.Gray, Link: links[int(seed)%len(links)],
			At: end / 4, Down: 20 * time.Minute, Rate: 0.3},
		chaos.Event{Kind: chaos.Spike, Link: links[(int(seed)+1)%len(links)],
			At: end / 3, Down: 10 * time.Minute, Delay: 200 * time.Millisecond},
		chaos.Event{Kind: chaos.CrashAS, IA: ias[int(seed)%len(ias)],
			At: end / 2, Down: 15 * time.Minute},
	)
	cfg.Chaos = sched
	return cfg
}

func checkpointTopo(t *testing.T) *topology.Graph {
	t.Helper()
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
	return coreTopo
}

// TestCheckpointResumeDeterminism is the checkpoint/restore contract: a
// run interrupted mid-way and resumed from its snapshot must finish with
// a fingerprint byte-identical to the uninterrupted run, for every worker
// count, under active chaos faults whose effects and pending recoveries
// straddle the checkpoint. Run with -race to also check the worker pool.
func TestCheckpointResumeDeterminism(t *testing.T) {
	topo := checkpointTopo(t)
	seed := int64(1)

	ref, err := Run(chaosCfg(t, topo, seed, 1))
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Fingerprint()

	// The checkpoint time is deliberately unaligned; capture happens at
	// the next interval boundary (40 min), with the gray failure and the
	// latency spike active, their recoveries and later flaps pending.
	observed, snap, err := RunWithCheckpoint(chaosCfg(t, topo, seed, 1), 37*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if observed.Fingerprint() != want {
		t.Fatal("taking a checkpoint changed the run's fingerprint")
	}
	if len(snap) == 0 {
		t.Fatal("empty snapshot")
	}
	// The gray failure must shed beacons on both sides of the checkpoint,
	// or the loss-decision count is never exercised across it.
	secs, err := frames(snap)
	if err != nil {
		t.Fatal(err)
	}
	r := wire.NewReader(snapPrefix, secs[1])
	atSnap := readNetworkState(&r).DroppedByLoss
	if atSnap == 0 || ref.Net.DroppedByLoss <= atSnap {
		t.Fatalf("gray drops: %d at the checkpoint, %d at the end; want some before and more after", atSnap, ref.Net.DroppedByLoss)
	}

	for _, w := range []int{1, 2, 4, 8} {
		res, err := Resume(chaosCfg(t, topo, seed, w), snap)
		if err != nil {
			t.Fatalf("resume with %d workers: %v", w, err)
		}
		if res.Fingerprint() != want {
			t.Errorf("resumed fingerprint with %d workers differs from uninterrupted run", w)
		}
		if res.Sim.Executed != ref.Sim.Executed {
			t.Errorf("resumed run executed %d events, uninterrupted %d", res.Sim.Executed, ref.Sim.Executed)
		}
	}
}

// TestCheckpointResumeFailuresAndBaseline covers the stateless-selector
// path (no selector blob), and a link outage and a server crash that are
// active at the checkpoint: the chaos section alone must bring both back.
func TestCheckpointResumeFailuresAndBaseline(t *testing.T) {
	topo := checkpointTopo(t)
	mk := func(workers int) RunConfig {
		cfg := DefaultRunConfig(topo, CoreMode, core.NewBaseline(5), 15)
		cfg.Duration = 80 * time.Minute
		cfg.Workers = workers
		// The second outage outlasts the run.
		cfg.Chaos = &chaos.Schedule{Events: []chaos.Event{
			{Kind: chaos.Flap, Link: topo.Links[0].ID, At: sim.Time(25 * time.Minute), Down: 30 * time.Minute},
			{Kind: chaos.Flap, Link: topo.Links[1].ID, At: sim.Time(40 * time.Minute), Down: time.Hour},
			{Kind: chaos.CrashAS, IA: topo.IAs()[2], At: sim.Time(35 * time.Minute), Down: 20 * time.Minute},
		}}
		return cfg
	}
	ref, err := Run(mk(1))
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Fingerprint()
	// Checkpoint lands exactly at 40 min, where the second outage is
	// pending but unexecuted; it must fire on the resumed run.
	_, snap, err := RunWithCheckpoint(mk(1), 40*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 4} {
		res, err := Resume(mk(w), snap)
		if err != nil {
			t.Fatalf("resume with %d workers: %v", w, err)
		}
		if res.Fingerprint() != want {
			t.Errorf("resumed fingerprint with %d workers differs from uninterrupted run", w)
		}
	}
}

// TestCheckpointResumeIntraISD covers the hierarchical beaconing mode
// (peer entries, provider links) without faults.
func TestCheckpointResumeIntraISD(t *testing.T) {
	p := topology.DefaultGenParams()
	p.NumASes = 80
	p.Tier1 = 4
	full, err := topology.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	isd, err := topology.BuildISD(full, 3)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(workers int) RunConfig {
		cfg := DefaultRunConfig(isd, IntraMode, core.NewDiversity(core.DefaultParams(5)), 15)
		cfg.Duration = time.Hour
		cfg.Workers = workers
		return cfg
	}
	ref, err := Run(mk(1))
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Fingerprint()
	_, snap, err := RunWithCheckpoint(mk(1), 30*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 8} {
		res, err := Resume(mk(w), snap)
		if err != nil {
			t.Fatalf("resume with %d workers: %v", w, err)
		}
		if res.Fingerprint() != want {
			t.Errorf("intra-ISD resumed fingerprint with %d workers differs", w)
		}
	}
}

// TestCheckpointRejectsBadInput locks in the guard rails: observer state,
// out-of-range checkpoint times, corrupt snapshots, and config/snapshot
// disagreement all fail loudly instead of silently diverging.
func TestCheckpointRejectsBadInput(t *testing.T) {
	topo := checkpointTopo(t)
	cfg := DefaultRunConfig(topo, CoreMode, core.NewBaseline(5), 15)
	cfg.Duration = 40 * time.Minute

	telem := cfg
	telem.Telemetry = telemetry.NewRegistry()
	if _, _, err := RunWithCheckpoint(telem, 20*time.Minute); err == nil || !strings.Contains(err.Error(), "unsupported") {
		t.Errorf("telemetry run: got %v, want unsupported error", err)
	}
	if _, _, err := RunWithCheckpoint(cfg, 2*cfg.Duration); err == nil {
		t.Error("checkpoint beyond duration: want error")
	}
	if _, _, err := RunWithCheckpoint(cfg, 0); err == nil {
		t.Error("checkpoint at zero: want error")
	}

	_, snap, err := RunWithCheckpoint(cfg, 20*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(cfg, snap[:len(snap)-3]); err == nil {
		t.Error("truncated snapshot: want error")
	}
	bad := append([]byte(nil), snap...)
	bad[len(bad)-1] ^= 0xff
	if _, err := Resume(cfg, bad); err == nil {
		t.Error("corrupted snapshot: want error")
	}

	// Sections that pass the CRC but not their decoder. The network
	// section's errors used to be dropped: a short one restored zeros.
	secs, err := frames(snap)
	if err != nil {
		t.Fatal(err)
	}
	for name, edit := range map[string]func(secs [][]byte){
		"negative time":          func(secs [][]byte) { secs[0][6] |= 0x80 },
		"header trailing byte":   func(secs [][]byte) { secs[0] = append(secs[0], 0) },
		"network truncated":      func(secs [][]byte) { secs[1] = secs[1][:len(secs[1])-1] },
		"network trailing byte":  func(secs [][]byte) { secs[1] = append(secs[1], 0) },
		"network unbacked count": func(secs [][]byte) { secs[1][0] = 0x40 },
		"version 1":              func(secs [][]byte) { binary.BigEndian.PutUint16(secs[0][4:], 1) },
		"server unbacked count":  func(secs [][]byte) { secs[2][50] = 0x40 },
		"server trailing byte":   func(secs [][]byte) { secs[2] = append(secs[2], 0) },
	} {
		var edited []byte
		mutable := make([][]byte, len(secs))
		for i := range secs {
			mutable[i] = append([]byte(nil), secs[i]...)
		}
		edit(mutable)
		for _, sec := range mutable {
			edited = wire.AppendFrame(edited, sec)
		}
		if _, err := Resume(cfg, edited); err == nil {
			t.Errorf("%s: want error", name)
		} else if name == "version 1" && !strings.Contains(err.Error(), "snapshot version 1, want 2") {
			t.Errorf("version 1: got %v, want the version error", err)
		}
	}

	withChaos := cfg
	withChaos.Chaos = &chaos.Schedule{Seed: 1}
	if _, err := Resume(withChaos, snap); err == nil || !strings.Contains(err.Error(), "chaos") {
		t.Errorf("chaos mismatch: got %v, want chaos presence error", err)
	}
}
