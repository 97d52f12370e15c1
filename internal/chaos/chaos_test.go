package chaos

import (
	"math"
	"strings"
	"testing"
	"time"

	"scionmpr/internal/addr"
	"scionmpr/internal/sim"
	"scionmpr/internal/topology"
)

// recorder implements FaultTarget and CrashTarget, logging transitions.
type recorder struct {
	failed map[topology.LinkID]bool
	loss   map[topology.LinkID]float64
	delay  map[topology.LinkID]time.Duration
	downAS map[addr.IA]bool
	log    []string
	clock  *sim.Simulator
}

func newRecorder(s *sim.Simulator) *recorder {
	return &recorder{
		failed: map[topology.LinkID]bool{},
		loss:   map[topology.LinkID]float64{},
		delay:  map[topology.LinkID]time.Duration{},
		downAS: map[addr.IA]bool{},
		clock:  s,
	}
}

func (r *recorder) note(what string) {
	r.log = append(r.log, time.Duration(r.clock.Now()).String()+" "+what)
}

func (r *recorder) FailLink(id topology.LinkID)    { r.failed[id] = true; r.note("fail") }
func (r *recorder) RestoreLink(id topology.LinkID) { delete(r.failed, id); r.note("restore") }
func (r *recorder) SetLinkLoss(id topology.LinkID, rate float64) {
	if rate <= 0 {
		delete(r.loss, id)
	} else {
		r.loss[id] = rate
	}
}
func (r *recorder) SetLinkDelay(id topology.LinkID, d time.Duration) {
	if d <= 0 {
		delete(r.delay, id)
	} else {
		r.delay[id] = d
	}
}
func (r *recorder) Crash(ia addr.IA)   { r.downAS[ia] = true; r.note("crash") }
func (r *recorder) Restart(ia addr.IA) { delete(r.downAS, ia); r.note("restart") }

func TestFlapFailsAndRestores(t *testing.T) {
	s := &sim.Simulator{}
	rec := newRecorder(s)
	e := NewEngine(s, rec)
	sched := &Schedule{End: sim.Time(10 * time.Second), Events: []Event{
		{Kind: Flap, Link: 1, At: sim.Time(time.Second), Down: 2 * time.Second},
	}}
	if err := e.Apply(sched); err != nil {
		t.Fatal(err)
	}
	s.At(sim.Time(2*time.Second), func() {
		if !rec.failed[1] {
			t.Error("link 1 should be failed at t=2s")
		}
	})
	s.At(sim.Time(4*time.Second), func() {
		if rec.failed[1] {
			t.Error("link 1 should be restored at t=4s")
		}
	})
	s.Run()
	want := []string{"1s fail", "3s restore"}
	if len(rec.log) != 2 || rec.log[0] != want[0] || rec.log[1] != want[1] {
		t.Errorf("log = %v, want %v", rec.log, want)
	}
}

func TestPeriodicFlapRepeats(t *testing.T) {
	s := &sim.Simulator{}
	rec := newRecorder(s)
	e := NewEngine(s, rec)
	sched := &Schedule{End: sim.Time(20 * time.Second), Events: []Event{
		{Kind: Flap, Link: 3, At: 0, Down: time.Second, Period: 5 * time.Second},
	}}
	if err := e.Apply(sched); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if got := e.Injections[Flap]; got != 4 {
		t.Errorf("flap injections = %d, want 4 (t=0,5s,10s,15s)", got)
	}
	if rec.failed[3] {
		t.Error("link must end restored")
	}
}

func TestOverlappingFlapsDepthCounted(t *testing.T) {
	s := &sim.Simulator{}
	rec := newRecorder(s)
	e := NewEngine(s, rec)
	// Two overlapping outages on the same link: [1s,5s) and [2s,3s).
	// The inner restore at 3s must NOT bring the link back up.
	sched := &Schedule{End: sim.Time(10 * time.Second), Events: []Event{
		{Kind: Flap, Link: 7, At: sim.Time(time.Second), Down: 4 * time.Second},
		{Kind: Flap, Link: 7, At: sim.Time(2 * time.Second), Down: time.Second},
	}}
	if err := e.Apply(sched); err != nil {
		t.Fatal(err)
	}
	s.At(sim.Time(4*time.Second), func() {
		if !rec.failed[7] {
			t.Error("link 7 must still be failed at t=4s (outer flap active)")
		}
	})
	s.Run()
	// Exactly one fail/restore edge pair despite two flap events.
	if len(rec.log) != 2 {
		t.Errorf("transitions = %v, want exactly [fail restore]", rec.log)
	}
	if rec.failed[7] {
		t.Error("link must end restored")
	}
}

func TestOverlappingCrashesHealExactlyOnce(t *testing.T) {
	s := &sim.Simulator{}
	rec := newRecorder(s)
	e := NewEngine(s)
	e.AddCrashTarget(rec)
	ia := addr.MustIA(1, 0xff00_0000_0110)
	// Two overlapping outages on the same AS: [1s,5s) and [2s,3s) —
	// exactly the shape a rolling crash storm plus a blackout produces.
	// The inner restart at 3s must NOT bring the process back (crash
	// depth 2), and the whole overlap must yield one crash/restart pair.
	sched := &Schedule{End: sim.Time(10 * time.Second), Events: []Event{
		{Kind: CrashAS, IA: ia, At: sim.Time(time.Second), Down: 4 * time.Second},
		{Kind: CrashAS, IA: ia, At: sim.Time(2 * time.Second), Down: time.Second},
	}}
	if err := e.Apply(sched); err != nil {
		t.Fatal(err)
	}
	s.At(sim.Time(4*time.Second), func() {
		if !rec.downAS[ia] {
			t.Error("AS must still be down at t=4s (outer crash active)")
		}
	})
	s.Run()
	if got := e.Injections[CrashAS]; got != 2 {
		t.Errorf("crash injections = %d, want 2", got)
	}
	want := []string{"1s crash", "5s restart"}
	if len(rec.log) != 2 || rec.log[0] != want[0] || rec.log[1] != want[1] {
		t.Errorf("log = %v, want %v (heal exactly once)", rec.log, want)
	}
	if rec.downAS[ia] {
		t.Error("AS must end restarted")
	}
}

func TestCrashStormStaggeredAndBounded(t *testing.T) {
	ias := []addr.IA{
		addr.MustIA(60000, 1), addr.MustIA(60000, 2), addr.MustIA(60000, 3),
	}
	start, end := sim.Time(2*time.Second), sim.Time(10*time.Second)
	a := CrashStorm(5, ias, start, end, time.Second, 3*time.Second)
	b := CrashStorm(5, ias, start, end, time.Second, 3*time.Second)
	if a.String() != b.String() {
		t.Fatal("CrashStorm not deterministic for same inputs")
	}
	if len(a.Events) != 3 {
		t.Fatalf("events = %d, want 3", len(a.Events))
	}
	seen := map[sim.Time]bool{}
	for _, ev := range a.Events {
		if ev.Kind != CrashAS {
			t.Fatalf("event kind = %v", ev.Kind)
		}
		if seen[ev.At] {
			t.Errorf("two crashes start at %v; phases must be staggered", ev.At)
		}
		seen[ev.At] = true
		if ev.At < start {
			t.Errorf("crash at %v before storm start", ev.At)
		}
		if ev.Until != end-sim.Time(time.Second) {
			t.Errorf("Until = %v, want %v", ev.Until, end-sim.Time(time.Second))
		}
	}
}

func TestGrayAndSpikeStacking(t *testing.T) {
	s := &sim.Simulator{}
	rec := newRecorder(s)
	e := NewEngine(s, rec)
	sched := &Schedule{End: sim.Time(10 * time.Second), Events: []Event{
		{Kind: Gray, Link: 2, At: 0, Down: 6 * time.Second, Rate: 0.1},
		{Kind: Gray, Link: 2, At: sim.Time(time.Second), Down: 2 * time.Second, Rate: 0.5},
		{Kind: Spike, Link: 2, At: 0, Down: 4 * time.Second, Delay: 50 * time.Millisecond},
	}}
	if err := e.Apply(sched); err != nil {
		t.Fatal(err)
	}
	s.At(sim.Time(2*time.Second), func() {
		if rec.loss[2] != 0.5 {
			t.Errorf("loss at t=2s = %g, want 0.5 (strongest active)", rec.loss[2])
		}
		if rec.delay[2] != 50*time.Millisecond {
			t.Errorf("delay at t=2s = %s, want 50ms", rec.delay[2])
		}
	})
	s.At(sim.Time(4*time.Second), func() {
		if rec.loss[2] != 0.1 {
			t.Errorf("loss at t=4s = %g, want 0.1 (inner gray expired)", rec.loss[2])
		}
	})
	s.Run()
	if _, ok := rec.loss[2]; ok {
		t.Error("loss must be cleared at end")
	}
	if _, ok := rec.delay[2]; ok {
		t.Error("delay must be restored at end")
	}
}

func TestCrashRestart(t *testing.T) {
	s := &sim.Simulator{}
	rec := newRecorder(s)
	e := NewEngine(s)
	e.AddCrashTarget(rec)
	ia := addr.MustIA(1, 0xff00_0000_0110)
	sched := &Schedule{End: sim.Time(10 * time.Second), Events: []Event{
		{Kind: CrashAS, IA: ia, At: sim.Time(time.Second), Down: 3 * time.Second},
	}}
	if err := e.Apply(sched); err != nil {
		t.Fatal(err)
	}
	s.At(sim.Time(2*time.Second), func() {
		if !rec.downAS[ia] {
			t.Error("AS should be down at t=2s")
		}
	})
	s.Run()
	if rec.downAS[ia] {
		t.Error("AS must end restarted")
	}
}

func TestScheduleValidation(t *testing.T) {
	s := &sim.Simulator{}
	e := NewEngine(s, newRecorder(s))
	for _, bad := range []Event{
		{Kind: Flap, Link: 1, Down: 0},
		{Kind: Gray, Link: 1, Down: time.Second, Rate: 0},
		{Kind: Gray, Link: 1, Down: time.Second, Rate: 1.5},
		{Kind: Gray, Link: 1, Down: time.Second, Rate: math.NaN()},
		{Kind: Spike, Link: 1, Down: time.Second, Delay: 0},
		// A periodic event whose outage outlasts its period would overlap
		// itself and hide re-injections behind the depth counting.
		{Kind: Flap, Link: 1, Down: 2 * time.Second, Period: time.Second},
		{Kind: CrashAS, IA: addr.MustIA(1, 0xff00_0000_0110), Down: 5 * time.Second, Period: 3 * time.Second},
	} {
		sched := &Schedule{End: sim.Time(time.Second), Events: []Event{bad}}
		if err := e.Apply(sched); err == nil {
			t.Errorf("Apply(%+v) did not fail", bad)
		}
	}
}

func TestJitterDeterministic(t *testing.T) {
	expand := func() []sim.Time {
		s := &sim.Simulator{}
		rec := newRecorder(s)
		e := NewEngine(s, rec)
		sched := &Schedule{Seed: 99, End: sim.Time(60 * time.Second), Events: []Event{
			{Kind: Flap, Link: 1, At: sim.Time(time.Second), Down: time.Second,
				Period: 5 * time.Second, Jitter: 500 * time.Millisecond},
		}}
		if err := e.Apply(sched); err != nil {
			t.Fatal(err)
		}
		var times []sim.Time
		prev := ""
		s.Every(0, 10*time.Millisecond, sim.Time(60*time.Second), func(now sim.Time) {
			state := "up"
			if rec.failed[1] {
				state = "down"
			}
			if state != prev && state == "down" {
				times = append(times, now)
			}
			prev = state
		})
		s.Run()
		return times
	}
	a, b := expand(), expand()
	if len(a) == 0 {
		t.Fatal("no flap transitions observed")
	}
	if len(a) != len(b) {
		t.Fatalf("runs diverged: %d vs %d transitions", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("transition %d at %v vs %v: jitter not deterministic", i, a[i], b[i])
		}
	}
}

func TestFlapChurnDeterministicAndStaggered(t *testing.T) {
	links := []topology.LinkID{1, 2, 3, 4, 5, 6, 7, 8}
	a := FlapChurn(7, links, 4, 0, sim.Time(time.Minute), time.Second, 10*time.Second)
	b := FlapChurn(7, links, 4, 0, sim.Time(time.Minute), time.Second, 10*time.Second)
	if a.String() != b.String() {
		t.Fatal("FlapChurn not deterministic for same seed")
	}
	if len(a.Events) != 4 {
		t.Fatalf("events = %d, want 4", len(a.Events))
	}
	seen := map[sim.Time]bool{}
	for _, ev := range a.Events {
		if seen[ev.At] {
			t.Errorf("two flaps start at %v; phases must be staggered", ev.At)
		}
		seen[ev.At] = true
	}
	c := FlapChurn(8, links, 4, 0, sim.Time(time.Minute), time.Second, 10*time.Second)
	if a.String() == c.String() {
		t.Error("different seeds should draw different links")
	}
}

func TestParseSchedule(t *testing.T) {
	g := topology.Demo()
	links := g.Links
	if len(links) == 0 {
		t.Fatal("demo topology has no links")
	}
	l := links[0]
	text := `
# demo schedule
seed 42
end 30s
flap 1 at 2s down 1s period 6s until 20s
gray ` + l.A.String() + ">" + l.B.String() + ` at 3s down 5s rate 0.25
spike 2 at 4s down 2s delay 200ms jitter 50ms
crash ` + l.A.String() + ` at 5s down 3s
`
	sched, err := ParseSchedule(strings.NewReader(text), g)
	if err != nil {
		t.Fatal(err)
	}
	if sched.Seed != 42 || sched.End != sim.Time(30*time.Second) {
		t.Errorf("header = seed %d end %v", sched.Seed, sched.End)
	}
	if len(sched.Events) != 4 {
		t.Fatalf("events = %d, want 4", len(sched.Events))
	}
	if ev := sched.Events[1]; ev.Kind != Gray || ev.Link != l.ID || ev.Rate != 0.25 {
		t.Errorf("gray event = %+v", ev)
	}
	if ev := sched.Events[3]; ev.Kind != CrashAS || ev.IA != l.A {
		t.Errorf("crash event = %+v", ev)
	}

	for _, bad := range []string{
		"end 10s\nflap 0 at 1s down 1s",        // link id 0
		"end 10s\nflap x at 1s down 1s",        // garbage link
		"end 10s\nwarp 1 at 1s down 1s",        // unknown directive
		"end 10s\ngray 1 at 1s down 1s rate x", // bad rate
		"end 10s\nflap 1 at 1s down",           // dangling arg
		"flap 1 at 1s down 1s",                 // missing end
		"end 10s\nflap 9999 at 1s down 1s",     // unknown link id
		"end 10s\ncrash",                       // crash without a target
		"end 10s\ncrash notania at 1s down 1s", // garbage AS
		"end 10s\ncrash 1>2 at 1s down 1s",     // link syntax on a crash
		"end 10s\ncrash 1-10 at 1s down x",     // bad duration
		"end 10s\ncrash 1-10 at 1s halt 1s",    // unknown argument
	} {
		if _, err := ParseSchedule(strings.NewReader(bad), g); err == nil {
			t.Errorf("ParseSchedule(%q) did not fail", bad)
		}
	}
}

// TestParseScheduleRejectsInvalidEvents pins the parse-time event
// validation: schedule files fail with a line number instead of
// surviving until Engine.Apply.
func TestParseScheduleRejectsInvalidEvents(t *testing.T) {
	g := topology.Demo()
	known := g.IAs()[0]
	for _, tc := range []struct {
		name, text, wantErr string
	}{
		{"zero-duration flap", "end 10s\nflap 1 at 1s down 0s", "down > 0"},
		{"negative-duration crash", "end 10s\ncrash " + known.String() + " at 1s down -2s", "down > 0"},
		{"missing down", "end 10s\nflap 1 at 1s", "down > 0"},
		{"self-overlapping flap", "end 30s\nflap 1 at 1s down 5s period 2s", "overlaps itself"},
		{"self-overlapping crash", "end 30s\ncrash " + known.String() + " at 1s down 4s period 3s", "overlaps itself"},
		{"unknown crash target", "end 10s\ncrash 99-ff00:0:999 at 1s down 1s", "unknown AS"},
		{"gray without rate", "end 10s\ngray 1 at 1s down 1s", "rate in (0, 1]"},
		{"gray rate above one", "end 10s\ngray 1 at 1s down 1s rate 1.25", "rate in (0, 1]"},
		{"gray rate NaN", "end 10s\ngray 1 at 1s down 1s rate NaN", "rate in (0, 1]"},
		{"spike without delay", "end 10s\nspike 1 at 1s down 1s", "delay > 0"},
	} {
		_, err := ParseSchedule(strings.NewReader(tc.text), g)
		if err == nil {
			t.Errorf("%s: ParseSchedule(%q) did not fail", tc.name, tc.text)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
		if !strings.Contains(err.Error(), "line 2") {
			t.Errorf("%s: error %q does not carry the line number", tc.name, err)
		}
	}
	// Distinct events may still overlap on the same target — that is the
	// depth-counted feature TestOverlappingFlapsDepthCounted pins, and it
	// must survive the parse-time validation.
	ok := "end 30s\nflap 1 at 1s down 4s\nflap 1 at 2s down 1s"
	if _, err := ParseSchedule(strings.NewReader(ok), g); err != nil {
		t.Errorf("cross-event overlap must stay legal, got %v", err)
	}
	// Unknown crash targets are only detectable with a topology in hand.
	if _, err := ParseSchedule(strings.NewReader("end 10s\ncrash 99-ff00:0:999 at 1s down 1s"), nil); err != nil {
		t.Errorf("crash on nil topology must stay legal, got %v", err)
	}
}
