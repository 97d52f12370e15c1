package chaos

import (
	"strings"
	"testing"
)

// FuzzParseSchedule feeds arbitrary text to the schedule parser: it
// must never panic, and every schedule it accepts satisfies the
// documented event invariants (so Engine.Apply cannot meet an event
// the parser should have refused).
func FuzzParseSchedule(f *testing.F) {
	f.Add("seed 42\nend 30s\nflap 1 at 2s down 1s period 6s until 20s jitter 100ms\n")
	f.Add("# comment\nend 10s\ngray 2 at 1s down 5s rate 0.3\nspike 3 at 3s down 2s delay 200ms\n")
	f.Add("end 10s\ncrash 1-ff00:0:110 at 4s down 3s\n")
	f.Add("end 10s\ngray 1 at 1s down 5s rate NaN\n")
	f.Add("end 10s\nflap 1-ff00:0:110>1-ff00:0:111 at 1s down 1s\n")
	f.Add("end 30s\nflap 1 at 1s down 5s period 2s\n")

	f.Fuzz(func(t *testing.T, text string) {
		sched, err := ParseSchedule(strings.NewReader(text), nil)
		if err != nil {
			return
		}
		if sched.End <= 0 {
			t.Fatalf("accepted schedule without a positive end: %v", sched)
		}
		for _, ev := range sched.Events {
			switch {
			case ev.Down <= 0:
				t.Fatalf("accepted %v with down <= 0", ev)
			case ev.Period > 0 && ev.Down > ev.Period:
				t.Fatalf("accepted self-overlapping %v", ev)
			case ev.Kind == Gray && !(ev.Rate > 0 && ev.Rate <= 1):
				t.Fatalf("accepted %v with rate outside (0, 1]", ev)
			case ev.Kind == Spike && ev.Delay <= 0:
				t.Fatalf("accepted %v with delay <= 0", ev)
			case ev.Kind != CrashAS && ev.Link == 0:
				t.Fatalf("accepted %v on link 0", ev)
			}
		}
	})
}
