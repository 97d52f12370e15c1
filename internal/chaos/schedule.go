package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"scionmpr/internal/addr"
	"scionmpr/internal/sim"
	"scionmpr/internal/topology"
)

// Kind enumerates the fault classes.
type Kind int

const (
	// Flap fails a link at the event time and restores it Down later;
	// with Period set it repeats, modelling a flapping link.
	Flap Kind = iota
	// Gray sets a probabilistic drop rate on a link for Down: the link
	// stays up and emits no revocations, it just silently sheds traffic.
	Gray
	// Spike overrides a link's one-way latency with Delay for Down.
	Spike
	// CrashAS stops an AS's control-plane process for Down: it neither
	// handles nor originates messages until it restarts.
	CrashAS
)

func (k Kind) String() string {
	switch k {
	case Flap:
		return "flap"
	case Gray:
		return "gray"
	case Spike:
		return "spike"
	case CrashAS:
		return "crash"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Event is one declarative fault. At is the first injection time, Down
// the outage duration. Period > 0 repeats the event every Period for
// injection times strictly before Until (or the schedule End when
// Until is zero). Jitter, if set,
// shifts every injection time by a seeded uniform offset in
// [-Jitter, +Jitter) — occurrences keep their order but lose lockstep
// alignment across links.
type Event struct {
	Kind   Kind
	Link   topology.LinkID // Flap, Gray, Spike
	IA     addr.IA         // CrashAS
	At     sim.Time
	Down   time.Duration
	Period time.Duration
	Until  sim.Time
	Rate   float64       // Gray: drop probability in (0, 1]
	Delay  time.Duration // Spike: temporary one-way latency
	Jitter time.Duration
}

// validate checks the invariants every event must satisfy, whether it
// was parsed from a schedule file or built in code. The comparisons
// are written so a NaN rate fails them.
func (ev *Event) validate() error {
	if ev.Down <= 0 {
		return fmt.Errorf("%s event needs down > 0", ev.Kind)
	}
	// A periodic event must heal before it re-fires: otherwise the same
	// event's occurrences overlap and the depth counting that lets
	// *different* events overlap deliberately would mask re-injections.
	if ev.Period > 0 && ev.Down > ev.Period {
		return fmt.Errorf("%s event overlaps itself: down %v > period %v", ev.Kind, ev.Down, ev.Period)
	}
	if ev.Kind == Gray && !(ev.Rate > 0 && ev.Rate <= 1) {
		return fmt.Errorf("gray event needs rate in (0, 1], got %g", ev.Rate)
	}
	if ev.Kind == Spike && ev.Delay <= 0 {
		return fmt.Errorf("spike event needs delay > 0")
	}
	return nil
}

// occurrences expands the event into concrete injection times, drawing
// any jitter from rng (consumed in a fixed order for determinism).
func (ev *Event) occurrences(end sim.Time, rng *rand.Rand) ([]sim.Time, error) {
	if err := ev.validate(); err != nil {
		return nil, err
	}
	until := ev.Until
	if until == 0 {
		until = end
	}
	var out []sim.Time
	for t := ev.At; ; t += sim.Time(ev.Period) {
		at := t
		if ev.Jitter > 0 {
			at += sim.Time(rng.Int63n(int64(2*ev.Jitter))) - sim.Time(ev.Jitter)
			if at < 0 {
				at = 0
			}
		}
		out = append(out, at)
		if ev.Period <= 0 || t+sim.Time(ev.Period) >= until {
			break
		}
	}
	return out, nil
}

// Schedule is a declarative fault plan: a seed for all randomness, a
// horizon, and the event list. The same schedule always expands to the
// same fault timeline.
type Schedule struct {
	Seed   int64
	End    sim.Time
	Events []Event
}

// String renders the schedule deterministically (events in order).
func (s *Schedule) String() string {
	out := fmt.Sprintf("schedule seed=%d end=%s events=%d", s.Seed, time.Duration(s.End), len(s.Events))
	for _, ev := range s.Events {
		out += "\n  " + ev.String()
	}
	return out
}

func (ev Event) String() string {
	switch ev.Kind {
	case CrashAS:
		return fmt.Sprintf("crash %s at=%s down=%s period=%s", ev.IA, time.Duration(ev.At), ev.Down, ev.Period)
	case Gray:
		return fmt.Sprintf("gray link=%d at=%s down=%s rate=%.3f period=%s", ev.Link, time.Duration(ev.At), ev.Down, ev.Rate, ev.Period)
	case Spike:
		return fmt.Sprintf("spike link=%d at=%s down=%s delay=%s period=%s", ev.Link, time.Duration(ev.At), ev.Down, ev.Delay, ev.Period)
	default:
		return fmt.Sprintf("flap link=%d at=%s down=%s period=%s", ev.Link, time.Duration(ev.At), ev.Down, ev.Period)
	}
}

// CrashStorm builds the standard replica crash-storm schedule: every
// target process crashes for down every period, phases staggered across
// the period so outages roll through the targets continuously instead
// of hitting them in lockstep. Events run from start to end.
func CrashStorm(seed int64, targets []addr.IA, start, end sim.Time, down, period time.Duration) *Schedule {
	sched := &Schedule{Seed: seed, End: end}
	n := len(targets)
	for i, ia := range targets {
		phase := time.Duration(i) * period / time.Duration(n)
		sched.Events = append(sched.Events, Event{
			Kind:   CrashAS,
			IA:     ia,
			At:     start + sim.Time(phase),
			Down:   down,
			Period: period,
			Until:  end - sim.Time(down),
		})
	}
	return sched
}

// FlapChurn builds the standard continuous-churn schedule: n links
// drawn without replacement from links (seeded), each flapping with
// the given down time every period, phases staggered across the period
// so failures arrive continuously rather than in lockstep. Events run
// from start to end.
func FlapChurn(seed int64, links []topology.LinkID, n int, start, end sim.Time, down, period time.Duration) *Schedule {
	rng := rand.New(rand.NewSource(seed))
	pool := append([]topology.LinkID(nil), links...)
	sort.Slice(pool, func(i, j int) bool { return pool[i] < pool[j] })
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	if n > len(pool) {
		n = len(pool)
	}
	sched := &Schedule{Seed: seed, End: end}
	for i := 0; i < n; i++ {
		phase := time.Duration(0)
		if n > 0 {
			phase = time.Duration(i) * period / time.Duration(n)
		}
		sched.Events = append(sched.Events, Event{
			Kind:   Flap,
			Link:   pool[i],
			At:     start + sim.Time(phase),
			Down:   down,
			Period: period,
			Until:  end - sim.Time(down),
		})
	}
	return sched
}
