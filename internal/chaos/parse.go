package chaos

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"scionmpr/internal/addr"
	"scionmpr/internal/sim"
	"scionmpr/internal/topology"
)

// ParseSchedule reads a text fault schedule. The format is line based:
//
//	# comment
//	seed 42
//	end 30s
//	flap  <link> at 2s down 1s [period 6s] [until 20s] [jitter 100ms]
//	gray  <link> at 2s down 5s rate 0.3 [period ...] [until ...] [jitter ...]
//	spike <link> at 3s down 2s delay 200ms [...]
//	crash <ia>   at 4s down 3s [...]
//
// <link> is either a numeric link ID or an endpoint pair
// "1-ff00:0:110>1-ff00:0:111" resolved against g (first link between
// the two ASes). g may be nil when only numeric IDs are used.
func ParseSchedule(r io.Reader, g *topology.Graph) (*Schedule, error) {
	sched := &Schedule{}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if err := parseLine(sched, fields, g); err != nil {
			return nil, fmt.Errorf("chaos: line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if sched.End == 0 {
		return nil, fmt.Errorf("chaos: schedule has no 'end' directive")
	}
	return sched, nil
}

func parseLine(sched *Schedule, fields []string, g *topology.Graph) error {
	switch fields[0] {
	case "seed":
		if len(fields) != 2 {
			return fmt.Errorf("usage: seed <int>")
		}
		v, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return fmt.Errorf("bad seed %q", fields[1])
		}
		sched.Seed = v
		return nil
	case "end":
		if len(fields) != 2 {
			return fmt.Errorf("usage: end <duration>")
		}
		d, err := time.ParseDuration(fields[1])
		if err != nil || d <= 0 {
			return fmt.Errorf("bad end %q", fields[1])
		}
		sched.End = sim.Time(d)
		return nil
	case "flap", "gray", "spike", "crash":
		ev, err := parseEvent(fields, g)
		if err != nil {
			return err
		}
		sched.Events = append(sched.Events, *ev)
		return nil
	}
	return fmt.Errorf("unknown directive %q", fields[0])
}

func parseEvent(fields []string, g *topology.Graph) (*Event, error) {
	if len(fields) < 2 {
		return nil, fmt.Errorf("usage: %s <target> at <t> down <d> ...", fields[0])
	}
	ev := &Event{}
	switch fields[0] {
	case "flap":
		ev.Kind = Flap
	case "gray":
		ev.Kind = Gray
	case "spike":
		ev.Kind = Spike
	case "crash":
		ev.Kind = CrashAS
	}
	if ev.Kind == CrashAS {
		ia, err := addr.ParseIA(fields[1])
		if err != nil {
			return nil, fmt.Errorf("bad AS %q: %w", fields[1], err)
		}
		if g != nil && g.AS(ia) == nil {
			return nil, fmt.Errorf("unknown AS %s", ia)
		}
		ev.IA = ia
	} else {
		id, err := parseLink(fields[1], g)
		if err != nil {
			return nil, err
		}
		ev.Link = id
	}
	args := fields[2:]
	if len(args)%2 != 0 {
		return nil, fmt.Errorf("dangling argument in %q", strings.Join(fields, " "))
	}
	for i := 0; i < len(args); i += 2 {
		key, val := args[i], args[i+1]
		switch key {
		case "at", "down", "period", "until", "jitter", "delay":
			d, err := time.ParseDuration(val)
			if err != nil {
				return nil, fmt.Errorf("bad %s %q", key, val)
			}
			switch key {
			case "at":
				ev.At = sim.Time(d)
			case "down":
				ev.Down = d
			case "period":
				ev.Period = d
			case "until":
				ev.Until = sim.Time(d)
			case "jitter":
				ev.Jitter = d
			case "delay":
				ev.Delay = d
			}
		case "rate":
			r, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("bad rate %q", val)
			}
			ev.Rate = r
		default:
			return nil, fmt.Errorf("unknown argument %q", key)
		}
	}
	// Validate the assembled event here rather than at Apply time, so a
	// bad schedule file fails with its line number.
	if err := ev.validate(); err != nil {
		return nil, err
	}
	return ev, nil
}

// parseLink resolves a numeric link ID or an "<ia>><ia>" endpoint pair.
func parseLink(s string, g *topology.Graph) (topology.LinkID, error) {
	if a, b, ok := strings.Cut(s, ">"); ok {
		if g == nil {
			return 0, fmt.Errorf("endpoint link %q needs a topology", s)
		}
		src, err := addr.ParseIA(a)
		if err != nil {
			return 0, fmt.Errorf("bad AS %q: %w", a, err)
		}
		dst, err := addr.ParseIA(b)
		if err != nil {
			return 0, fmt.Errorf("bad AS %q: %w", b, err)
		}
		links := g.LinksBetween(src, dst)
		if len(links) == 0 {
			return 0, fmt.Errorf("no link between %s and %s", src, dst)
		}
		return links[0].ID, nil
	}
	v, err := strconv.ParseUint(s, 10, 32)
	if err != nil || v == 0 {
		return 0, fmt.Errorf("bad link %q", s)
	}
	id := topology.LinkID(v)
	if g != nil && g.LinkByID(id) == nil {
		return 0, fmt.Errorf("unknown link id %d", v)
	}
	return id, nil
}
