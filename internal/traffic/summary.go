package traffic

import (
	"fmt"
	"io"
	"time"

	"scionmpr/internal/metrics"
)

// Summary is the deterministic run report: flow-population counters,
// delivered and lost bytes, and the per-flow observable distributions the
// paper's data-plane figures are built from.
type Summary struct {
	Flows, Completed, Failed, Active int

	DeliveredBytes int64
	LostBytes      int64

	PathSwitches int
	Requeries    uint64
	Revocations  uint64

	// Elapsed is the virtual time at summarization.
	Elapsed time.Duration

	// FCTSeconds holds completion times of finished flows.
	FCTSeconds []float64
	// GoodputBps holds per-flow goodput of finished flows.
	GoodputBps []float64
	// ActiveGoodputBps holds goodput of flows still running.
	ActiveGoodputBps []float64

	// LinkUtil is the per-link-direction utilization in deterministic order.
	LinkUtil []LinkUtil
}

// Summarize captures the engine state at the current virtual time.
func (e *Engine) Summarize() *Summary {
	now := e.clock.Now()
	s := &Summary{
		Flows:       len(e.flows),
		Requeries:   e.Requeries,
		Revocations: e.Revocations,
		Elapsed:     time.Duration(now),
		LinkUtil:    e.cfg.Links.Utilizations(time.Duration(now)),
	}
	for _, f := range e.flows {
		s.DeliveredBytes += f.sent
		s.LostBytes += f.lost
		s.PathSwitches += f.switches
		switch f.state {
		case flowDone:
			s.Completed++
			s.FCTSeconds = append(s.FCTSeconds, f.FCT().Seconds())
			s.GoodputBps = append(s.GoodputBps, f.Goodput(now))
		case flowFailed:
			s.Failed++
		case flowActive:
			s.Active++
			s.ActiveGoodputBps = append(s.ActiveGoodputBps, f.Goodput(now))
		}
	}
	return s
}

// AggregateGoodput returns total delivered bytes per second of elapsed
// virtual time.
func (s *Summary) AggregateGoodput() float64 {
	secs := s.Elapsed.Seconds()
	if secs <= 0 {
		return 0
	}
	return float64(s.DeliveredBytes) / secs
}

// Print renders the summary deterministically (fixed iteration orders,
// no timestamps) so equal seeds produce byte-identical reports.
func (s *Summary) Print(w io.Writer) {
	fmt.Fprintf(w, "flows: %d total, %d completed, %d failed, %d active\n",
		s.Flows, s.Completed, s.Failed, s.Active)
	fmt.Fprintf(w, "delivered: %s, lost: %s, aggregate goodput: %s\n",
		metrics.FmtBytes(float64(s.DeliveredBytes)), metrics.FmtBytes(float64(s.LostBytes)),
		metrics.FmtRate(s.AggregateGoodput()))
	fmt.Fprintf(w, "path switches: %d, requeries: %d, revocations: %d\n",
		s.PathSwitches, s.Requeries, s.Revocations)
	fmt.Fprintf(w, "elapsed: %s\n", s.Elapsed)
	var series []metrics.Series
	if len(s.FCTSeconds) > 0 {
		series = append(series, metrics.Series{Name: "fct-seconds", CDF: metrics.NewCDF(s.FCTSeconds)})
	}
	if len(s.GoodputBps) > 0 {
		series = append(series, metrics.Series{Name: "goodput-Bps", CDF: metrics.NewCDF(s.GoodputBps)})
	}
	if len(s.ActiveGoodputBps) > 0 {
		series = append(series, metrics.Series{Name: "active-goodput-Bps", CDF: metrics.NewCDF(s.ActiveGoodputBps)})
	}
	if len(series) > 0 {
		metrics.FprintCDFs(w, "flow metrics", series)
	}
	if n := len(s.LinkUtil); n > 0 {
		util := make([]float64, 0, n)
		hot := 0.0
		for _, u := range s.LinkUtil {
			util = append(util, u.Util)
			if u.Util > hot {
				hot = u.Util
			}
		}
		c := metrics.NewCDF(util)
		fmt.Fprintf(w, "link directions with traffic: %d, median util: %.4f, p95 util: %.4f, max util: %.4f\n",
			n, c.Median(), c.Quantile(0.95), hot)
	}
}
