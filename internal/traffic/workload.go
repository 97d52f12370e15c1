package traffic

import (
	"math"
	"math/rand"
	"time"

	"scionmpr/internal/addr"
	"scionmpr/internal/metrics"
)

// WorkloadParams configures the deterministic workload generator:
// Poisson flow arrivals, heavy-tailed (bounded Pareto) flow sizes and
// Zipf-skewed pair popularity — the stylized facts of Internet traffic the
// paper's workload discussion builds on (§4.1).
type WorkloadParams struct {
	// Flows is how many flows to generate.
	Flows int
	// Pairs are the candidate (src, dst) endpoint pairs.
	Pairs [][2]addr.IA
	// ArrivalRate is the Poisson arrival rate in flows per second.
	ArrivalRate float64
	// MeanSize is the mean flow size in bytes.
	MeanSize float64
	// TailAlpha is the Pareto tail exponent (default 1.5; smaller = heavier).
	TailAlpha float64
	// MaxSizeFactor caps flow sizes at MaxSizeFactor * MeanSize
	// (default 100) so a single elephant cannot dominate the run.
	MaxSizeFactor float64
	// ZipfS, if > 0, skews pair popularity with a Zipf(s) distribution;
	// otherwise pairs are drawn uniformly.
	ZipfS float64
	// Seed drives all randomness; equal seeds yield identical workloads.
	Seed int64
}

// Generate produces the flow specs of a workload, sorted by arrival time
// (IDs are assigned in arrival order starting at 0).
func Generate(p WorkloadParams) []FlowSpec {
	if p.Flows <= 0 || len(p.Pairs) == 0 {
		return nil
	}
	if p.ArrivalRate <= 0 {
		p.ArrivalRate = 1000
	}
	if p.MeanSize <= 0 {
		p.MeanSize = 256 << 10
	}
	alpha := p.TailAlpha
	if alpha <= 1 {
		alpha = 1.5
	}
	maxFactor := p.MaxSizeFactor
	if maxFactor <= 1 {
		maxFactor = 100
	}
	rng := rand.New(rand.NewSource(p.Seed))
	var ranks *metrics.ZipfRanks
	if p.ZipfS > 0 {
		ranks = metrics.NewZipfRanks(len(p.Pairs), p.ZipfS, p.Seed+1)
	}
	// Bounded Pareto: xm chosen so the unbounded mean matches MeanSize.
	xm := p.MeanSize * (alpha - 1) / alpha
	maxSize := p.MeanSize * maxFactor
	specs := make([]FlowSpec, 0, p.Flows)
	t := 0.0
	for i := 0; i < p.Flows; i++ {
		t += rng.ExpFloat64() / p.ArrivalRate
		size := xm / math.Pow(rng.Float64(), 1/alpha)
		if size > maxSize {
			size = maxSize
		}
		var pair [2]addr.IA
		if ranks != nil {
			pair = p.Pairs[ranks.Next()]
		} else {
			pair = p.Pairs[rng.Intn(len(p.Pairs))]
		}
		specs = append(specs, FlowSpec{
			ID:    i,
			Src:   pair[0],
			Dst:   pair[1],
			Start: time.Duration(t * float64(time.Second)),
			Size:  int64(size),
		})
	}
	return specs
}
