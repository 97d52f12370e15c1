package topology

import (
	"fmt"
	"math/rand"

	"scionmpr/internal/addr"
)

// GenParams configures the synthetic Internet generator. The defaults
// (DefaultGenParams) are tuned so that the generated graph matches the
// structural statistics of the CAIDA AS-rel-geo dataset the paper
// simulates on: a small clique of tier-1 providers, a transit layer with
// power-law customer-cone sizes, a large stub population, settlement-free
// peering concentrated in the transit layer, and frequent parallel links
// between high-degree neighbors (multiple interconnection locations).
type GenParams struct {
	// NumASes is the total AS count (paper: 12000).
	NumASes int
	// Tier1 is the size of the fully-meshed top clique.
	Tier1 int
	// TransitFrac is the fraction of ASes (beyond tier-1) acting as
	// transit providers.
	TransitFrac float64
	// MaxProviders bounds the providers each non-tier-1 AS buys from.
	MaxProviders int
	// PeerProb is the probability that two same-layer transit ASes
	// probed for peering actually peer.
	PeerProb float64
	// PeerTrials is the number of peering candidates probed per transit AS.
	PeerTrials int
	// ParallelDist[i] is the probability of i+1 parallel links between a
	// connected AS pair; it must sum to 1.
	ParallelDist []float64
	// ISD assigned to all generated ASes (re-assigned later by ISD
	// extraction helpers).
	ISD addr.ISD
	// Seed makes generation deterministic.
	Seed int64
}

// DefaultGenParams returns parameters matching the paper's 12000-AS
// CAIDA-derived topology in hierarchy shape and parallel-link frequency.
func DefaultGenParams() GenParams {
	return GenParams{
		NumASes:      12000,
		Tier1:        15,
		TransitFrac:  0.15,
		MaxProviders: 3,
		PeerProb:     0.35,
		PeerTrials:   4,
		ParallelDist: []float64{0.55, 0.25, 0.12, 0.08},
		ISD:          1,
		Seed:         1,
	}
}

// Generate builds a deterministic synthetic Internet topology.
func Generate(p GenParams) (*Graph, error) {
	if p.NumASes < p.Tier1 || p.Tier1 < 2 {
		return nil, fmt.Errorf("topology: generate: need NumASes >= Tier1 >= 2, got %d/%d", p.NumASes, p.Tier1)
	}
	if p.MaxProviders < 1 {
		return nil, fmt.Errorf("topology: generate: MaxProviders must be >= 1")
	}
	if len(p.ParallelDist) == 0 {
		p.ParallelDist = []float64{1}
	}
	rng := rand.New(rand.NewSource(p.Seed))
	g := New()

	ias := make([]addr.IA, p.NumASes)
	for i := 0; i < p.NumASes; i++ {
		ias[i] = addr.IA{ISD: p.ISD, AS: addr.AS(i + 1)}
		g.AddAS(ias[i], false)
	}

	tier1 := ias[:p.Tier1]
	numTransit := int(float64(p.NumASes-p.Tier1) * p.TransitFrac)
	transit := ias[p.Tier1 : p.Tier1+numTransit]
	stubs := ias[p.Tier1+numTransit:]

	multi := func() int {
		x := rng.Float64()
		acc := 0.0
		for i, pr := range p.ParallelDist {
			acc += pr
			if x < acc {
				return i + 1
			}
		}
		return len(p.ParallelDist)
	}
	connect := func(a, b addr.IA, rel Rel) {
		n := multi()
		for i := 0; i < n; i++ {
			g.MustConnect(a, b, rel)
		}
	}

	// Tier-1 clique: settlement-free peering (relabeled Core by core
	// extraction for the SCION experiments).
	for i := range tier1 {
		for j := i + 1; j < len(tier1); j++ {
			connect(tier1[i], tier1[j], PeerOf)
		}
	}

	// Preferential attachment over providers: weight candidates by their
	// accumulated customer count + 1 so customer-cone sizes follow a
	// power law, as observed by CAIDA AS-Rank.
	custCount := map[addr.IA]int{}
	pickProvider := func(candidates []addr.IA) addr.IA {
		total := 0
		for _, c := range candidates {
			total += custCount[c] + 1
		}
		x := rng.Intn(total)
		for _, c := range candidates {
			x -= custCount[c] + 1
			if x < 0 {
				return c
			}
		}
		return candidates[len(candidates)-1]
	}
	buyTransit := func(as addr.IA, pool []addr.IA) {
		n := 1 + rng.Intn(p.MaxProviders)
		chosen := map[addr.IA]struct{}{}
		for i := 0; i < n; i++ {
			prov := pickProvider(pool)
			if _, dup := chosen[prov]; dup {
				continue
			}
			chosen[prov] = struct{}{}
			custCount[prov]++
			connect(prov, as, ProviderOf)
		}
	}

	for _, t := range transit {
		buyTransit(t, tier1)
	}
	for i, s := range stubs {
		pool := transit
		// A small share of stubs buy directly from tier-1 (content and
		// enterprise networks do in practice).
		if numTransit == 0 || i%17 == 0 {
			pool = tier1
		}
		buyTransit(s, pool)
	}

	// Transit-layer peering: each transit AS probes a few random others.
	for _, t := range transit {
		for k := 0; k < p.PeerTrials; k++ {
			o := transit[rng.Intn(len(transit))]
			if o == t || rng.Float64() >= p.PeerProb {
				continue
			}
			if len(g.LinksBetween(t, o)) > 0 {
				continue
			}
			connect(t, o, PeerOf)
		}
	}

	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}
