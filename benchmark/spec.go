package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// spec is BENCHMARK.json: the program prints exactly the metrics it
// declares, and compare applies its bounds.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`

	exact map[string]bool
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// exactMetrics repeat bit for bit for equal seeds: they count simulated
// work, not host time.
var exactMetrics = []string{
	"sim.events", "beacon.div_overhead_bytes", "beacon.base_overhead_bytes", "beacon.div_base_bytes_ratio",
	"bgp.tx_bytes", "combinator.paths_per_pair", "combinator.attempts_per_pair", "combinator.useful_share",
	"dataplane.faulty_offpath_share", "dataplane.unaccounted", "pathsrv.segments", "pathsrv.wal_mb",
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(b, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(sp.EndToEnd) == 0 || len(sp.PerLayer) == 0 {
		return nil, fmt.Errorf("%s declares no metrics", path)
	}
	sp.exact = map[string]bool{}
	for _, n := range exactMetrics {
		sp.exact[n] = true
	}
	return &sp, nil
}

func (sp *spec) metric(name string) (specMetric, bool) {
	for _, m := range append(append([]specMetric(nil), sp.EndToEnd...), sp.PerLayer...) {
		if m.Name == name {
			return m, true
		}
	}
	return specMetric{}, false
}
