package strategy

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// New resolves a policy spec to a per-flow policy factory. A spec is a
// policy name optionally followed by whitespace-separated key=value
// parameters:
//
//	single-best
//	round-robin
//	weighted
//	latency [stretch=<float >1>]
//	disjoint
//	hybrid  [cap=<w>] [lat=<w>] [loss=<w>] [disj=<w>] [hops=<w>]
//	        [rev=<w>] [revwin=<duration>]
//
// Weights must be finite and non-negative; latency's stretch must be a
// finite value > 1; hybrid's revwin must be a positive Go duration.
// Unknown names, unknown keys, malformed pairs, and out-of-range values
// are errors. The factory builds an independent policy per flow (policies
// are stateful).
func New(spec string) (func() Policy, error) {
	fields := strings.Fields(spec)
	if len(fields) == 0 {
		return nil, fmt.Errorf("strategy: empty policy spec")
	}
	name, params := fields[0], fields[1:]
	kv, err := parseParams(params)
	if err != nil {
		return nil, fmt.Errorf("strategy: %q: %w", name, err)
	}
	switch name {
	case "single-best":
		if err := noParams(name, kv); err != nil {
			return nil, err
		}
		return func() Policy { return &SingleBest{} }, nil
	case "round-robin":
		if err := noParams(name, kv); err != nil {
			return nil, err
		}
		return func() Policy { return &RoundRobin{} }, nil
	case "weighted":
		if err := noParams(name, kv); err != nil {
			return nil, err
		}
		return func() Policy { return &WeightedBottleneck{} }, nil
	case "latency":
		stretch := 1.5
		for k, v := range kv {
			switch k {
			case "stretch":
				f, err := parseFloat(k, v)
				if err != nil {
					return nil, fmt.Errorf("strategy: %q: %w", name, err)
				}
				if f <= 1 {
					return nil, fmt.Errorf("strategy: %q: stretch must be > 1, got %v", name, v)
				}
				stretch = f
			default:
				return nil, fmt.Errorf("strategy: %q: unknown parameter %q", name, k)
			}
		}
		return func() Policy { return &LatencyAware{Stretch: stretch} }, nil
	case "disjoint":
		if err := noParams(name, kv); err != nil {
			return nil, err
		}
		return func() Policy { return &DisjointMax{} }, nil
	case "hybrid":
		w := DefaultHybridWeights()
		for k, v := range kv {
			var dst *float64
			switch k {
			case "cap":
				dst = &w.Capacity
			case "lat":
				dst = &w.Latency
			case "loss":
				dst = &w.Loss
			case "disj":
				dst = &w.Disjoint
			case "hops":
				dst = &w.Hops
			case "rev":
				dst = &w.Revocation
			case "revwin":
				d, err := time.ParseDuration(v)
				if err != nil {
					return nil, fmt.Errorf("strategy: %q: revwin: %w", name, err)
				}
				if d <= 0 {
					return nil, fmt.Errorf("strategy: %q: revwin must be positive, got %v", name, v)
				}
				w.RevocationWindow = d
				continue
			default:
				return nil, fmt.Errorf("strategy: %q: unknown parameter %q", name, k)
			}
			f, err := parseFloat(k, v)
			if err != nil {
				return nil, fmt.Errorf("strategy: %q: %w", name, err)
			}
			if f < 0 {
				return nil, fmt.Errorf("strategy: %q: %s must be non-negative, got %v", name, k, v)
			}
			*dst = f
		}
		if w.Capacity == 0 && w.Latency == 0 && w.Loss == 0 &&
			w.Disjoint == 0 && w.Hops == 0 && w.Revocation == 0 {
			return nil, fmt.Errorf("strategy: %q: all weights zero", name)
		}
		return func() Policy { return &Hybrid{W: w} }, nil
	default:
		return nil, fmt.Errorf("strategy: unknown policy %q", name)
	}
}

// parseParams splits key=value fields, rejecting malformed pairs and
// duplicate keys.
func parseParams(fields []string) (map[string]string, error) {
	if len(fields) == 0 {
		return nil, nil
	}
	kv := make(map[string]string, len(fields))
	for _, f := range fields {
		k, v, ok := strings.Cut(f, "=")
		if !ok || k == "" || v == "" {
			return nil, fmt.Errorf("malformed parameter %q (want key=value)", f)
		}
		if _, dup := kv[k]; dup {
			return nil, fmt.Errorf("duplicate parameter %q", k)
		}
		kv[k] = v
	}
	return kv, nil
}

// noParams rejects any parameters for policies that take none.
func noParams(name string, kv map[string]string) error {
	for k := range kv {
		return fmt.Errorf("strategy: %q takes no parameters, got %q", name, k)
	}
	return nil
}

// parseFloat parses a finite float parameter value.
func parseFloat(key, val string) (float64, error) {
	f, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", key, err)
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, fmt.Errorf("%s must be finite, got %v", key, val)
	}
	return f, nil
}
