package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"scionmpr/internal/core"
	"scionmpr/internal/experiments"
	"scionmpr/internal/telemetry"
	"scionmpr/internal/topology"
	"scionmpr/scion"
)

// observer is the -telemetry/-trace pair: a metrics registry and a
// tracer, served over HTTP during the run, the trace written as JSONL at
// its end. Both stay nil when neither flag is set.
type observer struct {
	addr, trace string
	reg         *telemetry.Registry
	tracer      *telemetry.Tracer
}

func observerFlags(fs *flag.FlagSet) *observer {
	o := &observer{}
	fs.StringVar(&o.addr, "telemetry", "", "serve /metrics, /snapshot, /trace and /debug/pprof on this address during the run (e.g. localhost:6060)")
	fs.StringVar(&o.trace, "trace", "", "write the structured trace event log (JSONL) to this file at exit")
	return o
}

// start creates the registry and tracer when either flag is set, and
// serves them on the -telemetry address.
func (o *observer) start() error {
	if o.addr == "" && o.trace == "" {
		return nil
	}
	o.reg = telemetry.NewRegistry()
	o.tracer = telemetry.NewTracer(1 << 16)
	if o.addr == "" {
		return nil
	}
	bound, err := telemetry.Serve(o.addr, o.reg, o.tracer)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "telemetry: http://%s/metrics (pprof at /debug/pprof/)\n", bound)
	return nil
}

// finish writes the tracer's log to the -trace file, joining any error
// into *err.
func (o *observer) finish(err *error) {
	if o.trace != "" {
		*err = errors.Join(*err, writeFile(o.trace, o.tracer.WriteJSONL))
	}
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// graph is a base topology: the Figure 1 demo network, the SCIONLab
// testbed, or an Internet of n ASes generated around a tier-1 clique.
type graph struct {
	kind     string
	n, tier1 int
	seed     int64
}

// flags registers the base-graph choice as -kindFlag and the generator's
// -n, -tier1 and -seed, with g's values as defaults.
func (g *graph) flags(fs *flag.FlagSet, kindFlag string) {
	fs.StringVar(&g.kind, kindFlag, g.kind, "topology: demo | scionlab | gen")
	g.genFlags(fs)
}

// genFlags registers the generator's -n, -tier1 and -seed.
func (g *graph) genFlags(fs *flag.FlagSet) {
	fs.IntVar(&g.n, "n", g.n, "ASes of the generated topology")
	fs.IntVar(&g.tier1, "tier1", g.tier1, "tier-1 clique size of the generated topology")
	fs.Int64Var(&g.seed, "seed", g.seed, "seed for the generator and the run")
}

func (g *graph) build() (*topology.Graph, error) {
	switch g.kind {
	case "demo":
		return topology.Demo(), nil
	case "scionlab":
		return topology.SCIONLab(), nil
	case "gen":
		p := topology.DefaultGenParams()
		p.NumASes = g.n
		p.Tier1 = g.tier1
		p.Seed = g.seed
		return topology.Generate(p)
	}
	return nil, fmt.Errorf("unknown topology %q", g.kind)
}

// scalePreset maps a -scale name to its experiments preset.
func scalePreset(name string) (experiments.Scale, error) {
	switch name {
	case "smoke":
		return experiments.SmokeScale(), nil
	case "default":
		return experiments.DefaultScale(), nil
	case "paper":
		return experiments.PaperScale(), nil
	}
	return experiments.Scale{}, fmt.Errorf("unknown scale %q", name)
}

// algorithm maps an -algo name to its beaconing algorithm.
func algorithm(name string) (scion.Algorithm, error) {
	switch name {
	case "diversity":
		return scion.Diversity, nil
	case "baseline":
		return scion.Baseline, nil
	}
	return 0, fmt.Errorf("unknown algorithm %q (want baseline or diversity)", name)
}

// selector builds the -algo algorithm's beacon selectors with the given
// dissemination limit.
func selector(name string, dissem int) (core.Factory, error) {
	a, err := algorithm(name)
	if err != nil {
		return nil, err
	}
	if a == scion.Baseline {
		return core.NewBaseline(dissem), nil
	}
	return core.NewDiversity(core.DefaultParams(dissem)), nil
}
