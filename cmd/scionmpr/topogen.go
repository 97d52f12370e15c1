package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"scionmpr/internal/topology"
)

// topogen generates and inspects the AS-level topologies the simulations
// run on: synthetic Internet graphs matching the CAIDA AS-rel-geo
// statistics, extracted core networks, large intra-ISD hierarchies, the
// SCIONLab testbed core, and the Figure 1 demo network.
//
//	scionmpr topogen -kind gen -n 12000 -tier1 15 -seed 1 -o topo.txt
//	scionmpr topogen -kind gen -n 12000 -core 2000 -isds 200 -stats
//	scionmpr topogen -kind scionlab -stats
//	scionmpr topogen -parse as-rel.txt -stats
func topogen(fs *flag.FlagSet) func(io.Writer) error {
	g := graph{kind: "gen", n: 12000, tier1: 15, seed: 1}
	g.flags(fs, "kind")
	var (
		coreN = fs.Int("core", 0, "extract the N highest-degree ASes as a core network")
		isds  = fs.Int("isds", 0, "assign the extracted core to this many ISDs")
		isd   = fs.Int("isd", 0, "build an intra-ISD topology with this many core ASes")
		parse = fs.String("parse", "", "parse a CAIDA serial-2 file instead of generating")
		out   = fs.String("o", "", "write the topology in CAIDA serial-2 format to this file")
		stats = fs.Bool("stats", true, "print topology statistics")
	)
	return func(w io.Writer) error {
		topo, err := topogenBase(g, *parse)
		if err != nil {
			return err
		}
		if *stats {
			fmt.Fprintln(w, "full topology:", topo.ComputeStats())
		}
		if *coreN > 0 {
			if topo, err = topology.ExtractCore(topo, *coreN); err != nil {
				return err
			}
			if *isds > 0 {
				if topo, _, err = topology.AssignISDs(topo, *isds); err != nil {
					return err
				}
			}
			if *stats {
				fmt.Fprintln(w, "core network:  ", topo.ComputeStats())
			}
		}
		if *isd > 0 {
			if topo, err = topology.BuildISD(topo, *isd); err != nil {
				return err
			}
			if *stats {
				fmt.Fprintln(w, "intra-ISD:     ", topo.ComputeStats())
			}
		}
		if *out == "" {
			return nil
		}
		if err := writeFile(*out, func(f io.Writer) error { return topology.WriteCAIDA(f, topo) }); err != nil {
			return err
		}
		fmt.Fprintln(w, "wrote", *out)
		return nil
	}
}

// topogenBase parses the -parse file, or builds the base graph.
func topogenBase(g graph, parse string) (*topology.Graph, error) {
	if parse == "" {
		return g.build()
	}
	f, err := os.Open(parse)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return topology.ParseCAIDA(f, 1)
}
