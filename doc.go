// Package scionmpr is a from-scratch Go reproduction of "Deployment and
// Scalability of an Inter-Domain Multi-Path Routing Infrastructure"
// (CoNEXT 2021): the SCION control plane (beaconing, path servers, PKI),
// data plane (packet-carried forwarding state, SCMP, SIG), the paper's
// path-diversity-based path construction algorithm, and the BGP/BGPsec
// baselines, together with the simulators and experiment drivers that
// regenerate every table and figure of the paper's evaluation.
//
// See README.md for the layout, DESIGN.md for the system inventory and
// per-experiment index, and EXPERIMENTS.md for reproduction results.
// `go run ./cmd/scionmpr experiments` regenerates each experiment's
// numbers, benchmark/ holds the performance ledger, and the runnable entry
// points are the subcommands of cmd/scionmpr and the programs under
// examples/.
package scionmpr
