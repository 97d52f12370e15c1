package scion

import (
	"io"

	"scionmpr/internal/addr"
	"scionmpr/internal/dataplane"
	"scionmpr/internal/topology"
)

// Re-exported types: the public API is self-contained — downstream users
// build topologies and address hosts through these aliases without
// importing internal packages.

// IA is the <ISD, AS> tuple identifying an AS (alias of the internal
// addressing type).
type IA = addr.IA

// ISD is an isolation domain identifier.
type ISD = addr.ISD

// AS is a 48-bit SCION AS number.
type AS = addr.AS

// HostAddr is the <ISD, AS, local address> host 3-tuple.
type HostAddr = addr.Host

// Topology is the AS-level graph networks are built on.
type Topology = topology.Graph

// Link is one inter-domain link of a topology.
type Link = topology.Link

// Relationship constants for topology construction.
const (
	Core       = topology.Core
	ProviderOf = topology.ProviderOf
	PeerOf     = topology.PeerOf
)

// MustIA builds an IA, panicking on an invalid AS number.
func MustIA(isd ISD, as AS) IA { return addr.MustIA(isd, as) }

// ParseIA parses "isd-as" notation.
func ParseIA(s string) (IA, error) { return addr.ParseIA(s) }

// HostIP4 builds an IPv4-addressed host in ia.
func HostIP4(ia IA, a, b, c, d byte) HostAddr { return addr.HostIP4(ia, a, b, c, d) }

// NewTopology returns an empty topology to build on.
func NewTopology() *Topology { return topology.New() }

// DemoTopology returns the paper's Figure 1 network (3 ISDs, 7 cores).
func DemoTopology() *Topology { return topology.Demo() }

// GenerateTopology synthesizes an Internet-like topology with n ASes and
// the given tier-1 clique size, deterministically from seed.
func GenerateTopology(n, tier1 int, seed int64) (*Topology, error) {
	p := topology.DefaultGenParams()
	p.NumASes = n
	p.Tier1 = tier1
	p.Seed = seed
	return topology.Generate(p)
}

// GenerateISDTopology synthesizes an Internet-like topology and carves the
// ISD hierarchy traffic simulations bootstrap on: the cores ASes with the
// largest customer cones become the ISD core, and the graph is restricted
// to the core plus its customer hierarchy (paper §5.1's intra-ISD
// construction). The result is ready for NewNetwork.
func GenerateISDTopology(n, tier1, cores int, seed int64) (*Topology, error) {
	g, err := GenerateTopology(n, tier1, seed)
	if err != nil {
		return nil, err
	}
	return topology.BuildISD(g, cores)
}

// LoadTopology parses the CAIDA serial-2 AS-relationship format.
func LoadTopology(r io.Reader) (*Topology, error) { return topology.ParseCAIDA(r, 1) }

// FwdPath is an authorized forwarding path (alias of the data-plane type);
// applications select among them for application-based path control.
type FwdPath = dataplane.FwdPath
