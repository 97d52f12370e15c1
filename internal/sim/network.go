package sim

import (
	"fmt"
	"sort"
	"time"

	"scionmpr/internal/addr"
	"scionmpr/internal/telemetry"
	"scionmpr/internal/topology"
)

// Message is anything transported between ASes in the simulation. WireLen
// is the size in bytes counted against the link — overhead accounting is
// the paper's core observable, so every control-plane message type
// implements an exact wire size.
type Message interface {
	WireLen() int
}

// Handler processes messages delivered to an AS. link is the inter-domain
// link the message arrived on and from is the sending neighbor.
type Handler interface {
	HandleMessage(from addr.IA, link *topology.Link, msg Message)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(from addr.IA, link *topology.Link, msg Message)

// HandleMessage implements Handler.
func (f HandlerFunc) HandleMessage(from addr.IA, link *topology.Link, msg Message) {
	f(from, link, msg)
}

// IfKey identifies one interface of one AS.
type IfKey struct {
	IA addr.IA
	If addr.IfID
}

// Counter accumulates traffic on one interface direction-separated.
type Counter struct {
	TxBytes, TxMsgs uint64
	RxBytes, RxMsgs uint64
}

// Network binds a Simulator to a topology and transports Messages across
// links with a fixed latency, recording per-interface counters.
type Network struct {
	Sim   *Simulator
	Topo  *topology.Graph
	Delay time.Duration

	// Link fault state (FailLink, RestoreLink, Failed, SetLinkLoss,
	// LinkLoss, SetLinkDelay). A gray-failed link is up but silently
	// sheds a fraction of messages; a link without a delay override uses
	// the network-wide Delay.
	LinkFaults

	// ifs and ctr hold each link side's owner and traffic, side A at
	// 2*LinkID and B after it. TX is counted in serial context; RX on
	// the receiving AS's shard.
	ifs []ifSide
	ctr []Counter
	// lossSeq counts gray-failure decisions drawn so far and keys the next
	// one's LossCoin. Drops are decided only from serial context (inline
	// sends and the parallel commit phase run in queue order), so the
	// count, and with it every decision, is the same for any worker count.
	lossSeq uint64
	// free recycles deliveries. It is touched only in serial context: a
	// delivery run on a parallel worker is released at commit.
	free []*delivery
	// sharded enables per-AS actor partitioning: each registered AS gets
	// a simulator shard, deliveries are sharded by destination, and all
	// shared-state mutations (TX counters, loss decisions, scheduling) are
	// deferred to the deterministic commit phase when executing in
	// parallel.
	sharded bool
	shards  map[addr.IA]uint32
	// Dropped counts messages to ASes with no registered handler.
	Dropped uint64
	// DroppedOnFailedLinks counts messages lost to failed links.
	DroppedOnFailedLinks uint64
	// DroppedByLoss counts messages shed by gray failures.
	DroppedByLoss uint64
}

// ifSide is one interface's owner: the AS's shard and handler.
type ifSide struct {
	shard uint32
	h     Handler
}

// NewNetwork creates a network over topo with the given one-way link
// latency. Its traffic counters cover topo's links as they are now.
func NewNetwork(s *Simulator, topo *topology.Graph, delay time.Duration) *Network {
	lf := NewLinkFaults(topo)
	return &Network{
		Sim:        s,
		Topo:       topo,
		Delay:      delay,
		LinkFaults: *lf,
		ifs:        make([]ifSide, 2*len(lf.links)),
		ctr:        make([]Counter, 2*len(lf.links)),
	}
}

// side returns the table index of ia's end of link.
func side(link *topology.Link, ia addr.IA) int {
	i := 2 * int(link.ID)
	if ia != link.A {
		i++
	}
	return i
}

// ifKey names table entry i.
func (n *Network) ifKey(i int) IfKey {
	l := n.Topo.LinkByID(topology.LinkID(i / 2))
	if i%2 == 0 {
		return IfKey{IA: l.A, If: l.AIf}
	}
	return IfKey{IA: l.B, If: l.BIf}
}

// EnableSharding turns on per-AS actor partitioning for this network:
// every subsequently registered AS is assigned its own simulator shard,
// so same-timestamp deliveries to distinct ASes may execute on parallel
// workers (see the package comment for the determinism contract).
// Call it before Register. Networks that never enable sharding keep all
// events on the serial shard and are untouched by parallel execution.
func (n *Network) EnableSharding() {
	n.sharded = true
	if n.shards == nil {
		n.shards = map[addr.IA]uint32{}
	}
}

// Shard returns the simulator shard owned by ia (SerialShard when
// sharding is off or ia is unregistered). Use it with EveryShard to run
// an AS's periodic work on its own actor.
func (n *Network) Shard(ia addr.IA) uint32 { return n.shards[ia] }

// Register installs the message handler for ia, an AS of the topology,
// replacing any previous one. Under sharding the AS's link degree becomes
// its shard weight, so parallel segments schedule high-degree
// (expensive) actors first.
func (n *Network) Register(ia addr.IA, h Handler) {
	as := n.Topo.AS(ia)
	if as == nil {
		return
	}
	if _, ok := n.shards[ia]; n.sharded && !ok {
		n.shards[ia] = n.Sim.NewShard()
		n.Sim.SetShardWeight(n.shards[ia], uint32(as.Degree()))
	}
	for _, l := range as.Links {
		n.ifs[side(l, ia)] = ifSide{shard: n.shards[ia], h: h}
	}
}

// Send transmits msg from the local side of link (owned by from) to the
// neighboring AS. TX is counted on from's interface immediately; RX on the
// remote interface at delivery time. It panics if from is not an endpoint
// of link, which would indicate a mis-wired control plane.
//
// When called from a handler executing on a parallel worker, the
// transmission (failure/loss checks, loss-decision count, counters, delivery
// scheduling) is deferred as an effect of the sending actor and replayed
// at commit in queue order, so all observables match a sequential run.
func (n *Network) Send(from addr.IA, link *topology.Link, msg Message) {
	if link.A != from && link.B != from {
		panic(fmt.Sprintf("sim: %s sending on foreign link %s", from, link))
	}
	size := int32(msg.WireLen())
	if n.sharded && n.Sim.inPar {
		n.Sim.deferOp(n.ifs[side(link, from)].shard, op{kind: opSend, net: n, link: link, bSide: from != link.A, msg: msg, size: size})
		return
	}
	n.send(from, link, msg, size)
}

// delivery is one in-flight message, recycled so large runs schedule
// millions of deliveries without per-message closure allocations.
type delivery struct {
	net  *Network
	from addr.IA
	link *topology.Link
	msg  Message
	size int32
}

// send performs the transmission of msg, size bytes on the wire; it must
// run in serial context.
func (n *Network) send(from addr.IA, link *topology.Link, msg Message, size int32) {
	if n.Failed(link.ID) {
		n.DroppedOnFailedLinks++
		return
	}
	if rate := n.LinkLoss(link.ID); rate > 0 {
		n.lossSeq++
		if LossCoin(n.lossSeq, link.ID, rate) {
			n.DroppedByLoss++
			return
		}
	}
	tx := &n.ctr[side(link, from)]
	tx.TxBytes += uint64(size)
	tx.TxMsgs++
	var d *delivery
	if k := len(n.free); k > 0 {
		d, n.free = n.free[k-1], n.free[:k-1]
	} else {
		d = new(delivery)
	}
	*d = delivery{net: n, from: from, link: link, msg: msg, size: size}
	n.Sim.push(event{at: n.Sim.Now() + Time(n.DelayOr(link.ID, n.Delay)), shard: n.ifs[side(link, link.Other(from))].shard, del: d})
}

// deliver runs d at the destination — on a parallel worker when the
// network is sharded. The handler dispatch is the parallel work. RX is
// counted here, on the receiving AS's shard; a drop for want of a
// handler is network-wide state and deferred to the commit phase, which
// also releases the delivery (handlers retain the message at most).
func (n *Network) deliver(d *delivery) {
	i := side(d.link, d.link.Other(d.from))
	n.ctr[i].RxBytes += uint64(d.size)
	n.ctr[i].RxMsgs++
	switch in := n.ifs[i]; {
	case in.h != nil:
		in.h.HandleMessage(d.from, d.link, d.msg)
	case n.Sim.inPar:
		n.Sim.deferOp(in.shard, op{kind: opDrop, net: n})
	default:
		n.Dropped++
	}
	if !n.Sim.inPar {
		n.release(d)
	}
}

// release returns a delivery that has run to the free list.
func (n *Network) release(d *delivery) {
	*d = delivery{}
	n.free = append(n.free, d)
}

// InterfaceCounter returns a copy of the counter for one interface
// (zero-valued if the interface never saw traffic).
func (n *Network) InterfaceCounter(ia addr.IA, ifID addr.IfID) Counter {
	if i := n.sideOf(IfKey{IA: ia, If: ifID}); i >= 0 {
		return n.ctr[i]
	}
	return Counter{}
}

// sideOf returns the table index of an interface, -1 for one the
// topology does not have.
func (n *Network) sideOf(k IfKey) int {
	if l := n.Topo.LinkByIf(k.IA, k.If); l != nil && 2*int(l.ID) < len(n.ifs) {
		return side(l, k.IA)
	}
	return -1
}

// TotalTx sums transmitted bytes over all interfaces of ia.
func (n *Network) TotalTx(ia addr.IA) uint64 { return n.total(ia).TxBytes }

// TotalRx sums received bytes over all interfaces of ia.
func (n *Network) TotalRx(ia addr.IA) uint64 { return n.total(ia).RxBytes }

// total sums the byte counts of ia's interfaces.
func (n *Network) total(ia addr.IA) (sum Counter) {
	if as := n.Topo.AS(ia); as != nil {
		for _, l := range as.Links {
			c := n.ctr[side(l, ia)]
			sum.TxBytes += c.TxBytes
			sum.RxBytes += c.RxBytes
		}
	}
	return sum
}

// GrandTotalTx sums transmitted bytes over the whole network.
func (n *Network) GrandTotalTx() uint64 { return sumTx(n.ctr) }

// sumTx sums the transmitted bytes of per-interface counters.
func sumTx(cs []Counter) (sum uint64) {
	for i := range cs {
		sum += cs[i].TxBytes
	}
	return sum
}

// Interfaces returns all interface keys that saw traffic, sorted.
func (n *Network) Interfaces() []IfKey {
	var out []IfKey
	for i := range n.ctr {
		if n.ctr[i].TxMsgs|n.ctr[i].RxMsgs != 0 {
			out = append(out, n.ifKey(i))
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].IA != out[j].IA {
			return out[i].IA.Less(out[j].IA)
		}
		return out[i].If < out[j].If
	})
	return out
}

// PerInterfaceTxBytes returns the TX byte count per traffic-bearing
// interface, in Interfaces() order. This is the Figure 9 observable.
func (n *Network) PerInterfaceTxBytes() []uint64 {
	keys := n.Interfaces()
	out := make([]uint64, len(keys))
	for i, k := range keys {
		out[i] = n.ctr[n.sideOf(k)].TxBytes
	}
	return out
}

// SetTelemetry registers the network's aggregate traffic observables.
// All are deterministic: counters and drop counts are final at the end
// of every segment, and gauge funcs are evaluated at export time from
// serial context.
func (n *Network) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	RegisterCounters(reg, n.ctr)
	reg.GaugeFunc(`net_dropped_total{cause="no_handler"}`, func() float64 { return float64(n.Dropped) })
	reg.GaugeFunc(`net_dropped_total{cause="failed_link"}`, func() float64 { return float64(n.DroppedOnFailedLinks) })
	reg.GaugeFunc(`net_dropped_total{cause="loss"}`, func() float64 { return float64(n.DroppedByLoss) })
}

// RegisterCounters registers per-interface counters cs as one plane's
// share of net_tx_bytes_total and net_interfaces_active (they add up).
func RegisterCounters(reg *telemetry.Registry, cs []Counter) {
	reg.GaugeFunc("net_tx_bytes_total", func() float64 { return float64(sumTx(cs)) })
	reg.GaugeFunc("net_interfaces_active", func() float64 {
		n := 0
		for _, c := range cs {
			if c.TxMsgs|c.RxMsgs != 0 {
				n++
			}
		}
		return float64(n)
	})
}

// ResetCounters clears all traffic counters (e.g. after a warm-up phase),
// including every drop counter, so measurement windows start from zero.
func (n *Network) ResetCounters() {
	clear(n.ctr)
	n.Dropped = 0
	n.DroppedOnFailedLinks = 0
	n.DroppedByLoss = 0
}

// NetworkState is the shared network state a checkpoint must carry:
// per-interface traffic counters, the count of gray-loss decisions drawn
// (which keys every later one), and the drop counts. Link faults are not
// part of it: whoever injected them re-installs them on restore.
type NetworkState struct {
	Counters map[IfKey]Counter
	LossSeq  uint64

	Dropped              uint64
	DroppedOnFailedLinks uint64
	DroppedByLoss        uint64
}

// CheckpointState captures the network's shared state. Call from serial
// context (e.g. a BeforeStep hook).
func (n *Network) CheckpointState() NetworkState {
	st := NetworkState{
		Counters:             map[IfKey]Counter{},
		LossSeq:              n.lossSeq,
		Dropped:              n.Dropped,
		DroppedOnFailedLinks: n.DroppedOnFailedLinks,
		DroppedByLoss:        n.DroppedByLoss,
	}
	for i, c := range n.ctr {
		if c.TxMsgs|c.RxMsgs != 0 {
			st.Counters[n.ifKey(i)] = c
		}
	}
	return st
}

// RestoreState applies a checkpointed NetworkState to a freshly built
// Network over the same topology. Call before the resumed run starts.
// Counters of interfaces the topology does not have are ignored.
func (n *Network) RestoreState(st NetworkState) {
	for k, c := range st.Counters {
		if i := n.sideOf(k); i >= 0 {
			n.ctr[i] = c
		}
	}
	n.lossSeq = st.LossSeq
	n.Dropped = st.Dropped
	n.DroppedOnFailedLinks = st.DroppedOnFailedLinks
	n.DroppedByLoss = st.DroppedByLoss
}
