package sim

import (
	"fmt"
	"sort"
	"sync"
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

// IfKey identifies one interface of one AS for counter lookup.
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

	handlers map[addr.IA]Handler
	counters map[IfKey]*Counter
	// lossSeq counts gray-failure decisions drawn so far and keys the next
	// one's LossCoin. Drops are decided only from serial context (inline
	// sends and the parallel commit phase run in sequence order), so the
	// count, and with it every decision, is the same for any worker count.
	lossSeq uint64
	// counterArena chunk-allocates Counter values so a 12k-AS run's
	// hundreds of thousands of interface counters cost one allocation per
	// chunk instead of one each.
	counterArena []Counter
	// delPool recycles delivery events; sync.Pool because deliveries
	// complete on parallel workers.
	delPool sync.Pool
	// sharded enables per-AS actor partitioning: each registered AS gets
	// a simulator shard, deliveries are sharded by destination, and all
	// shared-state mutations (counters, loss decisions, scheduling) are
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

// NewNetwork creates a network over topo with the given one-way link latency.
func NewNetwork(s *Simulator, topo *topology.Graph, delay time.Duration) *Network {
	return &Network{
		Sim:        s,
		Topo:       topo,
		Delay:      delay,
		LinkFaults: NewLinkFaults(topo),
		handlers:   map[addr.IA]Handler{},
		counters:   map[IfKey]*Counter{},
	}
}

// LinkDelay returns the one-way latency of a link: its override if one is
// set, else the network-wide Delay.
func (n *Network) LinkDelay(id topology.LinkID) time.Duration {
	if d := n.LinkFaults.LinkDelay(id); d > 0 {
		return d
	}
	return n.Delay
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

// Register installs the message handler for ia, replacing any previous
// one. Under sharding the AS's link degree becomes its shard weight, so
// parallel segments schedule high-degree (expensive) actors first.
func (n *Network) Register(ia addr.IA, h Handler) {
	n.handlers[ia] = h
	if n.sharded {
		if _, ok := n.shards[ia]; !ok {
			sh := n.Sim.NewShard()
			n.shards[ia] = sh
			if as := n.Topo.AS(ia); as != nil {
				n.Sim.SetShardWeight(sh, uint32(as.Degree()))
			}
		}
	}
}

// counter returns (allocating) the counter for a given interface.
func (n *Network) counter(k IfKey) *Counter {
	c := n.counters[k]
	if c == nil {
		if len(n.counterArena) == 0 {
			n.counterArena = make([]Counter, 256)
		}
		c = &n.counterArena[0]
		n.counterArena = n.counterArena[1:]
		n.counters[k] = c
	}
	return c
}

// Send transmits msg from the local side of link (owned by from) to the
// neighboring AS. TX is counted on from's interface immediately; RX on the
// remote interface at delivery time. It panics if from is not an endpoint
// of link, which would indicate a mis-wired control plane.
//
// When called from a handler executing on a parallel worker, the
// transmission (failure/loss checks, loss-decision count, counters, delivery
// scheduling) is deferred as an effect of the sending actor and replayed
// at commit in sequence order, so all observables match a sequential run.
func (n *Network) Send(from addr.IA, link *topology.Link, msg Message) {
	if link.A != from && link.B != from {
		panic(fmt.Sprintf("sim: %s sending on foreign link %s", from, link))
	}
	if n.sharded && n.Sim.inPar {
		n.Sim.deferOp(n.shards[from], op{kind: opSend, net: n, link: link, bSide: from != link.A, msg: msg})
		return
	}
	n.send(from, link, msg)
}

// delivery is one in-flight message, pooled so large runs schedule
// millions of deliveries without per-message closure allocations.
type delivery struct {
	net      *Network
	from, to addr.IA
	remoteIf addr.IfID
	link     *topology.Link
	msg      Message
	size     int32
}

// send performs the transmission; it must run in serial context.
func (n *Network) send(from addr.IA, link *topology.Link, msg Message) {
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
	size := msg.WireLen()
	tx := n.counter(IfKey{IA: from, If: link.LocalIf(from)})
	tx.TxBytes += uint64(size)
	tx.TxMsgs++
	to := link.Other(from)
	d, _ := n.delPool.Get().(*delivery)
	if d == nil {
		d = &delivery{}
	}
	*d = delivery{net: n, from: from, to: to, remoteIf: link.RemoteIf(from), link: link, msg: msg, size: int32(size)}
	n.Sim.pushDelivery(n.shards[to], n.Sim.Now()+Time(n.LinkDelay(link.ID)), d)
}

// runDelivery delivers d and returns it to the pool. The struct is done
// the moment deliver returns: handlers retain the message contents at
// most, never the delivery itself.
func (n *Network) runDelivery(d *delivery) {
	n.deliver(d.from, d.to, d.remoteIf, d.link, d.msg, int(d.size))
	*d = delivery{}
	n.delPool.Put(d)
}

// deliver runs at the destination — on a parallel worker when the
// network is sharded. The handler dispatch itself is the parallel work;
// mutations of network-shared state (RX counters, drop counts) are
// deferred to the commit phase.
func (n *Network) deliver(from, to addr.IA, remoteIf addr.IfID, link *topology.Link, msg Message, size int) {
	inPar := n.Sim.inPar
	if inPar {
		n.Sim.deferOp(n.shards[to], op{kind: opRx, net: n, link: link, bSide: from == link.A, size: int32(size)})
	} else {
		c := n.counter(IfKey{IA: to, If: remoteIf})
		c.RxBytes += uint64(size)
		c.RxMsgs++
	}
	h := n.handlers[to]
	if h == nil {
		if inPar {
			n.Sim.deferOp(n.shards[to], op{kind: opDrop, net: n})
		} else {
			n.Dropped++
		}
		return
	}
	h.HandleMessage(from, link, msg)
}

// InterfaceCounter returns a copy of the counter for one interface
// (zero-valued if the interface never saw traffic).
func (n *Network) InterfaceCounter(ia addr.IA, ifID addr.IfID) Counter {
	if c := n.counters[IfKey{IA: ia, If: ifID}]; c != nil {
		return *c
	}
	return Counter{}
}

// TotalTx sums transmitted bytes over all interfaces of ia.
func (n *Network) TotalTx(ia addr.IA) uint64 {
	var sum uint64
	for k, c := range n.counters {
		if k.IA == ia {
			sum += c.TxBytes
		}
	}
	return sum
}

// TotalRx sums received bytes over all interfaces of ia.
func (n *Network) TotalRx(ia addr.IA) uint64 {
	var sum uint64
	for k, c := range n.counters {
		if k.IA == ia {
			sum += c.RxBytes
		}
	}
	return sum
}

// GrandTotalTx sums transmitted bytes over the whole network.
func (n *Network) GrandTotalTx() uint64 {
	var sum uint64
	for _, c := range n.counters {
		sum += c.TxBytes
	}
	return sum
}

// Interfaces returns all interface keys that saw traffic, sorted.
func (n *Network) Interfaces() []IfKey {
	out := make([]IfKey, 0, len(n.counters))
	for k := range n.counters {
		out = append(out, k)
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
		out[i] = n.counters[k].TxBytes
	}
	return out
}

// SetTelemetry registers the network's aggregate traffic observables.
// All are deterministic: counters and drop counts mutate only in serial
// or commit-ordered context, and gauge funcs are evaluated at export
// time from serial context.
func (n *Network) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.GaugeFunc("net_tx_bytes_total", func() float64 { return float64(n.GrandTotalTx()) })
	reg.GaugeFunc("net_interfaces_active", func() float64 { return float64(len(n.counters)) })
	reg.GaugeFunc(`net_dropped_total{cause="no_handler"}`, func() float64 { return float64(n.Dropped) })
	reg.GaugeFunc(`net_dropped_total{cause="failed_link"}`, func() float64 { return float64(n.DroppedOnFailedLinks) })
	reg.GaugeFunc(`net_dropped_total{cause="loss"}`, func() float64 { return float64(n.DroppedByLoss) })
}

// ResetCounters clears all traffic counters (e.g. after a warm-up phase),
// including every drop counter, so measurement windows start from zero.
func (n *Network) ResetCounters() {
	n.counters = map[IfKey]*Counter{}
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
		Counters:             make(map[IfKey]Counter, len(n.counters)),
		LossSeq:              n.lossSeq,
		Dropped:              n.Dropped,
		DroppedOnFailedLinks: n.DroppedOnFailedLinks,
		DroppedByLoss:        n.DroppedByLoss,
	}
	for k, c := range n.counters {
		st.Counters[k] = *c
	}
	return st
}

// RestoreState applies a checkpointed NetworkState to a freshly built
// Network over the same topology. Call before the resumed run starts.
func (n *Network) RestoreState(st NetworkState) {
	for k, c := range st.Counters {
		*n.counter(k) = c
	}
	n.lossSeq = st.LossSeq
	n.Dropped = st.Dropped
	n.DroppedOnFailedLinks = st.DroppedOnFailedLinks
	n.DroppedByLoss = st.DroppedByLoss
}
