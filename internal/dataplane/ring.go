package dataplane

import (
	"sync"
	"sync/atomic"
)

// frame is one pooled packet buffer moving through the engine's rings
// or, under a Fabric, over simulated links. b holds the full wire bytes
// of a packet (data or SCMP); arrived distinguishes a frame handed over
// by a neighbor router (the ingress pipeline advances CurrHF) from a
// freshly injected one (the source router forwards hop 0 without
// advancing). pkt is the *Packet the frame was encoded from, handed back
// to delivery and SCMP handlers (nil for InjectBytes).
type frame struct {
	b       []byte
	arrived bool
	pkt     *Packet
}

// WireLen implements sim.Message: a frame occupies its bytes on a link.
func (f *frame) WireLen() int { return len(f.b) }

// framePool recycles packet buffers so the steady-state forwarding path
// allocates nothing. Buffers start at 2 KiB (any full-size MTU packet)
// and grow in place for jumbo payloads; grown buffers return to the
// pool at their grown capacity.
type framePool struct{ p sync.Pool }

func newFramePool() *framePool {
	fp := &framePool{}
	fp.p.New = func() any { return &frame{b: make([]byte, 0, 2048)} }
	return fp
}

// get returns a frame with len(b) == n.
func (fp *framePool) get(n int) *frame {
	f := fp.p.Get().(*frame)
	if cap(f.b) < n {
		f.b = make([]byte, n)
	} else {
		f.b = f.b[:n]
	}
	return f
}

func (fp *framePool) put(f *frame) {
	f.b = f.b[:0]
	f.arrived = false
	f.pkt = nil
	fp.p.Put(f)
}

// ring is a bounded lock-free multi-producer queue with a single
// consumer (the worker that owns the destination AS), in the style of
// Vyukov's bounded MPMC queue: each cell carries a sequence number that
// encodes whether it is free for the producer of a given ticket or
// ready for the consumer, so producers coordinate through one CAS on
// the enqueue cursor and never take a lock. When a burst overflows the
// ring capacity, producers spill to a small mutex-guarded overflow list
// rather than blocking — egress must never stall on a slow neighbor —
// and the consumer drains the spill after the ring. Packets may reorder
// across the spill boundary; forwarding outcomes are order-independent
// (hop field verification and the hash-based loss decisions are pure
// per-packet functions).
type ring struct {
	mask  uint64
	cells []ringCell

	_    [7]uint64 // keep the cursors off the cells' cache lines
	enq  atomic.Uint64
	_    [7]uint64
	deq  uint64 // owned by the single consumer
	_    [7]uint64
	ovMu sync.Mutex
	ov   []*frame
	ovN  atomic.Int64
}

type ringCell struct {
	seq atomic.Uint64
	f   *frame
}

// newRing builds a ring with the given power-of-two capacity.
func newRing(capacity int) *ring {
	if capacity&(capacity-1) != 0 || capacity == 0 {
		panic("dataplane: ring capacity must be a power of two")
	}
	r := &ring{mask: uint64(capacity - 1), cells: make([]ringCell, capacity)}
	for i := range r.cells {
		r.cells[i].seq.Store(uint64(i))
	}
	return r
}

// push enqueues f; it never blocks and never fails (full rings spill).
func (r *ring) push(f *frame) {
	pos := r.enq.Load()
	for {
		c := &r.cells[pos&r.mask]
		seq := c.seq.Load()
		switch d := int64(seq) - int64(pos); {
		case d == 0:
			if r.enq.CompareAndSwap(pos, pos+1) {
				c.f = f
				c.seq.Store(pos + 1)
				return
			}
			pos = r.enq.Load()
		case d < 0: // full
			r.ovMu.Lock()
			r.ov = append(r.ov, f)
			r.ovMu.Unlock()
			r.ovN.Add(1)
			return
		default: // another producer claimed pos; retry at the tip
			pos = r.enq.Load()
		}
	}
}

// pop dequeues one frame, or nil when the ring is empty. Single
// consumer only.
func (r *ring) pop() *frame {
	c := &r.cells[r.deq&r.mask]
	seq := c.seq.Load()
	if int64(seq)-int64(r.deq+1) == 0 {
		f := c.f
		c.f = nil
		c.seq.Store(r.deq + r.mask + 1)
		r.deq++
		return f
	}
	if r.ovN.Load() > 0 {
		r.ovMu.Lock()
		var f *frame
		if n := len(r.ov); n > 0 {
			f = r.ov[n-1]
			r.ov[n-1] = nil
			r.ov = r.ov[:n-1]
			r.ovN.Add(-1)
		}
		r.ovMu.Unlock()
		return f
	}
	return nil
}
