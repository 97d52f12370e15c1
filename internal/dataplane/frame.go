package dataplane

import (
	"slices"

	"scionmpr/internal/slayers"
)

// frame is one packet buffer moving through the engine's per-AS
// queues or, under a Fabric, between routers as clock events. b holds
// the full wire bytes of a packet (data or SCMP); arrived distinguishes
// a frame handed over by a neighbor router (the ingress pipeline
// advances CurrHF) from a freshly injected one (the source router
// forwards hop 0 without advancing). pkt is the *Packet the frame was
// encoded from, handed back to delivery and SCMP handlers (nil for
// InjectBytes). path (data) and walk (SCMP) are the frame's geometry,
// zero until the encoder or a strict decode fills them. Under a Fabric,
// land is the recycled frame's own arrival event: at AS to, ifc slot rx.
type frame struct {
	b       []byte
	arrived bool
	pkt     *Packet
	path    slayers.RawPath
	walk    slayers.RawWalk
	land    func()
	to, rx  int32
}

// framePool is an engine's LIFO free list of packet buffers, so the
// steady-state forwarding path allocates nothing. The engine forwards on
// one goroutine at a time, so the list needs no lock. Buffers start at
// 2 KiB (any full-size MTU packet) and grow in place for jumbo
// payloads; grown buffers return to the list at their grown capacity.
type framePool struct{ free []*frame }

// get returns a frame with len(b) == n.
func (fp *framePool) get(n int) *frame {
	if len(fp.free) == 0 {
		fp.free = append(fp.free, &frame{b: make([]byte, 0, 2048)})
	}
	f := fp.free[len(fp.free)-1]
	fp.free = fp.free[:len(fp.free)-1]
	f.b = slices.Grow(f.b, n)[:n]
	return f
}

// put resets f, keeping its buffer and arrival event, and frees it.
func (fp *framePool) put(f *frame) {
	*f = frame{b: f.b[:0], land: f.land}
	fp.free = append(fp.free, f)
}
