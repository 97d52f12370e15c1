package dataplane

import (
	"sync"

	"scionmpr/internal/slayers"
)

// frame is one pooled packet buffer moving through the engine's per-AS
// queues or, under a Fabric, between routers as clock events. b holds
// the full wire bytes of a packet (data or SCMP); arrived distinguishes
// a frame handed over by a neighbor router (the ingress pipeline
// advances CurrHF) from a freshly injected one (the source router
// forwards hop 0 without advancing). pkt is the *Packet the frame was
// encoded from, handed back to delivery and SCMP handlers (nil for
// InjectBytes). path (data) and walk (SCMP) are the frame's geometry,
// zero until the encoder or a strict decode fills them. Under a Fabric,
// land is the pooled frame's own arrival event: at AS to, ifc slot rx.
type frame struct {
	b       []byte
	arrived bool
	pkt     *Packet
	path    slayers.RawPath
	walk    slayers.RawWalk
	land    func()
	to, rx  int32
}

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
	*f = frame{b: f.b[:0], land: f.land}
	fp.p.Put(f)
}
