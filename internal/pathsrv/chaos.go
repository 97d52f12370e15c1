package pathsrv

import (
	"scionmpr/internal/chaos"
	"scionmpr/internal/seg"
	"scionmpr/internal/sim"
	"scionmpr/internal/topology"
)

// WireChaos feeds the fault plane into the serving layer: when the
// chaos engine fails a link, both of its directed interfaces are
// revoked in the service (hiding every served path across the link
// within one publication), and when the link heals they are reinstated.
// Existing engine hooks (e.g. beacon-server revocation feeds) are
// chained, not replaced. ttl <= 0 uses the service's default revocation
// TTL — the backstop in case the restore event is lost.
func WireChaos(clock *sim.Simulator, eng *chaos.Engine, topo *topology.Graph, svc *Service, ttl sim.Time) {
	hook := func(prev func(topology.LinkID), apply func(sim.Time, seg.LinkKey)) func(topology.LinkID) {
		return func(id topology.LinkID) {
			if prev != nil {
				prev(id)
			}
			if l := topo.LinkByID(id); l != nil {
				now := clock.Now()
				apply(now, seg.LinkKey{IA: l.A, If: l.AIf})
				apply(now, seg.LinkKey{IA: l.B, If: l.BIf})
			}
		}
	}
	eng.OnFail = hook(eng.OnFail, func(now sim.Time, lk seg.LinkKey) { svc.RevokeLink(now, lk, ttl) })
	eng.OnRestore = hook(eng.OnRestore, func(now sim.Time, lk seg.LinkKey) { svc.ReinstateLink(now, lk) })
}
