package pathsrv

// Anti-entropy: replicas in a fleet publish independently, so a replica
// that was crashed (or restarted from a stale WAL tail) diverges from
// its peers. A periodic sweep reconverges the fleet without replaying
// history: followers compare digests with a leader and pull only the
// divergent shards.
//
// The protocol is pull-based and deterministic:
//
//  1. Leader election is a pure function of serial state: the up
//     replica with the highest publication epoch, lowest ID winning
//     ties. (The epoch counts publications survived, so a freshly
//     recovered replica — which missed publishes while dark — never
//     outranks a replica that saw them all.)
//  2. Every other up replica compares its RevocationDigest and each
//     shard's ShardDigest against the leader's and pulls exactly the
//     divergent pieces: the revocation set wholesale, and per divergent
//     shard the leader's published snapshot (shared by pointer —
//     snapshots are immutable) plus a deep copy of the leader's master
//     lists (slices copied; *seg.PCB values are immutable and shared).
//  3. A follower that pulled anything adopts the leader's epoch counter
//     and link shard masks, then checkpoints its WAL — so a crash right
//     after a sync recovers to the synced state, not the pre-sync one.
//
// One round after the last crash recovery, every up replica's Digest
// equals the leader's (bounded staleness: one sweep period), which is
// the invariant TestKillRecoverTwinDigest and TestAntiEntropyBoundedStaleness
// assert.

import (
	"maps"

	"scionmpr/internal/seg"
	"scionmpr/internal/sim"
	"scionmpr/internal/telemetry"
)

// SyncStats describes one anti-entropy round.
type SyncStats struct {
	// Leader is the elected replica's ID, -1 when no replica is up.
	Leader int
	// Pulls counts followers that pulled anything; PulledShards the
	// total shards transferred; PulledRevocations the followers that
	// copied the revocation set.
	Pulls, PulledShards, PulledRevocations int
}

// Sync runs one anti-entropy round over the fleet. Serial context only.
func (f *Fleet) Sync(now sim.Time) SyncStats {
	st := SyncStats{Leader: -1}
	leader := f.electLeader()
	if leader == nil {
		return st
	}
	st.Leader = leader.ID
	f.Rounds++
	f.cRounds.Inc()
	for _, r := range f.reps {
		if r == leader || r.down {
			continue
		}
		shards, revs := r.pullFrom(leader)
		if shards == 0 && !revs {
			continue
		}
		st.Pulls++
		st.PulledShards += shards
		if revs {
			st.PulledRevocations++
		}
		f.Pulls++
		f.PulledShards += uint64(shards)
		f.cPulls.Inc()
		f.cPullShards.Add(uint64(shards))
		f.trace(telemetry.AntiEntropyPull, uint64(r.ID), uint64(leader.ID), uint64(shards))
		// Make the synced state durable: a crash between this round and
		// the next must not resurrect the divergence.
		r.checkpoint(now)
	}
	return st
}

// electLeader picks the up replica with the highest publication epoch,
// lowest ID breaking ties; nil when the whole fleet is down.
func (f *Fleet) electLeader() *Replica {
	var best *Replica
	for _, r := range f.reps {
		if r.down {
			continue
		}
		if best == nil || r.svc.epoch > best.svc.epoch {
			best = r
		}
	}
	return best
}

// pullFrom copies every divergent piece of state from leader into r's
// service, returning how many shards were pulled and whether the
// revocation set was.
func (r *Replica) pullFrom(leader *Replica) (shards int, revocations bool) {
	src, dst := leader.svc, r.svc
	if src.RevocationDigest() != dst.RevocationDigest() {
		dst.revoked = maps.Clone(src.revoked)
		revocations = true
	}
	for sh := uint32(0); sh < src.nshards; sh++ {
		if src.ShardDigest(sh) == dst.ShardDigest(sh) {
			continue
		}
		// Published state: snapshots are immutable, share the pointer.
		dst.snaps[sh].Store(src.snaps[sh].Load())
		// Writer state: master lists are mutated in place by future
		// upserts and prunes, so copy the slices (segments themselves are
		// immutable and shared).
		master := make(map[pairKey]*pairMaster, len(src.master[sh]))
		for key, pm := range src.master[sh] {
			master[key] = &pairMaster{key: key, segs: append([]*seg.PCB(nil), pm.segs...)}
		}
		dst.master[sh] = master
		dst.dirty = dst.dirty&^(1<<sh) | src.dirty&(1<<sh)
		shards++
	}
	if shards == 0 && !revocations {
		return 0, false
	}
	// Adopt the leader's epoch counter and link shard masks so future
	// publications assign identical epochs and republish the same shards
	// on both — without this, a recovered replica would re-diverge on the
	// very next publish even with identical content. The segment index is
	// rebuilt from the master lists and revocations now held, and as what
	// was pulled was not derived here, every shard is next rebuilt whole.
	dst.epoch = src.epoch
	for _, e := range dst.linkShards {
		e.shards = 0
	}
	for lk, e := range src.linkShards {
		dst.link(lk).shards = e.shards
	}
	dst.reindex()
	clear(dst.masterMin)
	return shards, revocations
}
