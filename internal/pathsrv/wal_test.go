package pathsrv

import (
	"encoding/binary"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"scionmpr/internal/addr"
	"scionmpr/internal/seg"
	"scionmpr/internal/sim"
	"scionmpr/internal/wire"
)

// walScenario journals a mutation sequence into both a live service and
// a WAL, exactly as a Replica would: every mutation is appended before
// it is applied.
type walScenario struct {
	svc *Service
	wal *WAL
}

func newWALScenario(cfg Config) *walScenario {
	return &walScenario{svc: New(cfg), wal: NewWAL()}
}

func (s *walScenario) register(now sim.Time, p *seg.PCB) {
	s.wal.AppendRegister(now, p)
	_ = s.svc.Register(now, p)
}

func (s *walScenario) revoke(now sim.Time, link seg.LinkKey, ttl sim.Time) {
	s.wal.AppendRevoke(now, link, ttl)
	s.svc.RevokeLink(now, link, ttl)
}

func (s *walScenario) reinstate(now sim.Time, link seg.LinkKey) {
	s.wal.AppendReinstate(now, link)
	s.svc.ReinstateLink(now, link)
}

func (s *walScenario) publish(now sim.Time) {
	s.wal.AppendPublish(now)
	s.svc.Publish(now)
}

func TestWALRecoverEmpty(t *testing.T) {
	svc, st := Recover(nil, Config{Shards: 4})
	if svc == nil {
		t.Fatal("nil service from empty WAL")
	}
	if st.Records != 0 || st.Truncated {
		t.Errorf("stats = %+v", st)
	}
	if got, _ := svc.Lookup(0, core1, leafA); got != nil {
		t.Error("empty recovery serves segments")
	}
}

func TestWALReplayReproducesDigest(t *testing.T) {
	sc := newWALScenario(Config{Shards: 8})
	sc.register(0, mkSeg(t, 0, 10, 20, 30))
	sc.register(0, mkSeg(t, 0, 10, 21, 30))
	sc.register(0, mkSeg(t, 0, 11, 22, 32))
	sc.publish(0)
	sc.revoke(hour, seg.LinkKey{IA: addr.MustIA(1, 20), If: 2}, hour)
	sc.register(hour, mkSeg(t, hour, 10, 20, 31))
	sc.publish(hour)
	sc.reinstate(2*hour, seg.LinkKey{IA: addr.MustIA(1, 20), If: 2})

	got, st := Recover(sc.wal.Bytes(), Config{Shards: 8})
	if st.Records != sc.wal.Records || st.Truncated {
		t.Fatalf("stats = %+v, want %d clean records", st, sc.wal.Records)
	}
	if got.Digest() != sc.svc.Digest() {
		t.Fatal("replayed digest differs from the live service")
	}
	// The replica answers queries identically, not just digest-identically.
	a, _ := sc.svc.Lookup(2*hour, core1, leafA)
	b, _ := got.Lookup(2*hour, core1, leafA)
	ka, kb := keysOf(a), keysOf(b)
	if len(ka) != len(kb) {
		t.Fatalf("replayed lookup = %d segments, want %d", len(kb), len(ka))
	}
	for i := range ka {
		if ka[i] != kb[i] {
			t.Fatalf("replayed reply differs at %d", i)
		}
	}
}

func TestWALCheckpointCompactsAndRecovers(t *testing.T) {
	sc := newWALScenario(Config{Shards: 8})
	// Re-registrations (expiry refreshes) grow the log without growing
	// the state — the case checkpoint compaction exists for.
	for round := sim.Time(0); round < 8; round++ {
		for i := uint64(0); i < 8; i++ {
			sc.register(round*hour, mkSeg(t, round*hour, 10, 20+i, 30))
		}
		sc.publish(round * hour)
	}
	before := sc.wal.Len()
	sc.wal.Checkpoint(7*hour, sc.svc)
	if sc.wal.Len() >= before {
		t.Fatalf("checkpoint did not compact: %d -> %d bytes", before, sc.wal.Len())
	}
	// The compacted log holds exactly the checkpoint frame.
	if sc.wal.Records != 1 || sc.wal.Checkpoints != 1 {
		t.Fatalf("after checkpoint: records=%d checkpoints=%d", sc.wal.Records, sc.wal.Checkpoints)
	}
	// Mutations after the checkpoint land in the tail and replay on top.
	sc.revoke(hour, seg.LinkKey{IA: addr.MustIA(1, 20), If: 2}, hour)
	sc.register(hour, mkSeg(t, hour, 11, 40, 41))
	sc.publish(hour)

	got, st := Recover(sc.wal.Bytes(), Config{Shards: 8})
	if st.Checkpoints != 1 || st.Records != 4 {
		t.Fatalf("stats = %+v, want the checkpoint + 3 tail records", st)
	}
	if got.Digest() != sc.svc.Digest() {
		t.Fatal("checkpoint+tail digest differs from the live service")
	}
}

// TestWALCheckpointDigestProperty drives a seeded random mutation
// mixture with checkpoints at random points and asserts the recovery
// invariant — checkpoint load + tail replay reproduces Service.Digest
// exactly — across many interleavings.
func TestWALCheckpointDigestProperty(t *testing.T) {
	for seedIdx, seed := range []int64{1, 2, 3, 4, 5} {
		rng := rand.New(rand.NewSource(seed))
		sc := newWALScenario(Config{Shards: 8, RevocationTTL: 4 * hour})
		links := []seg.LinkKey{
			{IA: addr.MustIA(1, 20), If: 2},
			{IA: addr.MustIA(1, 21), If: 2},
			{IA: addr.MustIA(1, 22), If: 1},
		}
		now := sim.Time(0)
		for op := 0; op < 400; op++ {
			now += sim.Time(rng.Intn(1000)) * sim.Time(1e6)
			switch rng.Intn(10) {
			case 0, 1, 2, 3:
				mid := 20 + uint64(rng.Intn(3))
				dst := 30 + uint64(rng.Intn(6))
				sc.register(now, mkSeg(t, now, 10+uint64(rng.Intn(2)), mid, dst))
			case 4:
				sc.revoke(now, links[rng.Intn(len(links))], sim.Time(rng.Intn(3))*hour)
			case 5:
				sc.reinstate(now, links[rng.Intn(len(links))])
			case 6, 7, 8:
				sc.publish(now)
			case 9:
				sc.wal.Checkpoint(now, sc.svc)
			}
		}
		got, st := Recover(sc.wal.Bytes(), Config{Shards: 8, RevocationTTL: 4 * hour})
		if st.Truncated {
			t.Fatalf("seed %d: clean WAL reported truncated", seed)
		}
		if got.Digest() != sc.svc.Digest() {
			t.Fatalf("seed %d (#%d): recovered digest differs after %d records / %d checkpoints",
				seed, seedIdx, st.Records, st.Checkpoints)
		}
	}
}

func TestWALTruncatedTailRecoversPrefix(t *testing.T) {
	sc := newWALScenario(Config{Shards: 8})
	var digests [][32]byte // digest after each journaled record
	record := func(f func()) {
		f()
		digests = append(digests, sc.svc.Digest())
	}
	record(func() { sc.register(0, mkSeg(t, 0, 10, 20, 30)) })
	record(func() { sc.publish(0) })
	record(func() { sc.register(hour, mkSeg(t, hour, 10, 21, 30)) })
	record(func() { sc.revoke(hour, seg.LinkKey{IA: addr.MustIA(1, 20), If: 2}, hour) })
	record(func() { sc.publish(hour) })

	data := sc.wal.Bytes()
	// Every truncation point must recover a clean record prefix: the
	// digest equals the live digest after some record k <= records lost.
	for cut := 0; cut <= len(data); cut++ {
		got, st := Recover(data[:cut], Config{Shards: 8})
		if st.Records > uint64(len(digests)) {
			t.Fatalf("cut %d: replayed %d records, only %d journaled", cut, st.Records, len(digests))
		}
		want := New(Config{Shards: 8}).Digest() // empty prefix
		if st.Records > 0 {
			want = digests[st.Records-1]
		}
		if got.Digest() != want {
			t.Fatalf("cut %d: recovered %d records but digest is not that prefix's", cut, st.Records)
		}
	}
}

func TestWALCorruptRecordStopsReplay(t *testing.T) {
	sc := newWALScenario(Config{Shards: 8})
	sc.register(0, mkSeg(t, 0, 10, 20, 30))
	sc.publish(0)
	sc.register(hour, mkSeg(t, hour, 10, 21, 30))
	sc.publish(hour)

	clean := sc.wal.Bytes()
	for bit := 0; bit < 8; bit++ {
		data := append([]byte(nil), clean...)
		// Flip a bit in the second record's payload (first record spans
		// [0, 8+len) — find it by reading the length prefix).
		first := 8 + int(uint32(data[0])<<24|uint32(data[1])<<16|uint32(data[2])<<8|uint32(data[3]))
		data[first+10] ^= 1 << bit
		got, st := Recover(data, Config{Shards: 8})
		if !st.Truncated {
			t.Fatalf("bit %d: corruption not detected", bit)
		}
		if st.Records != 1 {
			t.Fatalf("bit %d: replayed %d records past corruption", bit, st.Records)
		}
		if got == nil {
			t.Fatalf("bit %d: no service recovered", bit)
		}
	}
}

func TestWALRecoverGarbage(t *testing.T) {
	for _, data := range [][]byte{
		{0xff}, {0, 0, 0}, {0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4, 5},
		make([]byte, 7), make([]byte, 8),
	} {
		svc, st := Recover(data, Config{})
		if svc == nil {
			t.Fatal("garbage WAL must still yield an empty service")
		}
		if st.Records != 0 {
			t.Errorf("garbage WAL replayed %d records", st.Records)
		}
	}
}

// A checkpoint whose pair count nothing backs (57 bytes under a valid
// CRC, npairs = 1<<26) must end the replay without sizing a map from it:
// before the bounded count it allocated 9.2 GB and ran 45 s.
func TestWALUnbackedCountAllocatesNothing(t *testing.T) {
	payload := payloadHead(nil, walCheckpoint, hour)
	payload = binary.BigEndian.AppendUint64(payload, 7) // epoch
	payload = binary.BigEndian.AppendUint32(payload, 1) // nshards
	payload = binary.BigEndian.AppendUint64(payload, 7) // snapshot epoch
	payload = binary.BigEndian.AppendUint64(payload, 0) // shard minExpiry
	payload = binary.BigEndian.AppendUint64(payload, 0) // dirty
	payload = binary.BigEndian.AppendUint32(payload, 1<<26)
	data := wire.AppendFrame(nil, payload)
	if len(data) != 57 {
		t.Fatalf("image is %d bytes, want 57", len(data))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, st := Recover(data, Config{Shards: 8})
	runtime.ReadMemStats(&after)
	if st.Records != 0 || st.TruncatedBytes != len(data) {
		t.Errorf("stats = %+v, want the whole image truncated", st)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d > 1<<20 {
		t.Errorf("Recover allocated %d bytes for a 57-byte image", d)
	}
}

// FuzzWALReplay asserts the recovery robustness contract: arbitrary
// mutations of a valid WAL image — truncations, bit flips, random
// prefixes — never panic, and always recover a valid service.
func FuzzWALReplay(f *testing.F) {
	sc := newWALScenario(Config{Shards: 8})
	ts := sim.Time(0)
	p := seg.NewPCB(addr.MustIA(1, 10), 1, ts, 6*hour)
	p, err := p.Extend(fakeSigner{ia: addr.MustIA(1, 10)}, addr.IA{}, 0, 2, nil, 1472)
	if err != nil {
		f.Fatal(err)
	}
	p, err = p.Extend(fakeSigner{ia: addr.MustIA(1, 30)}, addr.IA{}, 1, 0, nil, 1472)
	if err != nil {
		f.Fatal(err)
	}
	sc.register(0, p)
	sc.publish(0)
	sc.revoke(hour, seg.LinkKey{IA: addr.MustIA(1, 10), If: 2}, hour)
	sc.wal.Checkpoint(hour, sc.svc)
	sc.reinstate(2*hour, seg.LinkKey{IA: addr.MustIA(1, 10), If: 2})
	clean := sc.wal.Bytes()

	f.Add(clean, 0, byte(0))
	f.Add(clean, len(clean)/2, byte(0xff))
	f.Add([]byte{}, 0, byte(0))
	f.Fuzz(func(t *testing.T, data []byte, flip int, mask byte) {
		mutated := append([]byte(nil), data...)
		if len(mutated) > 0 && mask != 0 {
			mutated[abs(flip)%len(mutated)] ^= mask
		}
		svc, st := Recover(mutated, Config{Shards: 8})
		if svc == nil {
			t.Fatal("Recover returned nil service")
		}
		// Whatever was recovered must be a functioning service.
		svc.Publish(3 * hour)
		svc.Lookup(3*hour, core1, leafA)
		_ = svc.Digest()
		if st.TruncatedBytes < 0 || st.TruncatedBytes > len(mutated) {
			t.Fatalf("TruncatedBytes = %d of %d", st.TruncatedBytes, len(mutated))
		}
	})
}

func TestRecoveryBenchSmoke(t *testing.T) {
	sc := newWALScenario(Config{Shards: 8})
	for i := uint64(0); i < 8; i++ {
		sc.register(0, mkSeg(t, 0, 10, 20+i, 30))
	}
	sc.publish(0)
	res := RecoveryBench(sc.wal, Config{Shards: 8}, 0)
	if res.Iters != 5 {
		t.Errorf("default iters = %d", res.Iters)
	}
	if res.Records != sc.wal.Records || res.WALBytes != sc.wal.Len() {
		t.Errorf("bench saw records=%d bytes=%d, wal has %d/%d",
			res.Records, res.WALBytes, sc.wal.Records, sc.wal.Len())
	}
	if res.Mean <= 0 || res.Best <= 0 || res.Best > res.Mean || res.MBps <= 0 {
		t.Errorf("timings: best=%v mean=%v mbps=%v", res.Best, res.Mean, res.MBps)
	}
	var b strings.Builder
	res.Print(&b)
	if !strings.Contains(b.String(), "replay=") {
		t.Errorf("print output = %q", b.String())
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// benchWAL journals a pairs-sized mesh plus a mutation tail, returning
// the WAL and the digest the replay must reproduce.
func benchWAL(tb testing.TB, pairs int, checkpoint bool) *WAL {
	tb.Helper()
	sc := newWALScenario(Config{Shards: 16})
	for d := 0; d < pairs; d++ {
		for i := uint64(0); i < 2; i++ {
			sc.register(0, mkSeg(tb, 0, 10, 100+i, uint64(1000+d)))
		}
	}
	sc.publish(0)
	if checkpoint {
		sc.wal.Checkpoint(0, sc.svc)
	}
	for d := 0; d < pairs/8; d++ {
		sc.register(hour, mkSeg(tb, hour, 11, 100, uint64(1000+d)))
	}
	sc.publish(hour)
	return sc.wal
}

// BenchmarkWALRecover measures raw log replay: every mutation since
// genesis re-applied.
func BenchmarkWALRecover(b *testing.B) {
	wal := benchWAL(b, 512, false)
	data := wal.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st := Recover(data, Config{Shards: 16})
		if st.Truncated {
			b.Fatal("clean WAL truncated")
		}
	}
}

// BenchmarkWALRecoverCheckpointed measures the production path: one
// checkpoint load plus a short mutation tail.
func BenchmarkWALRecoverCheckpointed(b *testing.B) {
	wal := benchWAL(b, 512, true)
	data := wal.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st := Recover(data, Config{Shards: 16})
		if st.Checkpoints != 1 {
			b.Fatal("checkpoint not replayed")
		}
	}
}

// BenchmarkFleetSync measures one anti-entropy round healing a fully
// diverged follower (every shard pulled).
func BenchmarkFleetSync(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		f := NewFleet(FleetConfig{Replicas: 2, Service: Config{Shards: 16}})
		for d := 0; d < 256; d++ {
			f.Register(0, mkSeg(b, 0, 10, 100, uint64(1000+d)))
		}
		f.Publish(0)
		ia := f.Replica(1).IA
		f.Crash(ia)
		for d := 0; d < 64; d++ {
			f.Register(hour, mkSeg(b, hour, 11, 101, uint64(1000+d)))
		}
		f.Publish(hour)
		f.Restart(ia)
		b.StartTimer()
		if st := f.Sync(2 * hour); st.Pulls != 1 {
			b.Fatalf("pulls = %d", st.Pulls)
		}
	}
}
