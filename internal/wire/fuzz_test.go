package wire_test

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
	"time"

	"scionmpr/internal/addr"
	"scionmpr/internal/beacon"
	"scionmpr/internal/chaos"
	"scionmpr/internal/core"
	"scionmpr/internal/pathsrv"
	"scionmpr/internal/seg"
	"scionmpr/internal/sim"
	"scionmpr/internal/topology"
	"scionmpr/internal/trust"
	"scionmpr/internal/wire"
)

// The state decoders FuzzDecoders drives, chosen by kind % numKinds.
const (
	kindPCB      = iota // seg.Decode
	kindSelector        // core.Diversity.RestoreState
	kindChaos           // chaos.Engine.RestoreState
	kindWAL             // pathsrv.Recover, checkpoint included
	kindSnapshot        // beacon.Resume
	numKinds
)

// fuzzEnv is what the seeds are built from and the decoders run against.
type fuzzEnv struct {
	local addr.IA
	cfg   beacon.RunConfig // a three-interval diversity run on a 6-AS core
	seeds [numKinds][]byte
}

func newFuzzEnv(tb testing.TB) *fuzzEnv {
	gp := topology.DefaultGenParams()
	gp.NumASes, gp.Tier1 = 40, 3
	topo, err := topology.ExtractCore(topology.MustGenerate(gp), 6)
	if err != nil {
		tb.Fatal(err)
	}
	infra, err := trust.NewInfra(topo, trust.Sized)
	if err != nil {
		tb.Fatal(err)
	}
	env := &fuzzEnv{local: topo.IAs()[0]}
	env.cfg = beacon.DefaultRunConfig(topo, beacon.CoreMode, core.NewDiversity(core.DefaultParams(5)), 15)
	env.cfg.Duration = 3 * env.cfg.Interval
	env.cfg.Workers = 1
	env.cfg.Infra = infra

	// A real snapshot, and from the servers it leaves behind a real PCB
	// and, by running the selector over the stored PCBs, a real selector
	// blob.
	res, snap, err := beacon.RunWithCheckpoint(env.cfg, env.cfg.Interval)
	if err != nil {
		tb.Fatal(err)
	}
	env.seeds[kindSnapshot] = unframe(tb, snap)
	var stored []*seg.PCB
	srv := res.Servers[env.local]
	for _, origin := range srv.Store().Origins() {
		for _, e := range srv.Store().Entries(res.End, origin) {
			stored = append(stored, e.PCB)
		}
	}
	if len(stored) == 0 {
		tb.Fatal("the seed run stored no PCBs")
	}
	env.seeds[kindPCB] = stored[0].Encode()
	sel := core.NewDiversity(core.DefaultParams(5))(env.local)
	for i, p := range stored {
		sel.Select(res.End, p.Info.Origin, topo.IAs()[1], []addr.IfID{addr.IfID(1 + i%2)}, []*seg.PCB{p})
	}
	env.seeds[kindSelector] = sel.(core.Checkpointer).AppendState(nil)

	// A chaos engine half way through overlapping faults of every kind.
	s := &sim.Simulator{}
	eng := chaos.NewEngine(s, sim.NewNetwork(s, topo, time.Millisecond))
	if err := eng.Apply(&chaos.Schedule{End: sim.Time(10 * time.Second), Events: []chaos.Event{
		{Kind: chaos.Flap, Link: topo.Links[0].ID, At: 0, Down: 5 * time.Second},
		{Kind: chaos.Flap, Link: topo.Links[0].ID, At: sim.Time(time.Second), Down: 5 * time.Second},
		{Kind: chaos.Gray, Link: topo.Links[1].ID, At: 0, Down: 6 * time.Second, Rate: 0.1},
		{Kind: chaos.Gray, Link: topo.Links[1].ID, At: sim.Time(time.Second), Down: 4 * time.Second, Rate: 0.5},
		{Kind: chaos.Spike, Link: topo.Links[2].ID, At: 0, Down: 4 * time.Second, Delay: 50 * time.Millisecond},
		{Kind: chaos.CrashAS, IA: env.local, At: sim.Time(2 * time.Second), Down: 3 * time.Second},
	}}); err != nil {
		tb.Fatal(err)
	}
	s.RunUntil(sim.Time(2500 * time.Millisecond))
	env.seeds[kindChaos] = eng.AppendState(nil)

	// A WAL with a checkpoint in the middle: registrations, a revocation,
	// the checkpoint, then a tail.
	svc, wal := pathsrv.New(pathsrv.Config{Shards: 4}), pathsrv.NewWAL()
	link := seg.LinkKey{IA: stored[0].ASEntries[0].Local, If: stored[0].ASEntries[0].Hop.ConsEgress}
	for _, p := range stored {
		wal.AppendRegister(0, p)
		_ = svc.Register(0, p) // mirrors Recover, which ignores the same error
	}
	wal.AppendPublish(0)
	svc.Publish(0)
	wal.AppendRevoke(1, link, sim.Time(time.Hour))
	svc.RevokeLink(1, link, sim.Time(time.Hour))
	wal.Checkpoint(2, svc)
	wal.AppendReinstate(3, link)
	wal.AppendPublish(3)
	env.seeds[kindWAL] = unframe(tb, wal.Bytes())
	return env
}

// unframe rewrites a sequence of CRC frames as u32 length | payload
// records, the form the framed kinds are fuzzed in: frame(sections(data))
// puts each (mutated) payload back under a correct CRC, so mutations
// reach the body decoders instead of dying at the frame check.
func unframe(tb testing.TB, framed []byte) []byte {
	var out []byte
	for rest := framed; len(rest) > 0; {
		payload, next, ok := wire.NextFrame(rest)
		if !ok {
			tb.Fatalf("seed frame at offset %d is bad", len(framed)-len(rest))
		}
		out = binary.BigEndian.AppendUint32(out, uint32(len(payload)))
		out, rest = append(out, payload...), next
	}
	return out
}

// sections splits unframe's records (aliasing data); a length that
// overruns the data takes what is left.
func sections(data []byte) (payloads [][]byte) {
	for len(data) >= 4 {
		n := int(binary.BigEndian.Uint32(data))
		if data = data[4:]; n > len(data) || n < 0 {
			n = len(data)
		}
		payloads, data = append(payloads, data[:n]), data[n:]
	}
	return payloads
}

func frame(payloads [][]byte) (framed []byte) {
	for _, p := range payloads {
		framed = wire.AppendFrame(framed, p)
	}
	return framed
}

func u32s(vs ...uint32) (out []byte) {
	for _, v := range vs {
		out = binary.BigEndian.AppendUint32(out, v)
	}
	return out
}

// allocated is what f allocates, in bytes.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func TestFrameInvertsUnframe(t *testing.T) {
	framed := frame([][]byte{[]byte("one"), {}, []byte("three")})
	if secs := sections(unframe(t, framed)); len(secs) != 3 || !bytes.Equal(frame(secs), framed) {
		t.Errorf("frame(sections(unframe(x))) = %x (%d sections), want %x", frame(secs), len(secs), framed)
	}
	if secs := sections([]byte{0xff, 0xff, 0xff, 0xff, 'a', 'b'}); len(secs) != 1 || string(secs[0]) != "ab" {
		t.Errorf("overrunning length: %q", secs)
	}
}

// FuzzDecoders is the one fuzz target over every decoder of serialized
// state. For all of them: no panic, and allocation bounded by the input
// (a count the bytes do not back must not size a make). A PCB, a
// selector blob or a chaos blob that is accepted is also canonical: the
// decoded value writes the same bytes again.
func FuzzDecoders(f *testing.F) {
	env := newFuzzEnv(f)
	for kind, seed := range env.seeds {
		f.Add(byte(kind), seed)
	}
	// The two unbacked counts that used to allocate gigabytes: a chaos
	// blob claiming 1<<28 gray rates, and a WAL whose one checkpoint
	// record (kind 5 | time | epoch | 1 shard | snapshot epoch |
	// minExpiry | dirty) claims 1<<26 pairs.
	f.Add(byte(kindChaos), u32s(0, 1, 9, 1<<28))
	f.Add(byte(kindWAL), append(append(u32s(49), 5), u32s(0, 0, 0, 7, 1, 0, 7, 0, 0, 0, 0, 1<<26)...))

	// What the fixed parts of a run allocate, measured on the clean seeds.
	snap := frame(sections(env.seeds[kindSnapshot]))
	resumeBase := allocated(func() {
		if _, err := beacon.Resume(env.cfg, snap); err != nil {
			f.Fatal(err)
		}
	})

	f.Fuzz(func(t *testing.T, kind byte, data []byte) {
		// Every decoder may allocate a small multiple of its input (maps,
		// decoded structs, the canonical re-encoding) on top of a fixed
		// part; an unbacked count is off by orders of magnitude.
		budget := uint64(4<<20 + 256*len(data))
		var got uint64
		switch kind % numKinds {
		case kindPCB:
			got = allocated(func() {
				if p, err := seg.Decode(data); err == nil && !bytes.Equal(p.Encode(), data) {
					t.Errorf("accepted PCB re-encodes differently")
				}
			})
		case kindSelector:
			got = allocated(func() {
				sel := core.NewDiversity(core.DefaultParams(5))(env.local).(core.Checkpointer)
				if err := sel.RestoreState(data); err == nil && !bytes.Equal(sel.AppendState(nil), data) {
					t.Errorf("accepted selector state re-appends differently")
				}
			})
		case kindChaos:
			got = allocated(func() {
				eng := chaos.NewEngine(&sim.Simulator{})
				if err := eng.RestoreState(data); err == nil && !bytes.Equal(eng.AppendState(nil), data) {
					t.Errorf("accepted chaos engine state re-appends differently")
				}
			})
		case kindWAL:
			framed := frame(sections(data))
			got = allocated(func() {
				svc, st := pathsrv.Recover(framed, pathsrv.Config{Shards: 4})
				if svc == nil || st.TruncatedBytes < 0 || st.TruncatedBytes > len(framed) {
					t.Errorf("Recover: service %v, stats %+v", svc, st)
				}
			})
		case kindSnapshot:
			secs := sections(append([]byte(nil), data...))
			// The loss RNG has no skip-ahead: Resume replays LossDraws
			// draws one by one, so a count of 2^60 is a long loop, not a
			// decoder fault. Keep the field (32 bytes before the end of
			// the network section) below 2^16.
			if len(secs) > 1 && len(secs[1]) >= 32 {
				clear(secs[1][len(secs[1])-32 : len(secs[1])-26])
			}
			framed := frame(secs)
			budget += 4 * resumeBase
			got = allocated(func() { _, _ = beacon.Resume(env.cfg, framed) })
		}
		if got > budget {
			t.Errorf("kind %d: %d-byte input allocated %d bytes (budget %d)", kind%numKinds, len(data), got, budget)
		}
	})
}
