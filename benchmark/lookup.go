package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"scionmpr/internal/addr"
	"scionmpr/internal/beacon"
	"scionmpr/internal/pathsrv"
	"scionmpr/internal/seg"
	"scionmpr/internal/sim"
	"scionmpr/internal/topology"
)

// lookup_churn: the serving layer used two ways at once. Closed-loop
// readers (GOMAXPROCS-1 of them, uniform source, Zipf(1.2) destination)
// look paths up while one writer revokes and reinstates links on an
// open-loop schedule, each write timed from when it was due. The
// operation whose latency is reported is the revocation: due time to
// published. Segments come from one diversity beaconing run.

const (
	lookupBlock = 64
	revokeTTL   = sim.Time(time.Hour)
)

// lookupInputs are generated once per run: the registered segments.
type lookupInputs struct {
	ias       []addr.IA
	now       sim.Time
	pcbs      []*seg.PCB
	links     []seg.LinkKey // every link the segments use, sorted
	harvestMs float64
}

func lookupGenerate(sc scale, rec *recorder) (*lookupInputs, error) {
	p := topology.DefaultGenParams()
	p.NumASes, p.Tier1, p.Seed = sc.lookupASes, sc.lookupTier1, topoSeed
	full, err := topology.Generate(p)
	if err != nil {
		return nil, err
	}
	coreT, err := topology.ExtractCore(full, sc.lookupCore)
	if err != nil {
		return nil, err
	}
	cfg := beacon.DefaultRunConfig(coreT, beacon.CoreMode, divFactory(), 60)
	cfg.Duration = sc.lookupBeaconing
	id := rec.begin("beacon.run_harvest", -1, 0)
	t0 := time.Now()
	run, err := beacon.Run(cfg)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	in := &lookupInputs{ias: coreT.IAs(), now: run.End, harvestMs: float64(time.Since(t0).Microseconds()) / 1e3}
	seen := map[seg.LinkKey]bool{}
	for _, ia := range in.ias {
		st := run.Servers[ia].Store()
		for _, o := range st.Origins() {
			for _, pcb := range st.PCBs(run.End, o) {
				if pcb.Leaf() == o {
					continue
				}
				in.pcbs = append(in.pcbs, pcb)
				for _, l := range pcb.Links() {
					if !seen[l] {
						seen[l] = true
						in.links = append(in.links, l)
					}
				}
			}
		}
	}
	sort.Slice(in.links, func(i, j int) bool {
		a, b := in.links[i], in.links[j]
		if a.IA != b.IA {
			return a.IA.Less(b.IA)
		}
		return a.If < b.If
	})
	if len(in.pcbs) == 0 || len(in.links) == 0 {
		return nil, fmt.Errorf("lookup: beaconing produced no segments")
	}
	return in, nil
}

// lookupEnv is the program state set-up builds from the inputs: the
// published service. The journal of the same registrations is written
// once afterwards, outside setup_s: appending 69 MB to a growing slice
// takes 0.26 s or 0.45 s depending on whether the runtime still holds
// the pages, which made setup_s bimodal.
type lookupEnv struct {
	svc *pathsrv.Service
	wal *pathsrv.WAL
	// phase timings, for the per-layer metrics
	registerUs, publishMs, walAppendNs float64
}

func lookupSetup(in *lookupInputs, rec *recorder) (*lookupEnv, error) {
	e := &lookupEnv{svc: pathsrv.New(pathsrv.Config{})}
	id := rec.begin("pathsrv.register_all", -1, 0)
	t0 := time.Now()
	for _, p := range in.pcbs {
		if err := e.svc.Register(in.now, p); err != nil {
			return nil, err
		}
	}
	e.registerUs = float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(len(in.pcbs))
	rec.end(id)
	id = rec.begin("pathsrv.publish", -1, 0)
	t0 = time.Now()
	e.svc.Publish(in.now)
	e.publishMs = float64(time.Since(t0).Nanoseconds()) / 1e6
	rec.end(id)
	return e, nil
}

// journal writes the WAL image of what lookupSetup applied.
func (e *lookupEnv) journal(in *lookupInputs, rec *recorder) {
	e.wal = pathsrv.NewWAL()
	id := rec.begin("pathsrv.wal_append_all", -1, 0)
	t0 := time.Now()
	for _, p := range in.pcbs {
		e.wal.AppendRegister(in.now, p)
	}
	e.wal.AppendPublish(in.now)
	e.walAppendNs = float64(time.Since(t0).Nanoseconds()) / float64(len(in.pcbs)+1)
	rec.end(id)
}

// replyDigest hashes every pair's reply: the serving state without the
// epochs Service.Digest includes, which churn advances.
func replyDigest(svc *pathsrv.Service, in *lookupInputs) [sha256.Size]byte {
	h := sha256.New()
	for _, src := range in.ias {
		for _, dst := range in.ias {
			segs, _ := svc.Lookup(in.now, src, dst)
			for _, s := range segs {
				h.Write([]byte(s.HopsKey()))
			}
			h.Write([]byte{0})
		}
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// readerStats is one reader's tally; blocks are ns per 64 lookups.
type readerStats struct {
	lookups, empties int
	blockNs          []int64
}

// readPhase runs the readers until stop is set and returns their tallies.
func readPhase(c *runCtx, in *lookupInputs, svc *pathsrv.Service, phase int, stop *atomic.Bool, rec *recorder) []readerStats {
	readers := max(1, runtime.GOMAXPROCS(0)-1)
	stats := make([]readerStats, readers)
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			st := &stats[g]
			rng := rand.New(rand.NewSource(c.seed*1000003 + int64(phase)*101 + int64(g)))
			zipf := rand.NewZipf(rng, 1.2, 1, uint64(len(in.ias)-1))
			byRank := rng.Perm(len(in.ias))
			warm := c.sc.warmLookups
			for !stop.Load() {
				id := rec.begin("pathsrv.lookup_block", -1, g)
				t0 := time.Now()
				empties := 0
				for i := 0; i < lookupBlock; i++ {
					src := in.ias[rng.Intn(len(in.ias))]
					di := byRank[zipf.Uint64()]
					if in.ias[di] == src {
						di = (di + 1) % len(in.ias)
					}
					dst := in.ias[di]
					if segs, _ := svc.Lookup(in.now, src, dst); len(segs) == 0 {
						empties++
					}
				}
				ns := time.Since(t0).Nanoseconds()
				rec.end(id)
				if warm > 0 {
					warm -= lookupBlock
					continue
				}
				st.lookups += lookupBlock
				st.empties += empties
				st.blockNs = append(st.blockNs, ns)
			}
		}(g)
	}
	wg.Wait()
	return stats
}

// writerStats is the writer's tally of one churn phase.
type writerStats struct {
	revokeMs, reinstateMs, lateMs []float64
	changed                       int
	busyS                         float64
}

// churn runs the open-loop writer for d: every 1/writerHz seconds one
// operation falls due, alternately revoking the next link of the seeded
// order and reinstating it. Every mutation is journalled first.
func churn(c *runCtx, in *lookupInputs, e *lookupEnv, order []int, d time.Duration, rec *recorder) writerStats {
	var ws writerStats
	period := time.Duration(float64(time.Second) / c.sc.writerHz)
	start := time.Now()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * period)
		if due.Sub(start) >= d && i%2 == 0 { // never stop with a link revoked
			return ws
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		link := in.links[order[(i/2)%len(order)]]
		began := time.Now()
		ws.lateMs = append(ws.lateMs, float64(began.Sub(due).Nanoseconds())/1e6)
		if i%2 == 0 {
			id := rec.begin("pathsrv.revoke_link", -1, i)
			e.wal.AppendRevoke(in.now, link, revokeTTL)
			ws.changed += e.svc.RevokeLink(in.now, link, revokeTTL)
			rec.end(id)
			ws.revokeMs = append(ws.revokeMs, float64(time.Since(due).Nanoseconds())/1e6)
		} else {
			id := rec.begin("pathsrv.reinstate_link", -1, i)
			e.wal.AppendReinstate(in.now, link)
			ws.changed += e.svc.ReinstateLink(in.now, link)
			rec.end(id)
			ws.reinstateMs = append(ws.reinstateMs, float64(time.Since(due).Nanoseconds())/1e6)
		}
		ws.busyS += time.Since(began).Seconds()
	}
}

func tally(stats []readerStats) (lookups, empties int, perLookupNs []float64) {
	for _, st := range stats {
		lookups += st.lookups
		empties += st.empties
		for _, b := range st.blockNs {
			perLookupNs = append(perLookupNs, float64(b)/lookupBlock)
		}
	}
	return
}

func runLookup(c *runCtx) (*outcome, error) {
	out := newOutcome()
	in, err := lookupGenerate(c.sc, c.rec)
	if err != nil {
		return nil, err
	}
	settle()
	e, setupS, err := medianSetup(c.sc.setupReps, func() (*lookupEnv, error) { return lookupSetup(in, c.rec) })
	if err != nil {
		return nil, err
	}
	out.setupS = setupS
	e.journal(in, c.rec)
	out.exact["pathsrv.segments"] = float64(len(in.pcbs))
	out.exact["pathsrv.wal_mb"] = float64(e.wal.Len()) / (1 << 20)
	before := replyDigest(e.svc, in)
	baseImage := append([]byte(nil), e.wal.Bytes()...)
	baseDigest := e.svc.Digest()
	order := rand.New(rand.NewSource(c.seed)).Perm(len(in.links))

	var memBefore runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	L := out.layer
	total := time.Duration(c.seconds * float64(time.Second))
	// The traced run spends a fifth of the window on readers alone.
	if c.traced {
		settle()
		var stop atomic.Bool
		timer := time.AfterFunc(total/5, func() { stop.Store(true) })
		t0 := time.Now()
		lookups, _, _ := tally(readPhase(c, in, e.svc, 0, &stop, nil))
		timer.Stop()
		L["pathsrv.read_only_per_s"] = float64(lookups) / time.Since(t0).Seconds()
		out.attempted += lookups
		total -= total / 5
	}

	// read_churn, in a traced run half untraced and half traced.
	var lookups, empties int
	var perLookupNs []float64
	var ws writerStats
	var churnS float64
	var halves [2]float64 // lookups per second, untraced and traced
	parts := []*recorder{nil}
	if c.traced {
		parts = []*recorder{nil, c.rec}
	}
	for i, rec := range parts {
		settle()
		var stop atomic.Bool
		var stats []readerStats
		done := make(chan struct{})
		t0 := time.Now()
		go func() {
			stats = readPhase(c, in, e.svc, 1+i, &stop, rec)
			close(done)
		}()
		// Each part revokes its own share of the seeded link order.
		share := len(order) / len(parts)
		w := churn(c, in, e, order[i*share:(i+1)*share], total/time.Duration(len(parts)), rec)
		stop.Store(true)
		<-done
		s := time.Since(t0).Seconds()
		churnS += s
		n, em, ns := tally(stats)
		halves[i] = float64(n) / s
		lookups, empties, perLookupNs = lookups+n, empties+em, append(perLookupNs, ns...)
		ws.revokeMs = append(ws.revokeMs, w.revokeMs...)
		ws.reinstateMs = append(ws.reinstateMs, w.reinstateMs...)
		ws.lateMs = append(ws.lateMs, w.lateMs...)
		ws.changed += w.changed
		ws.busyS += w.busyS
	}
	writes := len(ws.revokeMs) + len(ws.reinstateMs)
	out.attempted += lookups + writes
	out.opsPerS = float64(lookups) / churnS
	out.opMs = ws.revokeMs
	if len(ws.revokeMs) == 0 || lookups == 0 {
		return nil, fmt.Errorf("lookup: window of %.2f s saw %d lookups and %d revocations", c.seconds, lookups, len(ws.revokeMs))
	}

	// Output checks: everything reinstated serves what it served before;
	// the journal replays to the state it journalled.
	if after := replyDigest(e.svc, in); after != before {
		out.fail("replies after reinstating every link differ from those before the churn")
	}
	out.attempted++
	rec := c.rec
	settle()
	id := rec.begin("pathsrv.recover", -1, 0)
	t0 := time.Now()
	recovered, st := pathsrv.Recover(baseImage, pathsrv.Config{})
	recoverMs := float64(time.Since(t0).Nanoseconds()) / 1e6
	rec.end(id)
	if st.Truncated || recovered.Digest() != baseDigest {
		out.fail("service recovered from the set-up journal differs from the one that wrote it")
	}
	out.attempted++
	recovered = nil
	settle()
	id = rec.begin("pathsrv.checkpoint", -1, 0)
	t0 = time.Now()
	e.wal.Checkpoint(in.now, e.svc)
	checkpointMs := float64(time.Since(t0).Nanoseconds()) / 1e6
	rec.end(id)
	settle()
	id = rec.begin("pathsrv.recover_checkpoint", -1, 0)
	t0 = time.Now()
	recovered, st = pathsrv.Recover(e.wal.Bytes(), pathsrv.Config{})
	recoverCkptMs := float64(time.Since(t0).Nanoseconds()) / 1e6
	rec.end(id)
	if st.Truncated || recovered.Digest() != e.svc.Digest() {
		out.fail("service recovered from the checkpoint differs from the live one")
	}
	if !c.traced {
		return out, nil
	}

	runtimeShares(L, &memBefore, churnS)
	L["trace.overhead_share"] = halves[0]/halves[1] - 1
	L["beacon.harvest_ms"] = in.harvestMs
	L["pathsrv.register_us"] = e.registerUs
	L["pathsrv.publish_full_ms"] = e.publishMs
	L["pathsrv.wal_append_ns"] = e.walAppendNs
	L["pathsrv.read_churn_per_s"] = out.opsPerS
	L["pathsrv.lookup_ns_p50"] = median(perLookupNs)
	L["pathsrv.lookup_ns_p99"] = percentile(perLookupNs, 99)
	L["pathsrv.empty_share"] = float64(empties) / float64(lookups)
	L["pathsrv.revoke_ms_p50"] = median(ws.revokeMs)
	L["pathsrv.revoke_ms_p80"] = percentile(ws.revokeMs, 80)
	L["pathsrv.reinstate_ms_p50"] = median(ws.reinstateMs)
	L["pathsrv.changed_pairs_per_op"] = float64(ws.changed) / float64(writes)
	L["pathsrv.writer_busy_share"] = ws.busyS / churnS
	L["pathsrv.writer_late_ms_p50"] = median(ws.lateMs)
	L["pathsrv.recover_ms"] = recoverMs
	L["pathsrv.recover_mb_per_s"] = float64(len(baseImage)) / (1 << 20) / (recoverMs / 1e3)
	L["pathsrv.checkpoint_ms"] = checkpointMs
	L["pathsrv.recover_ckpt_ms"] = recoverCkptMs
	encoded := make([][]byte, 0, 1024)
	for _, p := range in.pcbs[:min(1024, len(in.pcbs))] {
		encoded = append(encoded, p.Encode())
	}
	L["seg.decode_ns"] = kernelNs(20000, func(i int) { _, _ = seg.Decode(encoded[i%len(encoded)]) })
	return out, nil
}
