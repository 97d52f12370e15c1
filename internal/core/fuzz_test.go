package core

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"scionmpr/internal/addr"
	"scionmpr/internal/seg"
	"scionmpr/internal/sim"
)

// fuzzParams are the parameter sets FuzzDiversitySelect draws from: the
// defaults, both ablations, and exponents and thresholds at their edges.
func fuzzParams(b byte) Params {
	p := DefaultParams(int(b>>4)%6 + 1)
	switch b % 8 {
	case 1:
		p.RawGeoMean = true
	case 2:
		p.ASDisjoint = true
	case 3:
		p.Alpha = 0
	case 4:
		p.ScoreThreshold = 0
	case 5:
		p.Beta, p.Gamma = 1, 1
	case 6:
		p.MaxDiversity = 1
	}
	return p
}

// FuzzDiversitySelect drives core.Diversity and its verbatim oracle
// (reference_test.go) through the same operations, decoded from bytes:
// stored beacons arriving and leaving (fresh instances of the same paths
// included, with two lifetimes), clock advances, Select, revocations,
// changes of a neighbour's interface list and checkpoint round trips.
// Every Select must return the same selections and, after every
// operation, both must serialize to the same checkpoint bytes.
func FuzzDiversitySelect(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 0, 3, 1, 2, 2, 2, 1, 0x40, 2, 2})
	f.Add([]byte{2, 0, 1, 0, 7, 0, 2, 4, 2, 1, 0x20, 2, 1, 3, 5, 2, 2, 6, 2, 1, 0x7f, 2, 2})
	f.Add([]byte{3, 0, 0, 0, 0, 5, 2, 2, 4, 3, 1, 2, 2, 1, 0x30, 6, 2, 2, 1, 0x30, 2, 3})
	f.Add(bytes.Repeat([]byte{0, 1, 2, 3, 2, 1, 9, 2, 2, 0, 5, 1, 2, 4, 3, 2, 6, 2}, 6))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		params := fuzzParams(data[0])
		local := addr.MustIA(1, 1)
		origins := []addr.IA{addr.MustIA(1, 100), addr.MustIA(1, 101)}
		neighbors := []addr.IA{addr.MustIA(1, 200), addr.MustIA(1, 201)}
		ifaces := [][]addr.IfID{{1, 2}, {3}}
		fast := NewDiversity(params)(local).(*Diversity)
		ref := newRefDiversity(params, local)
		stored := map[addr.IA][]*seg.PCB{}
		now := sim.Time(time.Hour)
		pos := 1
		next := func() byte {
			if pos >= len(data) {
				pos++
				return 0
			}
			pos++
			return data[pos-1]
		}
		for pos < len(data) {
			switch op := next(); op % 7 {
			case 0, 1: // a beacon arrives: a path of up to 3 hops over ASes 2-5
				b := next()
				origin := origins[b&1]
				lifetime := 6 * hour
				if b&2 != 0 {
					lifetime = hour
				}
				p := seg.NewPCB(origin, 1, now-sim.Time(b>>2)*minute, lifetime)
				for hop, n := 0, int(next()%3)+1; hop < n; hop++ {
					h := next()
					in := addr.IfID(0)
					if hop > 0 {
						in = addr.IfID(h>>4%2 + 1)
					}
					var err error
					signer := fakeSigner{ia: origin}
					if hop > 0 {
						signer = fakeSigner{ia: addr.MustIA(1, addr.AS(h%4+2))}
					}
					if p, err = p.Extend(signer, addr.IA{}, in, addr.IfID(h>>2%3+1), nil, 1472); err != nil {
						t.Fatal(err)
					}
				}
				list := stored[origin]
				if i := slices.IndexFunc(list, func(q *seg.PCB) bool { return q.HopsKey() == p.HopsKey() }); i >= 0 {
					list[i] = p
				} else if len(list) < 8 {
					stored[origin] = append(list, p)
				}
			case 2: // the clock advances 1-16 intervals of 10 min, or 1 s
				if b := next(); b&1 != 0 {
					now += sim.Time(b>>1%16+1) * 10 * minute
				} else {
					now += sim.Time(time.Second)
				}
			case 3: // Select for one (origin, neighbour) pair
				b := next()
				origin, nb := origins[b&1], b>>1&1
				got := fast.Select(now, origin, neighbors[nb], ifaces[nb], stored[origin])
				want := ref.Select(now, origin, neighbors[nb], ifaces[nb], stored[origin])
				if !slices.Equal(got, want) {
					t.Fatalf("at %v, origin %s, neighbor %s: Select %v, oracle %v", time.Duration(now), origin, neighbors[nb], got, want)
				}
			case 4: // a link fails: one of the local AS's or ASes 2-5
				b := next()
				ia := local
				if b&1 != 0 {
					ia = addr.MustIA(1, addr.AS(b>>1%4+2))
				}
				lk := seg.LinkKey{IA: ia, If: addr.IfID(b>>3%3 + 1)}
				fast.Revoke(lk)
				ref.Revoke(lk)
			case 5: // a neighbour's interface list changes
				b := next()
				var l []addr.IfID
				for i := addr.IfID(1); i <= 4; i++ {
					if b>>(i+1)&1 != 0 {
						l = append(l, i)
					}
				}
				ifaces[b&1] = l
			case 6: // checkpoint round trip; a path leaves the store
				blob := fast.AppendState(nil)
				fast = NewDiversity(params)(local).(*Diversity)
				if err := fast.RestoreState(blob); err != nil {
					t.Fatal(err)
				}
				refBlob := ref.AppendState(nil)
				ref = newRefDiversity(params, local)
				if err := ref.RestoreState(refBlob); err != nil {
					t.Fatal(err)
				}
				b := next()
				if list := stored[origins[b&1]]; len(list) > 0 {
					stored[origins[b&1]] = slices.Delete(list, int(b>>1)%len(list), int(b>>1)%len(list)+1)
				}
			}
			if !bytes.Equal(fast.AppendState(nil), ref.AppendState(nil)) {
				t.Fatalf("after operation ending at byte %d: checkpoint bytes differ from the oracle's", pos)
			}
		}
	})
}
