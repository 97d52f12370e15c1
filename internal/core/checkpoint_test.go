package core

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"scionmpr/internal/addr"
	"scionmpr/internal/seg"
)

// selectSome drives a selector through two origins and two egress
// interfaces so every section of its state blob is populated.
func selectSome(t *testing.T, s Selector) {
	t.Helper()
	other := addr.MustIA(1, 101)
	p1 := mkPCB(t, origin, 0, [3]uint64{100, 0, 1}, [3]uint64{2, 1, 2})
	p2 := mkPCB(t, origin, 0, [3]uint64{100, 0, 2}, [3]uint64{3, 1, 2})
	p3 := mkPCB(t, other, 0, [3]uint64{101, 0, 1}, [3]uint64{2, 3, 2})
	s.Select(0, origin, neighbor, []addr.IfID{9, 8}, []*seg.PCB{p1, p2})
	s.Select(minute, other, neighbor, []addr.IfID{9}, []*seg.PCB{p3})
}

func TestSelectorStateRoundTrip(t *testing.T) {
	lat := NewLatencyAware(5, UniformLatency(time.Millisecond))
	for name, mk := range map[string]Factory{"diversity": NewDiversity(DefaultParams(5)), "latency": lat} {
		live := mk(addr.MustIA(1, 1))
		selectSome(t, live)
		blob := live.(Checkpointer).AppendState(nil)
		if len(blob) < 100 {
			t.Fatalf("%s: state blob is only %d bytes", name, len(blob))
		}
		restored := mk(addr.MustIA(1, 1)).(Checkpointer)
		if err := restored.RestoreState(blob); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(restored.AppendState(nil), blob) {
			t.Errorf("%s: restored selector appends different bytes", name)
		}
		for cut := 0; cut < len(blob); cut++ {
			if mk(addr.MustIA(1, 1)).(Checkpointer).RestoreState(blob[:cut]) == nil {
				t.Fatalf("%s: prefix of %d bytes accepted", name, cut)
			}
		}
		if mk(addr.MustIA(1, 1)).(Checkpointer).RestoreState(append(blob, 0)) == nil {
			t.Errorf("%s: trailing byte accepted", name)
		}
	}
}

func TestDiversityStateRejectsNonCanonical(t *testing.T) {
	u32 := binary.BigEndian.AppendUint32
	key := []byte{0, 1, 0, 0, 0, 0, 0, 100, 0, 1} // 1-100#1
	tuple := make([]byte, 16)                     // origin, neighbor
	for name, blob := range map[string][]byte{
		// AppendState would index past its key table.
		"repeated link key": u32(u32(append(append(u32(nil, 2), key...), key...), 0), 0),
		// AppendState skips zero counters, so it never writes one.
		"zero history counter": u32(u32(u32(append(u32(u32(nil, 0), 1), tuple...), 1), 0), 0),
		"unbacked id count":    u32(u32(u32(nil, 1<<30), 0), 0),
		"unbacked sent count":  u32(u32(u32(nil, 0), 0), 1<<30),
	} {
		if err := newDiv(5).RestoreState(blob); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	for name, blob := range map[string][]byte{
		"one link key":        u32(u32(append(u32(nil, 1), key...), 0), 0),
		"one history counter": u32(u32(u32(append(u32(u32(nil, 0), 1), tuple...), 1), 3), 0),
	} {
		if err := newDiv(5).RestoreState(blob); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
