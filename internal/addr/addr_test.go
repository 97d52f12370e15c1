package addr

import (
	"testing"
	"testing/quick"
)

func TestASString(t *testing.T) {
	cases := []struct {
		as   AS
		want string
	}{
		{0, "0"},
		{64512, "64512"},
		{MaxBGPAS, "4294967295"},
		{MaxBGPAS + 1, "1:0:0"},
		{0xff00_0000_0110, "ff00:0:110"},
		{MaxAS, "ffff:ffff:ffff"},
	}
	for _, c := range cases {
		if got := c.as.String(); got != c.want {
			t.Errorf("AS(%d).String() = %q, want %q", uint64(c.as), got, c.want)
		}
	}
}

func TestParseASRoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		a := AS(v & uint64(MaxAS))
		got, err := ParseAS(a.String())
		return err == nil && got == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseASErrors(t *testing.T) {
	for _, s := range []string{"", "x", "1:2", "1:2:3:4", "1:zz:3", "281474976710656", "-5"} {
		if _, err := ParseAS(s); err == nil {
			t.Errorf("ParseAS(%q): want error", s)
		}
	}
}

func TestASRanges(t *testing.T) {
	if !AS(1).Inherited() || !AS(MaxBGPAS).Inherited() {
		t.Error("BGP-range ASes must report Inherited")
	}
	if AS(MaxBGPAS + 1).Inherited() {
		t.Error("48-bit AS must not report Inherited")
	}
	if !MaxAS.Valid() || (MaxAS + 1).Valid() {
		t.Error("Valid boundary wrong")
	}
}

func TestIAStringParse(t *testing.T) {
	ia := MustIA(7, 0xff00_0000_0110)
	if got := ia.String(); got != "7-ff00:0:110" {
		t.Fatalf("IA.String() = %q", got)
	}
	back, err := ParseIA(ia.String())
	if err != nil || back != ia {
		t.Fatalf("ParseIA round trip: %v, %v", back, err)
	}
	if _, err := ParseIA("nodash"); err == nil {
		t.Error("ParseIA without dash: want error")
	}
	if _, err := ParseIA("99999-1"); err == nil {
		t.Error("ParseIA with overflowing ISD: want error")
	}
	if _, err := ParseIA("1-zz:1:1:1"); err == nil {
		t.Error("ParseIA with bad AS: want error")
	}
}

func TestIAUint64RoundTrip(t *testing.T) {
	f := func(isd uint16, as uint64) bool {
		ia := IA{ISD: ISD(isd), AS: AS(as & uint64(MaxAS))}
		return IAFromUint64(ia.Uint64()) == ia
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIALess(t *testing.T) {
	a := MustIA(1, 5)
	b := MustIA(1, 6)
	c := MustIA(2, 0)
	if !a.Less(b) || !b.Less(c) || c.Less(a) {
		t.Error("IA ordering broken")
	}
	if a.IsZero() {
		t.Error("non-zero IA reported zero")
	}
	if !(IA{}).IsZero() {
		t.Error("zero IA not reported zero")
	}
}

func TestMustIAPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustIA with invalid AS must panic")
		}
	}()
	MustIA(1, MaxAS+1)
}

func TestHostAddr(t *testing.T) {
	ia := MustIA(1, 64512)
	h := HostIP4(ia, 10, 0, 0, 1)
	if h.String() != "1-64512,10.0.0.1" {
		t.Errorf("HostIP4 string = %q", h.String())
	}
	s := HostSvc(ia, SvcCS)
	if s.String() != "1-64512,svc:1" {
		t.Errorf("HostSvc string = %q", s.String())
	}
	if !h.Equal(h) || h.Equal(s) {
		t.Error("Host equality broken")
	}
	h2 := HostIP4(ia, 10, 0, 0, 2)
	if h.Equal(h2) {
		t.Error("different locals must differ")
	}
}

func TestHostAddrTypeLen(t *testing.T) {
	cases := map[HostAddrType]int{
		HostNone: 0, HostIPv4: 4, HostIPv6: 16, HostMAC: 6, HostService: 2,
	}
	for typ, want := range cases {
		if got := typ.Len(); got != want {
			t.Errorf("%v.Len() = %d, want %d", typ, got, want)
		}
		if typ.String() == "" {
			t.Errorf("%d: empty String()", typ)
		}
	}
	if HostAddrType(200).Len() != 0 {
		t.Error("unknown type length must be 0")
	}
}

// TestFlowHostBlock: every 20-bit wire FlowID gets its own address inside
// 100.64.0.0/10, and addresses outside the block are not flow addresses.
func TestFlowHostBlock(t *testing.T) {
	ia := MustIA(1, 5)
	seen := map[string]bool{}
	for _, id := range []int{0, 1, 2, 255, 256, 1 << 16, 1<<20 - 1} {
		h := FlowHost(ia, id)
		if !h.IsFlowHost() || h.Local[0] != 100 || h.Local[1] < 64 || h.Local[1] > 127 {
			t.Errorf("flow %d: %s outside 100.64.0.0/10", id, h)
		}
		if seen[h.String()] {
			t.Errorf("flow %d: address %s reused", id, h)
		}
		seen[h.String()] = true
	}
	for _, h := range []Host{
		HostIP4(ia, 10, 0, 0, 2), HostIP4(ia, 100, 63, 255, 255), HostIP4(ia, 100, 128, 0, 0),
		HostSvc(ia, SvcCS),
	} {
		if h.IsFlowHost() {
			t.Errorf("%s taken for a flow address", h)
		}
	}
}
