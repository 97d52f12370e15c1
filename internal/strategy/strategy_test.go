package strategy

import (
	"strings"
	"testing"
	"time"
)

func TestNamesResolve(t *testing.T) {
	for _, name := range Names() {
		factory, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		p := factory()
		if p.Name() != name {
			t.Errorf("New(%q).Name() = %q", name, p.Name())
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"",
		"   ",
		"nope",
		"single-best stretch=2",
		"round-robin x=1",
		"weighted w=",
		"latency stretch=1",
		"latency stretch=0.5",
		"latency stretch=abc",
		"latency stretch=+Inf",
		"latency stretch=NaN",
		"latency warp=2",
		"latency stretch=2 stretch=3",
		"latency stretch",
		"latency =2",
		"disjoint k=1",
		"hybrid cap=-1",
		"hybrid cap=NaN",
		"hybrid revwin=0s",
		"hybrid revwin=-1s",
		"hybrid revwin=banana",
		"hybrid flux=3",
		"hybrid cap=0 lat=0 loss=0 disj=0 hops=0 rev=0 revwin=1s",
	} {
		if _, err := New(spec); err == nil {
			t.Errorf("New(%q): expected error", spec)
		}
	}
}

func TestParseParameters(t *testing.T) {
	factory, err := New("latency stretch=2.5")
	if err != nil {
		t.Fatal(err)
	}
	la, ok := factory().(*LatencyAware)
	if !ok || la.Stretch != 2.5 {
		t.Fatalf("New(latency stretch=2.5) = %#v", factory())
	}

	factory, err = New("hybrid cap=2 lat=1 loss=3 disj=0.75 hops=0.5 rev=1.5 revwin=30s")
	if err != nil {
		t.Fatal(err)
	}
	h, ok := factory().(*Hybrid)
	if !ok {
		t.Fatalf("New(hybrid ...) = %#v", factory())
	}
	want := HybridWeights{
		Capacity: 2, Latency: 1, Loss: 3, Disjoint: 0.75, Hops: 0.5,
		Revocation: 1.5, RevocationWindow: 30 * time.Second,
	}
	if h.W != want {
		t.Fatalf("hybrid weights = %+v, want %+v", h.W, want)
	}

	// Unspecified hybrid keys keep their defaults.
	factory, err = New("hybrid loss=5")
	if err != nil {
		t.Fatal(err)
	}
	h = factory().(*Hybrid)
	want = DefaultHybridWeights()
	want.Loss = 5
	if h.W != want {
		t.Fatalf("hybrid loss=5 weights = %+v, want %+v", h.W, want)
	}
}

func TestParseErrorMentionsPolicy(t *testing.T) {
	_, err := New("latency stretch=0.5")
	if err == nil || !strings.Contains(err.Error(), "latency") {
		t.Fatalf("error should name the policy: %v", err)
	}
}

func TestDisjointMaxPick(t *testing.T) {
	paths := []PathView{
		{Shared: 2, Bottleneck: 100, Hops: 3, Links: 3},
		{Shared: 0, Bottleneck: 50, Hops: 5, Links: 5},
		{Shared: 1, Bottleneck: 200, Hops: 2, Links: 2},
	}
	p := &DisjointMax{}
	if got := p.Pick(paths); got != 1 {
		t.Fatalf("Pick = %d, want 1 (fully disjoint path)", got)
	}
	// When disjointness ties, capacity breaks it.
	paths[1].Shared = 1
	if got := p.Pick(paths); got != 2 {
		t.Fatalf("Pick = %d, want 2 (tie on Shared, higher Bottleneck)", got)
	}
	// Busy and revoked paths are never picked.
	paths[2].Busy = true
	if got := p.Pick(paths); got != 1 {
		t.Fatalf("Pick = %d, want 1 (2 is busy)", got)
	}
	paths[1].Revoked = true
	if got := p.Pick(paths); got != 0 {
		t.Fatalf("Pick = %d, want 0 (1 revoked, 2 busy)", got)
	}
	paths[0].Busy = true
	if got := p.Pick(paths); got != -1 {
		t.Fatalf("Pick = %d, want -1 (nothing idle)", got)
	}
}

func TestHybridPick(t *testing.T) {
	h := &Hybrid{W: DefaultHybridWeights()}
	// The dominant path (more capacity, less of everything bad) wins.
	paths := []PathView{
		{Hops: 4, Delay: 20 * time.Millisecond, Bottleneck: 1e8, Links: 4, RevokedAge: -1},
		{Hops: 3, Delay: 10 * time.Millisecond, Bottleneck: 2e8, Links: 3, RevokedAge: -1},
	}
	if got := h.Pick(paths); got != 1 {
		t.Fatalf("Pick = %d, want 1", got)
	}
	// A fresh revocation on the winner pushes the choice to the clean path.
	paths[1].RevokedAge = 100 * time.Millisecond
	if got := h.Pick(paths); got != 0 {
		t.Fatalf("Pick = %d, want 0 (path 1 recently revoked)", got)
	}
	// An old revocation (outside the window) no longer penalizes.
	paths[1].RevokedAge = time.Minute
	if got := h.Pick(paths); got != 1 {
		t.Fatalf("Pick = %d, want 1 (revocation aged out)", got)
	}
	// Zero-value Hybrid falls back to the default weights.
	var zero Hybrid
	if got := zero.Pick(paths); got != 1 {
		t.Fatalf("zero-value Pick = %d, want 1", got)
	}
	if got := h.Pick(nil); got != -1 {
		t.Fatalf("Pick(nil) = %d, want -1", got)
	}
}

func TestHybridScoresMatchPick(t *testing.T) {
	h := &Hybrid{W: DefaultHybridWeights()}
	paths := []PathView{
		{Hops: 3, Delay: 15 * time.Millisecond, Bottleneck: 1e8, Links: 3, Loss: 0.1, Shared: 1, RevokedAge: -1},
		{Hops: 5, Delay: 25 * time.Millisecond, Bottleneck: 3e8, Links: 5, Shared: 0, RevokedAge: -1},
		{Hops: 2, Delay: 5 * time.Millisecond, Bottleneck: 5e7, Links: 2, Shared: 2, RevokedAge: 2 * time.Second},
	}
	scores := h.Scores(paths)
	best, bestScore := -1, 0.0
	for i, s := range scores {
		if best < 0 || s > bestScore {
			best, bestScore = i, s
		}
	}
	if got := h.Pick(paths); got != best {
		t.Fatalf("Pick = %d but Scores argmax = %d (%v)", got, best, scores)
	}
}
