package traffic

import (
	"testing"
	"time"

	"scionmpr/internal/strategy"
)

func TestNewSchedulerNames(t *testing.T) {
	for _, name := range []string{"single-best", "round-robin", "weighted", "latency"} {
		factory, err := strategy.New(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s := factory(); s.Name() != name {
			t.Errorf("factory(%q).Name() = %q", name, s.Name())
		}
	}
	if _, err := strategy.New("nope"); err == nil {
		t.Error("unknown scheduler accepted")
	}
}

func TestSingleBestWaitsForBestPath(t *testing.T) {
	s := &strategy.SingleBest{}
	paths := []strategy.PathView{
		{Hops: 5},
		{Hops: 3},
		{Hops: 4},
	}
	if got := s.Pick(paths); got != 1 {
		t.Errorf("pick = %d, want 1", got)
	}
	paths[1].Busy = true
	if got := s.Pick(paths); got != -1 {
		t.Errorf("busy best: pick = %d, want -1 (wait, don't spill)", got)
	}
	paths[1].Revoked = true
	if got := s.Pick(paths); got != 2 {
		t.Errorf("revoked best: pick = %d, want 2 (next shortest)", got)
	}
	for i := range paths {
		paths[i].Revoked = true
	}
	if got := s.Pick(paths); got != -1 {
		t.Errorf("all revoked: pick = %d", got)
	}
}

func TestRoundRobinRotates(t *testing.T) {
	s := &strategy.RoundRobin{}
	paths := make([]strategy.PathView, 3)
	var got []int
	for i := 0; i < 6; i++ {
		got = append(got, s.Pick(paths))
	}
	want := []int{1, 2, 0, 1, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sequence = %v, want %v", got, want)
		}
	}
	paths[1].Revoked = true
	paths[2].Busy = true
	if idx := s.Pick(paths); idx != 0 {
		t.Errorf("only idle usable is 0, got %d", idx)
	}
	paths[0].Busy = true
	if idx := s.Pick(paths); idx != -1 {
		t.Errorf("no idle usable, got %d", idx)
	}
}

func TestWeightedBottleneckProportional(t *testing.T) {
	s := &strategy.WeightedBottleneck{}
	paths := []strategy.PathView{
		{Bottleneck: 3e8},
		{Bottleneck: 1e8},
	}
	counts := map[int]int{}
	for i := 0; i < 400; i++ {
		idx := s.Pick(paths)
		if idx < 0 {
			t.Fatal("refused with idle paths")
		}
		counts[idx]++
	}
	// 3:1 capacity ratio must yield a 3:1 chunk split.
	if counts[0] != 300 || counts[1] != 100 {
		t.Errorf("split = %v, want 300/100", counts)
	}
	paths[0].Revoked = true
	if idx := s.Pick(paths); idx != 1 {
		t.Errorf("revoked path picked: %d", idx)
	}
}

func TestLatencyAwareStretchBound(t *testing.T) {
	s := &strategy.LatencyAware{Stretch: 1.5}
	paths := []strategy.PathView{
		{Delay: 10 * time.Millisecond},
		{Delay: 14 * time.Millisecond},
		{Delay: 40 * time.Millisecond},
	}
	if idx := s.Pick(paths); idx != 0 {
		t.Errorf("pick = %d, want lowest latency 0", idx)
	}
	paths[0].Busy = true
	if idx := s.Pick(paths); idx != 1 {
		t.Errorf("pick = %d, want 1 (within stretch)", idx)
	}
	paths[1].Busy = true
	// Path 2 is beyond 1.5x the best delay: wait instead.
	if idx := s.Pick(paths); idx != -1 {
		t.Errorf("pick = %d, want -1 (outside stretch bound)", idx)
	}
	paths[0].Revoked = true
	paths[1].Revoked = true
	// Best usable delay is now 40ms, so path 2 qualifies.
	paths[1].Busy = false
	if idx := s.Pick(paths); idx != 2 {
		t.Errorf("pick = %d, want 2", idx)
	}
}
