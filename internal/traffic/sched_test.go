package traffic

import (
	"testing"

	"scionmpr/internal/strategy"
)

func TestNewSchedulerNames(t *testing.T) {
	for _, name := range []string{"single-best", "weighted"} {
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
