package traffic

import (
	"testing"

	"scionmpr/internal/addr"
)

func testPairs() [][2]addr.IA {
	var out [][2]addr.IA
	for i := 0; i < 8; i++ {
		out = append(out, [2]addr.IA{
			addr.MustIA(1, addr.AS(100+i)),
			addr.MustIA(1, addr.AS(200+i)),
		})
	}
	return out
}

func TestGenerateDeterministic(t *testing.T) {
	p := WorkloadParams{
		Flows:       500,
		Pairs:       testPairs(),
		ArrivalRate: 1000,
		MeanSize:    256 << 10,
		ZipfS:       1.3,
		Seed:        7,
	}
	a := Generate(p)
	b := Generate(p)
	if len(a) != 500 || len(b) != 500 {
		t.Fatalf("lengths %d/%d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("spec %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	p.Seed = 8
	c := Generate(p)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical workloads")
	}
}

func TestGenerateShape(t *testing.T) {
	p := WorkloadParams{
		Flows:       2000,
		Pairs:       testPairs(),
		ArrivalRate: 1000,
		MeanSize:    256 << 10,
		Seed:        1,
	}
	specs := Generate(p)
	var totalSize float64
	maxSize := p.MeanSize * 100 // default MaxSizeFactor
	for i, s := range specs {
		if s.ID != i {
			t.Fatalf("spec %d has ID %d", i, s.ID)
		}
		if i > 0 && s.Start < specs[i-1].Start {
			t.Fatal("arrivals not monotonic")
		}
		if s.Size <= 0 || float64(s.Size) > maxSize {
			t.Fatalf("size %d outside (0, %v]", s.Size, maxSize)
		}
		totalSize += float64(s.Size)
	}
	// Bounded Pareto: the sample mean stays within a factor 2 of MeanSize.
	mean := totalSize / float64(len(specs))
	if mean < p.MeanSize/2 || mean > p.MeanSize*2 {
		t.Errorf("sample mean %v too far from %v", mean, p.MeanSize)
	}
	// Arrival spacing: 2000 flows at 1000/s should take roughly 2 seconds.
	last := specs[len(specs)-1].Start.Seconds()
	if last < 1 || last > 4 {
		t.Errorf("last arrival at %vs, want ~2s", last)
	}
	// Heavy tail: the largest flow dwarfs the median.
	var largest, smallest int64 = 0, 1 << 62
	for _, s := range specs {
		if s.Size > largest {
			largest = s.Size
		}
		if s.Size < smallest {
			smallest = s.Size
		}
	}
	if largest < 10*smallest {
		t.Errorf("no heavy tail: min=%d max=%d", smallest, largest)
	}
}

func TestGenerateEdgeCases(t *testing.T) {
	if Generate(WorkloadParams{Flows: 0, Pairs: testPairs()}) != nil {
		t.Error("zero flows should yield nil")
	}
	if Generate(WorkloadParams{Flows: 5}) != nil {
		t.Error("no pairs should yield nil")
	}
	specs := Generate(WorkloadParams{Flows: 5, Pairs: testPairs()[:1], Seed: 3})
	if len(specs) != 5 {
		t.Fatalf("defaults broken: %d specs", len(specs))
	}
	for _, s := range specs {
		if s.Src != testPairs()[0][0] {
			t.Error("single pair not used")
		}
	}
}
