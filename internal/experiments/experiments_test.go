package experiments

import (
	"strings"
	"testing"

	"scionmpr/internal/core"
)

func TestRunFig5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("fig5 in -short mode")
	}
	res, err := RunFig5(SmokeScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Monitors) != SmokeScale().Monitors {
		t.Fatalf("monitors = %d", len(res.Monitors))
	}
	// Core shape claims of §5.2 that must hold at any scale:
	// BGPsec above BGP; diversity core beaconing below baseline core
	// beaconing by a large factor; intra-ISD below BGP.
	med := func(series []float64) float64 {
		rel := res.relative(series)
		if len(rel) == 0 {
			t.Fatal("empty relative series")
		}
		sum := 0.0
		for _, v := range rel {
			sum += v
		}
		return sum / float64(len(rel))
	}
	bgpsec := med(res.BGPsec)
	base := med(res.CoreBaseline)
	div := med(res.CoreDiversity)
	intra := med(res.IntraBaseline)
	if bgpsec <= 1 {
		t.Errorf("BGPsec/BGP = %v, want > 1", bgpsec)
	}
	if div >= base {
		t.Errorf("diversity (%v) not below baseline (%v)", div, base)
	}
	if base/div < 4 {
		t.Errorf("diversity reduction factor only %.1f (grows with scale and duration; paper: >100x)", base/div)
	}
	// The absolute intra-ISD-vs-BGP ratio ("2 orders below BGP") only
	// emerges at Internet scale, where BGP monitors carry a full table;
	// at smoke scale we check the ordering: intra-ISD beaconing is the
	// cheapest SCION component.
	if intra >= base {
		t.Errorf("intra-ISD (%v) not below core baseline (%v)", intra, base)
	}
	var sb strings.Builder
	res.Print(&sb)
	if !strings.Contains(sb.String(), "Figure 5") {
		t.Error("print output missing title")
	}
}

func TestRunFig6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("fig6 in -short mode")
	}
	res, err := RunFig6(SmokeScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) == 0 || len(res.Series) != 2+len(SmokeScale().DiversityStoreLimits) {
		t.Fatalf("pairs=%d series=%d", len(res.Pairs), len(res.Series))
	}
	// No series may exceed the optimum anywhere.
	for _, s := range res.Series {
		for i, v := range s.Values {
			if v > res.Optimum[i] {
				t.Errorf("%s pair %d: %v exceeds optimum %v", s.Name, i, v, res.Optimum[i])
			}
		}
	}
	ratios := res.CapacityRatios()
	// Diversity with unlimited storage must beat the baseline and BGP.
	divInf := ratios["SCION Diversity (inf)"]
	if divInf <= ratios["BGP"] {
		t.Errorf("diversity(inf) %.3f not above BGP %.3f", divInf, ratios["BGP"])
	}
	var sb strings.Builder
	res.Print(&sb)
	if !strings.Contains(sb.String(), "Figure 6a/6b") {
		t.Error("print output missing title")
	}
}

func TestRunSCIONLab(t *testing.T) {
	if testing.Short() {
		t.Skip("scionlab in -short mode")
	}
	res, err := RunSCIONLab()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 21*20/2 {
		t.Fatalf("pairs = %d", len(res.Pairs))
	}
	if len(res.Series) != 5 {
		t.Fatalf("series = %d", len(res.Series))
	}
	if len(res.InterfaceBps) == 0 {
		t.Fatal("no per-interface bandwidth")
	}
	// Sparse SCIONLab core: bounded quality, never above optimum.
	for _, s := range res.Series {
		for i, v := range s.Values {
			if v > res.Optimum[i] {
				t.Errorf("%s exceeds optimum at pair %d", s.Name, i)
			}
			if v < 1 {
				t.Errorf("%s pair %d has no connectivity", s.Name, i)
			}
		}
	}
	var sb strings.Builder
	res.Print(&sb)
	out := sb.String()
	if !strings.Contains(out, "Figure 9") || !strings.Contains(out, "4 KB/s") {
		t.Error("print output incomplete")
	}
}

func TestRunTable1(t *testing.T) {
	res, err := RunTable1()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 7 {
		t.Fatalf("rows = %d, want 7", len(res.Rows))
	}
	// Every row pinned exactly as EXPERIMENTS.md records it: scope and
	// frequency match the paper's Table 1; messages and bytes are the
	// measured reproduction.
	want := []Table1Row{
		{"Core Beaconing", "Global", "Minutes", 910, 392238},
		{"Intra-ISD Beaconing", "ISD", "Minutes", 102, 22950},
		{"Down-Path Segment Lookup", "Global", "Seconds", 400, 94807},
		{"Core-Path Segment Lookup", "ISD", "Seconds", 200, 159044},
		{"Endpoint Path Lookup", "AS", "Seconds", 200, 56300},
		{"Path (De-)Registration", "ISD", "Minutes", 41, 24982},
		{"Path Revocation", "ISD", "Seconds", 3, 72},
	}
	for i, w := range want {
		if res.Rows[i] != w {
			t.Errorf("row %d = %+v, want %+v", i, res.Rows[i], w)
		}
	}
	var sb strings.Builder
	res.Print(&sb)
	if !strings.Contains(sb.String(), "Table 1") {
		t.Error("print output missing title")
	}
}

func TestScalePresets(t *testing.T) {
	p := PaperScale()
	if p.NumASes != 12000 || p.CoreSize != 2000 || p.NumISDs != 200 || p.Monitors != 26 {
		t.Error("paper scale drifted from §5.1")
	}
	if p.Interval.Minutes() != 10 || p.Lifetime.Hours() != 6 || p.Duration.Hours() != 6 {
		t.Error("paper timing drifted from §5.1")
	}
	if p.DissemLimit != 5 || p.StoreLimit != 60 {
		t.Error("paper limits drifted from §5.1")
	}
	s := SmokeScale()
	if s.NumASes >= DefaultScale().NumASes {
		t.Error("smoke scale must be smaller than default")
	}
}

func TestRunGridSearchTinySpace(t *testing.T) {
	if testing.Short() {
		t.Skip("gridsearch in -short mode")
	}
	s := SmokeScale()
	s.CoreSize = 8
	s.Duration = 2 * 3600 * 1e9 // 2h
	space := core.SearchSpace{
		Alphas:     []float64{6},
		Betas:      []float64{4},
		Gammas:     []float64{2, 4},
		Thresholds: []float64{0.05},
	}
	res, err := RunGridSearch(s, space, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations != 2 {
		t.Errorf("evaluations = %d", res.Evaluations)
	}
	if res.Best.Alpha != 6 || res.Best.Beta != 4 {
		t.Errorf("fixed dimensions drifted: %+v", res.Best)
	}
	if res.Best.Gamma != 2 && res.Best.Gamma != 4 {
		t.Errorf("gamma outside space: %v", res.Best.Gamma)
	}
	var sb strings.Builder
	res.Print(&sb)
	if !strings.Contains(sb.String(), "best parameters") {
		t.Error("print output missing")
	}
}

func TestRunConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("convergence in -short mode")
	}
	s := SmokeScale()
	s.Duration = 2 * 3600 * 1e9
	res, err := RunConvergence(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.BGPInitial <= 0 {
		t.Error("no BGP convergence time")
	}
	if res.BGPAfterWithdraw <= 0 {
		t.Error("no BGP re-convergence time")
	}
	if !res.SCIONPathsReady {
		t.Error("SCION paths not ready")
	}
	// SCION failover is one SCMP round trip (tens of ms), far below BGP
	// re-convergence with its 15 s MRAI batching.
	if res.SCIONFailover <= 0 || res.SCIONFailover >= res.BGPAfterWithdraw {
		t.Errorf("SCION failover %v not below BGP re-convergence %v",
			res.SCIONFailover, res.BGPAfterWithdraw)
	}
	var sb strings.Builder
	res.Print(&sb)
	if !strings.Contains(sb.String(), "failover") {
		t.Error("print output missing")
	}
}

func TestRunAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation in -short mode")
	}
	s := SmokeScale()
	s.Duration = 2 * 3600 * 1e9
	res, err := RunAblation(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byName := map[string]AblationRow{}
	for _, r := range res.Rows {
		if r.Bytes == 0 || r.Messages == 0 || r.QualityFraction <= 0 {
			t.Errorf("%s: degenerate row %+v", r.Name, r)
		}
		byName[r.Name] = r
	}
	// The shipped diversity variant must dominate the baseline on
	// overhead without losing more than a third of its quality.
	base := byName["baseline"]
	div := byName["diversity (default)"]
	if div.Bytes >= base.Bytes {
		t.Errorf("diversity bytes %d not below baseline %d", div.Bytes, base.Bytes)
	}
	if div.QualityFraction < base.QualityFraction*0.66 {
		t.Errorf("diversity quality %v too far below baseline %v", div.QualityFraction, base.QualityFraction)
	}
	var sb strings.Builder
	res.Print(&sb)
	if !strings.Contains(sb.String(), "Ablation") {
		t.Error("print output missing")
	}
}

func TestRunCapacityOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("capacity in -short mode")
	}
	s := SmokeScale()
	res, err := RunCapacity(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) == 0 || len(res.Series) != 3 {
		t.Fatalf("pairs=%d series=%d", len(res.Pairs), len(res.Series))
	}
	for _, series := range res.Series {
		if len(series.Multiples) != len(res.Pairs) {
			t.Fatalf("%s: %d values for %d pairs", series.Name, len(series.Multiples), len(res.Pairs))
		}
	}
	div := res.AggregateGoodput("SCION Diversity")
	base := res.AggregateGoodput("SCION Baseline")
	bgpBest := res.AggregateGoodput("BGP best-path")
	if div <= 0 || base <= 0 || bgpBest <= 0 {
		t.Fatalf("degenerate goodput: div=%v base=%v bgp=%v", div, base, bgpBest)
	}
	// The paper's Figure 6b ordering, measured with packets.
	if div < base {
		t.Errorf("diversity aggregate %v below baseline %v", div, base)
	}
	if base < bgpBest {
		t.Errorf("baseline aggregate %v below BGP best-path %v", base, bgpBest)
	}
	var sb strings.Builder
	res.Print(&sb)
	if !strings.Contains(sb.String(), "capacity under load") {
		t.Error("print output missing title")
	}
}
