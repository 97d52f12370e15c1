package topology

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"scionmpr/internal/addr"
)

// mustGenerate is Generate that fails the test on error.
func mustGenerate(t testing.TB, p GenParams) *Graph {
	t.Helper()
	g, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func smallGenParams() GenParams {
	p := DefaultGenParams()
	p.NumASes = 400
	p.Tier1 = 8
	return p
}

func TestGenerateDeterministic(t *testing.T) {
	a := mustGenerate(t, smallGenParams())
	b := mustGenerate(t, smallGenParams())
	if a.NumASes() != b.NumASes() || len(a.Links) != len(b.Links) {
		t.Fatalf("non-deterministic generation: %v vs %v", a.ComputeStats(), b.ComputeStats())
	}
	for i := range a.Links {
		la, lb := a.Links[i], b.Links[i]
		if la.A != lb.A || la.B != lb.B || la.Rel != lb.Rel {
			t.Fatalf("link %d differs: %s vs %s", i, la, lb)
		}
	}
}

func TestGenerateSeedChangesTopology(t *testing.T) {
	p := smallGenParams()
	a := mustGenerate(t, p)
	p.Seed = 99
	b := mustGenerate(t, p)
	if len(a.Links) == len(b.Links) {
		same := true
		for i := range a.Links {
			if a.Links[i].A != b.Links[i].A || a.Links[i].B != b.Links[i].B {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical topologies")
		}
	}
}

func TestGenerateStructure(t *testing.T) {
	p := smallGenParams()
	g := mustGenerate(t, p)
	if g.NumASes() != p.NumASes {
		t.Fatalf("ASes = %d, want %d", g.NumASes(), p.NumASes)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Tier-1 ASes form a peering clique.
	for i := 1; i <= p.Tier1; i++ {
		for j := i + 1; j <= p.Tier1; j++ {
			if len(g.LinksBetween(ia(1, uint64(i)), ia(1, uint64(j)))) == 0 {
				t.Fatalf("tier-1 %d and %d not connected", i, j)
			}
		}
	}
	// Every non-tier-1 AS has at least one provider.
	for _, x := range g.IAs() {
		if uint64(x.AS) <= uint64(p.Tier1) {
			continue
		}
		if len(providers(g, x)) == 0 {
			t.Fatalf("AS %s has no provider", x)
		}
	}
	// Parallel links exist with the configured multiplicity distribution.
	if st := g.ComputeStats(); st.ParallelPairs == 0 {
		t.Error("expected some parallel link pairs")
	}
}

func TestGeneratePowerLawCones(t *testing.T) {
	g := mustGenerate(t, smallGenParams())
	// Tier-1 cones must dwarf median stub cones.
	t1 := g.CustomerCone(ia(1, 1))
	stub := g.CustomerCone(ia(1, 399))
	if t1 < 20*stub {
		t.Errorf("tier-1 cone %d not much larger than stub cone %d", t1, stub)
	}
}

func TestGenerateErrors(t *testing.T) {
	p := smallGenParams()
	p.Tier1 = p.NumASes + 1
	if _, err := Generate(p); err == nil {
		t.Error("Tier1 > NumASes: want error")
	}
	p = smallGenParams()
	p.MaxProviders = 0
	if _, err := Generate(p); err == nil {
		t.Error("MaxProviders = 0: want error")
	}
}

func TestExtractCore(t *testing.T) {
	g := mustGenerate(t, smallGenParams())
	core, err := ExtractCore(g, 50)
	if err != nil {
		t.Fatal(err)
	}
	if core.NumASes() != 50 {
		t.Fatalf("core ASes = %d, want 50", core.NumASes())
	}
	for _, x := range core.IAs() {
		if !core.AS(x).Core {
			t.Fatalf("%s not marked core", x)
		}
	}
	for _, l := range core.Links {
		if l.Rel != Core {
			t.Fatalf("link %s not relabeled core", l)
		}
	}
	// The survivors must be high-degree ASes: tier-1 clique members survive.
	if core.AS(ia(1, 1)) == nil {
		t.Error("highest-degree tier-1 AS pruned")
	}
	if _, err := ExtractCore(g, g.NumASes()+1); err == nil {
		t.Error("extracting more ASes than exist: want error")
	}
}

func TestAssignISDs(t *testing.T) {
	g := mustGenerate(t, smallGenParams())
	core, err := ExtractCore(g, 60)
	if err != nil {
		t.Fatal(err)
	}
	relabeled, mapping, err := AssignISDs(core, 6)
	if err != nil {
		t.Fatal(err)
	}
	if relabeled.NumASes() != 60 || len(mapping) != 60 {
		t.Fatalf("relabeled ASes = %d, mapping = %d", relabeled.NumASes(), len(mapping))
	}
	perISD := map[addr.ISD]int{}
	for _, newIA := range mapping {
		perISD[newIA.ISD]++
	}
	if len(perISD) != 6 {
		t.Fatalf("got %d ISDs, want 6", len(perISD))
	}
	for isd, n := range perISD {
		if n != 10 {
			t.Errorf("ISD %d has %d cores, want 10", isd, n)
		}
	}
	if len(relabeled.Links) != len(core.Links) {
		t.Error("links lost during relabeling")
	}
	if _, _, err := AssignISDs(core, 0); err == nil {
		t.Error("0 ISDs: want error")
	}
}

func TestBuildISD(t *testing.T) {
	g := mustGenerate(t, smallGenParams())
	isd, err := BuildISD(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	cores := isd.CoreIAs()
	if len(cores) != 5 {
		t.Fatalf("ISD cores = %d, want 5", len(cores))
	}
	// All members must be reachable from some core by descending customers.
	if isd.NumASes() <= 5 {
		t.Fatalf("ISD only contains the core (%d ASes)", isd.NumASes())
	}
	// Core-core links are relabeled.
	for _, l := range isd.Links {
		if isd.AS(l.A).Core && isd.AS(l.B).Core && l.Rel != Core {
			t.Errorf("core-core link %s not relabeled", l)
		}
	}
	if _, err := BuildISD(g, 0); err == nil {
		t.Error("0 cores: want error")
	}
}

func TestSCIONLabShape(t *testing.T) {
	g := SCIONLab()
	cores := g.CoreIAs()
	if len(cores) != 21 {
		t.Fatalf("SCIONLab cores = %d, want 21", len(cores))
	}
	// Average core degree ~2 (ring + few chords), per Appendix B.
	total := 0
	coreOnly := g.Subgraph(coreSet(g))
	for _, c := range coreOnly.IAs() {
		total += coreOnly.AS(c).Degree()
	}
	avg := float64(total) / float64(len(cores))
	if avg < 1.8 || avg > 3.0 {
		t.Errorf("average core degree = %.2f, want ~2", avg)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if st := g.ComputeStats(); st.ParallelPairs < 2 {
		t.Errorf("SCIONLab parallel pairs = %d, want >= 2", st.ParallelPairs)
	}
}

func coreSet(g *Graph) map[addr.IA]bool {
	m := map[addr.IA]bool{}
	for _, ia := range g.CoreIAs() {
		m[ia] = true
	}
	return m
}

func TestDemoShape(t *testing.T) {
	g := Demo()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if n := len(g.CoreIAs()); n != 7 {
		t.Fatalf("demo cores = %d, want 7", n)
	}
	if g.NumASes() != 16 {
		t.Fatalf("demo ASes = %d, want 16", g.NumASes())
	}
	// The inter-ISD peering link exists.
	a5 := ia(1, 0xff00_0000_0105)
	b4 := ia(2, 0xff00_0000_0204)
	if len(g.LinksBetween(a5, b4)) != 1 {
		t.Error("missing A-5 -- B-4 peering link")
	}
}

func TestCAIDARoundTrip(t *testing.T) {
	g := Demo()
	var buf bytes.Buffer
	if err := WriteCAIDA(&buf, g); err != nil {
		t.Fatal(err)
	}
	// Demo uses SCION-range AS numbers that don't fit serial-2's 32-bit
	// space; parse a hand-written file instead and check structure.
	input := "# comment\n1|2|0\n1|3|-1\n2|3|-1\n1|3|-1|mlp\n"
	parsed, err := ParseCAIDA(strings.NewReader(input), 1)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.NumASes() != 3 {
		t.Fatalf("parsed ASes = %d, want 3", parsed.NumASes())
	}
	if n := len(parsed.LinksBetween(ia(1, 1), ia(1, 3))); n != 2 {
		t.Errorf("repeated pair must create parallel links, got %d", n)
	}
	if len(providers(parsed, ia(1, 3))) != 2 {
		t.Error("provider relationships not parsed")
	}
	if len(peers(parsed, ia(1, 1))) != 1 {
		t.Error("peer relationship not parsed")
	}
}

func TestCAIDAWriteParseConsistency(t *testing.T) {
	p := smallGenParams()
	p.NumASes = 50
	p.Tier1 = 4
	g := mustGenerate(t, p)
	var buf bytes.Buffer
	if err := WriteCAIDA(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ParseCAIDA(&buf, 1)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumASes() != g.NumASes() || len(back.Links) != len(g.Links) {
		t.Errorf("round trip: %v vs %v", back.ComputeStats(), g.ComputeStats())
	}
}

func TestCAIDAParseErrors(t *testing.T) {
	bad := []string{
		"1|2\n",    // too few fields
		"x|2|0\n",  // bad AS a
		"1|y|0\n",  // bad AS b
		"1|2|5\n",  // bad relationship
		"1|2|zz\n", // non-numeric relationship
		"1|1|0\n",  // self link
	}
	for _, in := range bad {
		if _, err := ParseCAIDA(strings.NewReader(in), 1); err == nil {
			t.Errorf("ParseCAIDA(%q): want error", in)
		}
	}
}

func TestExtractCoreDeterministic(t *testing.T) {
	g1 := mustGenerate(t, smallGenParams())
	g2 := mustGenerate(t, smallGenParams())
	c1, err := ExtractCore(g1, 40)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := ExtractCore(g2, 40)
	if err != nil {
		t.Fatal(err)
	}
	ias1, ias2 := c1.IAs(), c2.IAs()
	if len(ias1) != len(ias2) {
		t.Fatal("different core sizes")
	}
	for i := range ias1 {
		if ias1[i] != ias2[i] {
			t.Fatalf("core member %d differs: %v vs %v (tie-breaking must be deterministic)", i, ias1[i], ias2[i])
		}
	}
	if len(c1.Links) != len(c2.Links) {
		t.Fatal("different core link counts")
	}
}

// fingerprint hashes every structural detail of a graph — AS set, core
// flags, and each link's endpoints, interface IDs and relationship — so
// that any change to the generator's output is caught, not just changes
// to aggregate counts.
func fingerprint(g *Graph) string {
	h := sha256.New()
	for _, ia := range g.IAs() {
		fmt.Fprintf(h, "as %s core=%v\n", ia, g.AS(ia).Core)
	}
	for _, l := range g.Links {
		fmt.Fprintf(h, "link %d %s\n", l.ID, l)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGenerateFingerprint pins the default-seed generator output. If this
// fails after an intentional generator change, update the constants — and
// say so in the commit, because every seeded experiment shifts with them.
func TestGenerateFingerprint(t *testing.T) {
	const (
		wantDefault = "984d315913e7b1a96d6198923159aa3a6ab4cf8f77de54ba455c8501fe63a0e5"
		wantSmall   = "41d566d42606d26d6e96d0c9c1a6018a6572cdca26e6fc0ffffede1d948bacb3"
	)
	if got := fingerprint(mustGenerate(t, DefaultGenParams())); got != wantDefault {
		t.Errorf("DefaultGenParams fingerprint = %s, want %s", got, wantDefault)
	}
	if got := fingerprint(mustGenerate(t, smallGenParams())); got != wantSmall {
		t.Errorf("smallGenParams fingerprint = %s, want %s", got, wantSmall)
	}
	// The fingerprint itself must be stable across repeated generation.
	if a, b := fingerprint(mustGenerate(t, smallGenParams())), fingerprint(mustGenerate(t, smallGenParams())); a != b {
		t.Errorf("same params produced different fingerprints: %s vs %s", a, b)
	}
}
