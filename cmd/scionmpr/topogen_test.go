package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestTopogenKinds(t *testing.T) {
	g, err := topogenBase(graph{kind: "gen", n: 80, tier1: 5, seed: 1}, "")
	if err != nil || g.NumASes() != 80 {
		t.Fatalf("gen: %v (ASes %d)", err, g.NumASes())
	}
	if g, err = topogenBase(graph{kind: "scionlab"}, ""); err != nil || g.NumASes() != 63 {
		t.Fatalf("scionlab: %v", err)
	}
	if g, err = topogenBase(graph{kind: "demo"}, ""); err != nil || g.NumASes() != 16 {
		t.Fatalf("demo: %v", err)
	}
	if _, err = topogenBase(graph{kind: "nope"}, ""); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestTopogenParseFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rel.txt")
	if err := os.WriteFile(path, []byte("1|2|-1\n2|3|-1\n1|3|0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := topogenBase(graph{kind: "gen"}, path)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumASes() != 3 || len(g.Links) != 3 {
		t.Errorf("parsed ASes=%d links=%d", g.NumASes(), len(g.Links))
	}
	if _, err := topogenBase(graph{kind: "gen"}, filepath.Join(dir, "missing.txt")); err == nil {
		t.Error("missing file accepted")
	}
}
