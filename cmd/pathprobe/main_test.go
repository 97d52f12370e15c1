package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

// probeLine matches one probed path: its index and its round-trip time.
var probeLine = regexp.MustCompile(`^  \[(\d+)\] hops=\d+ rtt=(\S+)`)

// probes runs pathprobe and returns the header lines and the RTT of
// every probed path.
func probes(t *testing.T, topo string, n int, src, dst, algo string) (header []string, rtts []string) {
	t.Helper()
	var buf bytes.Buffer
	if err := run(&buf, topo, n, 1, src, dst, algo); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if m := probeLine.FindStringSubmatch(line); m != nil {
			rtts = append(rtts, m[2])
		} else {
			header = append(header, line)
		}
	}
	return header, rtts
}

func TestRunDemoDefault(t *testing.T) {
	header, rtts := probes(t, "demo", 0, "", "", "diversity")
	if len(header) != 2 || !strings.HasPrefix(header[1], "24 paths 2-ff00:0:203 -> 1-ff00:0:106") {
		t.Fatalf("header = %q", header)
	}
	if len(rtts) != 24 {
		t.Fatalf("%d probes, want 24", len(rtts))
	}
	for i, rtt := range rtts {
		if rtt == "0s" {
			t.Errorf("probe %d got no reply", i)
		}
	}
}

func TestRunGenWithExplicitIAs(t *testing.T) {
	header, rtts := probes(t, "gen", 300, "1-11", "1-108", "baseline")
	if len(header) != 2 || !strings.HasPrefix(header[0], "bootstrapped 255 ASes") ||
		!strings.Contains(header[1], " paths 1-11 -> 1-108") {
		t.Fatalf("header = %q", header)
	}
	if len(rtts) == 0 {
		t.Fatal("no paths on the generated ISD")
	}
	for i, rtt := range rtts {
		if rtt == "0s" {
			t.Errorf("probe %d got no reply", i)
		}
	}
}

func TestRunRejectsBadAlgo(t *testing.T) {
	err := run(&bytes.Buffer{}, "demo", 0, 1, "", "", "bogus")
	if err == nil || !strings.Contains(err.Error(), `unknown algorithm "bogus"`) {
		t.Fatalf("err = %v", err)
	}
}

func TestRunRejectsBadTopo(t *testing.T) {
	err := run(&bytes.Buffer{}, "nope", 0, 1, "", "", "diversity")
	if err == nil || !strings.Contains(err.Error(), `unknown topology "nope"`) {
		t.Fatalf("err = %v", err)
	}
}
