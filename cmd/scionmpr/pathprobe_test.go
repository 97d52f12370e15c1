package main

import (
	"regexp"
	"strings"
	"testing"
)

// probeLine matches one probed path: its index and its round-trip time.
var probeLine = regexp.MustCompile(`^  \[(\d+)\] hops=\d+ rtt=(\S+)`)

// probes runs pathprobe and returns the header lines and the RTT of
// every probed path.
func probes(t *testing.T, args ...string) (header []string, rtts []string) {
	t.Helper()
	out, err := runCmd(append([]string{"pathprobe"}, args...)...)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if m := probeLine.FindStringSubmatch(line); m != nil {
			rtts = append(rtts, m[2])
		} else {
			header = append(header, line)
		}
	}
	return header, rtts
}

func TestPathprobeDemoDefault(t *testing.T) {
	header, rtts := probes(t)
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

func TestPathprobeGenWithExplicitIAs(t *testing.T) {
	header, rtts := probes(t, "-topo", "gen", "-n", "300", "-src", "1-11", "-dst", "1-108", "-algo", "baseline")
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

func TestPathprobeRejectsBadAlgo(t *testing.T) {
	_, err := runCmd("pathprobe", "-algo", "bogus")
	if err == nil || !strings.Contains(err.Error(), `unknown algorithm "bogus"`) {
		t.Fatalf("err = %v", err)
	}
}

func TestPathprobeRejectsBadTopo(t *testing.T) {
	_, err := runCmd("pathprobe", "-topo", "nope")
	if err == nil || !strings.Contains(err.Error(), `unknown topology "nope"`) {
		t.Fatalf("err = %v", err)
	}
}
