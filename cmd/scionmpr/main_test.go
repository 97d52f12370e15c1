package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// execute runs one subcommand the way the binary does and returns its
// stdout and exit status.
func execute(args ...string) (string, int) {
	var stdout bytes.Buffer
	code := dispatch(&stdout, &bytes.Buffer{}, args)
	return stdout.String(), code
}

// runCmd runs one subcommand and returns its stdout and error.
func runCmd(args ...string) (string, error) {
	for _, c := range commands {
		if c.name == args[0] {
			var stdout bytes.Buffer
			err := c.run(&stdout, &bytes.Buffer{}, args[1:])
			return stdout.String(), err
		}
	}
	panic("no subcommand " + args[0])
}

// chdirTemp moves the test into a fresh directory holding the schedule
// file testdata/faults.txt.
func chdirTemp(t *testing.T) {
	t.Helper()
	sched, err := os.ReadFile(filepath.Join("testdata", "faults.txt"))
	if err != nil {
		t.Fatal(err)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	if err := os.WriteFile("faults.txt", sched, 0o644); err != nil {
		t.Fatal(err)
	}
}

// wallClock matches the lines that report wall-clock time.
var wallClock = regexp.MustCompile(`(?m)^(.* wall time|bootstrapped .* in .*|\[.* finished in .*\])\n`)

// TestCLIMatchesRecordedOutput replays invocations whose stdout and exit
// status were recorded from the seven standalone commands this binary
// replaced (testdata/cli/<name>.golden, wall-clock lines stripped), plus
// the rejections of removed surfaces. The cases run in order in one
// directory: the resume reads the snapshot the checkpoint wrote.
func TestCLIMatchesRecordedOutput(t *testing.T) {
	golden, err := filepath.Abs(filepath.Join("testdata", "cli"))
	if err != nil {
		t.Fatal(err)
	}
	chdirTemp(t)
	for _, tc := range []struct {
		name string
		args string
		code int
	}{
		{"topogen_demo", "topogen -kind demo", 0},
		{"topogen_gen", "topogen -kind gen -n 300 -core 40 -isds 4", 0},
		{"topogen_bad_kind", "topogen -kind bogus", 1},
		{"topogen_bad_flag", "topogen -bogus", 2},
		{"beaconsim_demo", "beaconsim -topo demo", 0},
		// Stdout does not depend on the worker count.
		{"beaconsim_demo", "beaconsim -topo demo -workers 1", 0},
		{"beaconsim_demo", "beaconsim -topo demo -workers 2", 0},
		{"beaconsim_scionlab_intra", "beaconsim -topo scionlab -mode intra -duration 1h", 0},
		{"beaconsim_checkpoint", "beaconsim -topo demo -duration 2h -checkpoint 1h -snapshot demo.ckpt", 0},
		{"beaconsim_resume", "beaconsim -topo demo -duration 2h -resume demo.ckpt", 0},
		{"beaconsim_bad_algo", "beaconsim -algo bogus", 1},
		{"chaossim", "chaossim", 0},
		{"chaossim_schedule", "chaossim -schedule faults.txt", 0},
		{"pathprobe_demo", "pathprobe -topo demo", 0},
		{"pathprobe_gen_no_pair", "pathprobe -topo gen", 1},
		{"trafficsim", "trafficsim -flows 200", 0},
		// The standalone trafficsim printed the trace error and exited 0.
		{"trafficsim_trace_missing_dir", "trafficsim -flows 200 -trace missing/trace.jsonl", 1},
		{"pathserve", "pathserve -scale smoke -endpoints 2000 -actors 8 -duration 4s", 0},
		{"pathserve_bad_scale", "pathserve -scale galactic", 1},
		// The replicated path-server fleet is gone: its flag and its
		// experiment are rejected like any unknown one.
		{"pathserve_replicas_removed", "pathserve -replicas 3", 2},
		{"experiments_table1", "experiments -exp table1", 0},
		{"experiments_unknown", "experiments -exp bogus", 2},
		{"experiments_failover_removed", "experiments -exp failover", 2},
	} {
		want, err := os.ReadFile(filepath.Join(golden, tc.name+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		out, code := execute(strings.Fields(tc.args)...)
		if code != tc.code {
			t.Errorf("%s: exit %d, want %d", tc.args, code, tc.code)
		}
		if got := wallClock.ReplaceAllString(out, ""); got != string(want) {
			t.Errorf("%s: stdout differs from the recording\n--- got ---\n%s--- want ---\n%s", tc.args, got, want)
		}
	}
}

// TestFlagsMatchRecordedTable holds every subcommand to the flag names and
// defaults of the standalone command it replaced.
func TestFlagsMatchRecordedTable(t *testing.T) {
	want := map[string][][2]string{
		"beaconsim": {
			{"algo", "diversity"}, {"checkpoint", "0s"}, {"core", "100"}, {"dissem", "5"},
			{"duration", "6h0m0s"}, {"interval", "10m0s"}, {"isdcores", "5"}, {"lifetime", "6h0m0s"},
			{"mode", "core"}, {"n", "600"}, {"pairs", "40"}, {"resume", ""}, {"seed", "1"},
			{"snapshot", "beaconsim.ckpt"}, {"store", "60"}, {"tier1", "10"}, {"topo", "demo"},
			{"verify", "false"}, {"workers", "0"},
		},
		"chaossim": {
			{"algo", "diversity"}, {"core", "24"}, {"duration", "30s"}, {"interval", "1s"},
			{"lifetime", "1h0m0s"}, {"n", "200"}, {"pairs", "20"}, {"schedule", ""}, {"seed", "1"},
			{"store", "60"}, {"telemetry", ""}, {"tier1", "8"}, {"topo", "demo"}, {"trace", ""},
		},
		"experiments": {
			{"ases", "0"}, {"cpuprofile", ""}, {"duration", "0s"}, {"exp", "all"}, {"memprofile", ""},
			{"pairs", "0"}, {"scale", "default"}, {"telemetry", ""}, {"trace", ""}, {"workers", "0"},
		},
		"pathprobe": {
			{"algo", "diversity"}, {"dst", ""}, {"n", "300"}, {"seed", "1"}, {"src", ""}, {"topo", "demo"},
		},
		"pathserve": {
			{"actors", "64"}, {"cachettl", "2s"}, {"duration", "10s"}, {"endpoints", "1000000"},
			{"scale", "default"}, {"seed", "1"}, {"shards", "16"}, {"snapshot", ""}, {"telemetry", ""},
			{"think", "250ms"}, {"tick", "10ms"}, {"trace", ""}, {"workers", "0"}, {"zipf", "1.2"},
		},
		"topogen": {
			{"core", "0"}, {"isd", "0"}, {"isds", "0"}, {"kind", "gen"}, {"n", "12000"}, {"o", ""},
			{"parse", ""}, {"seed", "1"}, {"stats", "true"}, {"tier1", "15"},
		},
		"trafficsim": {
			{"chunk", "65536"}, {"cores", "5"}, {"duration", "0s"}, {"flows", "10000"}, {"mean", "131072"},
			{"n", "60"}, {"pairs", "40"}, {"rate", "5000"}, {"sched", "weighted"}, {"seed", "1"},
			{"telemetry", ""}, {"tier1", "4"}, {"trace", ""}, {"zipf", "1.2"},
		},
	}
	if len(commands) != len(want) {
		t.Errorf("%d subcommands, want %d", len(commands), len(want))
	}
	for _, c := range commands {
		fs := flag.NewFlagSet(c.name, flag.ContinueOnError)
		c.flags(fs)
		var got [][2]string
		fs.VisitAll(func(f *flag.Flag) { got = append(got, [2]string{f.Name, f.DefValue}) })
		if g, w := flagList(got), flagList(want[c.name]); g != w {
			t.Errorf("%s flags:\n got %s\nwant %s", c.name, g, w)
		}
	}
}

func flagList(flags [][2]string) string {
	var b strings.Builder
	for _, f := range flags {
		b.WriteString(" -" + f[0] + "=" + f[1])
	}
	return b.String()
}

func TestDispatchListsSubcommands(t *testing.T) {
	for _, args := range [][]string{nil, {"bogus"}, {"-exp", "fig5"}} {
		var stderr bytes.Buffer
		if code := dispatch(&bytes.Buffer{}, &stderr, args); code != 2 {
			t.Errorf("%q: exit %d, want 2", args, code)
		}
		for _, c := range commands {
			if !strings.Contains(stderr.String(), "  "+c.name+" ") {
				t.Errorf("%q: usage does not list %s:\n%s", args, c.name, stderr.String())
			}
		}
	}
	if out, code := execute("topogen", "-h"); code != 0 || out != "" {
		t.Errorf("topogen -h: exit %d, stdout %q", code, out)
	}
}

// TestTraceWriteErrorFails: a -trace file that cannot be written fails
// the subcommand, whichever it is.
func TestTraceWriteErrorFails(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "missing", "trace.jsonl")
	for _, args := range [][]string{
		{"trafficsim", "-flows", "200"},
		{"chaossim", "-duration", "12s"},
		{"experiments", "-exp", "table1"},
		{"pathserve", "-scale", "smoke", "-endpoints", "2000", "-actors", "8", "-duration", "4s"},
	} {
		if _, err := runCmd(append(args, "-trace", trace)...); err == nil {
			t.Errorf("%s with an unwritable -trace succeeded", args[0])
		}
	}
}

// TestExperimentsFlushesProfilesOnError: a run that fails still writes
// the CPU and heap profiles it was asked for.
func TestExperimentsFlushesProfilesOnError(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	_, err := runCmd("experiments", "-exp", "table1", "-cpuprofile", cpu, "-memprofile", mem,
		"-trace", filepath.Join(dir, "missing", "trace.jsonl"))
	if err == nil {
		t.Fatal("unwritable -trace accepted")
	}
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("%s not written: %v", p, err)
		}
	}
}
