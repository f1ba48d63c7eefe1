package main

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestPackageCommentListsEveryCommand holds the usage block of the package
// comment to the command table: one "rcbrsim <name> ... <summary>" line per
// command, and no line for a command that is not there.
func TestPackageCommentListsEveryCommand(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, parser.ParseComments|parser.PackageClauseOnly)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, line := range strings.Split(f.Doc.Text(), "\n") {
		if line = strings.TrimSpace(line); strings.HasPrefix(line, "rcbrsim ") {
			lines = append(lines, line)
		}
	}
	if len(lines) != len(commands) {
		t.Errorf("package comment has %d usage lines, the table %d commands", len(lines), len(commands))
	}
	for i, c := range commands {
		if i < len(lines) && !(strings.HasPrefix(lines[i], "rcbrsim "+c.name+" ") && strings.HasSuffix(lines[i], c.summary)) {
			t.Errorf("usage line %d is %q; want command %q, summary %q", i, lines[i], c.name, c.summary)
		}
	}
}

func TestParseInts(t *testing.T) {
	got, err := parseInts("1, 2,30")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 30 {
		t.Fatalf("got %v", got)
	}
	if _, err := parseInts("1,x"); err == nil {
		t.Fatal("bad int accepted")
	}
	if _, err := parseInts(""); err == nil {
		t.Fatal("empty list accepted")
	}
}

func TestParseFloats(t *testing.T) {
	got, err := parseFloats("0.4, 1.2")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 0.4 || got[1] != 1.2 {
		t.Fatalf("got %v", got)
	}
	if _, err := parseFloats("a"); err == nil {
		t.Fatal("bad float accepted")
	}
}

func TestBuildTrace(t *testing.T) {
	tr := buildTrace(240, 1)
	if tr.Len() != 240 {
		t.Fatalf("len %d", tr.Len())
	}
}

// TestEveryCommandRuns drives every row of the command table through the
// dispatcher at toy size, with the global profiling flags on one row.
func TestEveryCommandRuns(t *testing.T) {
	dir := t.TempDir()
	tmp := func(name string) string { return filepath.Join(dir, name) }
	toy := map[string][]string{
		"fig2":     {"fig2", "-frames", "240"},
		"fig5":     {"-cpuprofile", tmp("cpu.pb.gz"), "-memprofile", tmp("mem.pb.gz"), "fig5", "-frames", "240"},
		"fig6":     {"fig6", "-frames", "240", "-ns", "1,2,5"},
		"fig7":     {"fig7", "-frames", "240"},
		"fig8":     {"fig8", "-frames", "240"},
		"fig9":     {"fig9", "-frames", "240"},
		"analysis": {"analysis"},
		"section2": {"section2", "-frames", "240"},
		"muxcmp":   {"muxcmp", "-frames", "240"},
		"datapath": {"datapath", "-frames", "240", "-csv", tmp("datapath.csv")},
		"latency":  {"latency", "-frames", "240"},
		"chernoff": {"chernoff", "-frames", "240", "-samples", "500"},
		"fit":      {"fit", "-frames", "240"},
		"rvbr":     {"rvbr", "-frames", "240"},
		"signal":   {"signal", "-frames", "240", "-json", tmp("signal.json")},
		"churn":    {"churn", "-vcs", "500", "-ports", "4", "-churn", "1000", "-json", tmp("churn.json")},
		"topology": {"topology", "-frames", "240", "-csv", tmp("topology.csv")},
		"schedule": {"schedule", "-frames", "240", "-levels", "8"},
		"trace":    {"trace", "-frames", "240", "-out", tmp("trace.txt")},
	}
	for _, c := range commands {
		args, ok := toy[c.name]
		if !ok {
			t.Errorf("command %q has no toy invocation", c.name)
			continue
		}
		if err := dispatch(args); err != nil {
			t.Errorf("rcbrsim %s: %v", strings.Join(args, " "), err)
		}
	}
	for _, out := range []string{"cpu.pb.gz", "mem.pb.gz", "datapath.csv", "signal.json", "churn.json", "topology.csv", "trace.txt"} {
		if fi, err := os.Stat(tmp(out)); err != nil || fi.Size() == 0 {
			t.Errorf("%s not written: %v", out, err)
		}
	}
}

// TestBufferAndLevelsFlagValidation pins error-not-panic for the flag values
// the level grid and the queue and source models panic on, one row per
// subcommand that hands them over, and an error for a NaN the heuristic's
// granularity, the offered load or the utilization once let through. A
// link-capacity multiple must also be refused with an error naming its flag:
// one that was NaN, infinite, zero, so large that a cell slot truncates to
// 0 ns or a capacity overflows to +Inf, or so small that the link cannot
// set up every source at -delta once failed deep in the mesh or the switch,
// naming none.
func TestBufferAndLevelsFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"fig2", []string{"-buffer", "-5"}},
		{"fig2", []string{"-levels", "0"}},
		{"latency", []string{"-buffer", "0"}},
		{"rvbr", []string{"-buffer", "-5"}},
		{"datapath", []string{"-buffer", "0"}},
		{"signal", []string{"-buffer", "NaN"}},
		{"topology", []string{"-buffer", "+Inf"}},
		{"schedule", []string{"-mode", "online", "-delta", "NaN"}},
		{"latency", []string{"-delta", "NaN"}},
		{"fig7", []string{"-loads", "NaN", "-caps", "10", "-batches", "4"}},
		{"muxcmp", []string{"-util", "NaN"}},
		{"schedule", []string{"-alpha", "NaN"}},
		{"rvbr", []string{"-alpha", "NaN"}},
		{"rvbr", []string{"-margin", "NaN"}},
		{"rvbr", []string{"-margin", "+Inf"}},
	} {
		if err := dispatch(append([]string{tc.name, "-frames", "240"}, tc.args...)); err == nil {
			t.Errorf("rcbrsim %s %s: accepted", tc.name, strings.Join(tc.args, " "))
		}
	}
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"datapath", []string{"-capfrac", "NaN"}},
		{"datapath", []string{"-capfrac", "+Inf"}},
		{"datapath", []string{"-capfrac", "0"}},
		{"datapath", []string{"-capfrac", "1e300"}},
		{"signal", []string{"-capfrac", "1e308"}},
		{"topology", []string{"-capfrac", "1e308"}},
		{"topology", []string{"-backbone", "1e308"}},
		{"signal", []string{"-capfrac", "NaN"}},
		{"signal", []string{"-capfrac", "+Inf"}},
		{"topology", []string{"-capfrac", "NaN"}},
		{"topology", []string{"-capfrac", "+Inf"}},
		{"topology", []string{"-backbone", "NaN"}},
		{"topology", []string{"-backbone", "+Inf"}},
		{"signal", []string{"-capfrac", "1e-300"}},
		{"signal", []string{"-capfrac", "0.01"}},
		{"topology", []string{"-capfrac", "1e-300"}},
		{"topology", []string{"-capfrac", "0.01"}},
	} {
		// A row that is wrongly accepted runs: keep its CSV out of the
		// working directory.
		args := append([]string{tc.name, "-frames", "240"}, tc.args...)
		if tc.name == "topology" || tc.name == "datapath" {
			args = append(args, "-csv", filepath.Join(t.TempDir(), tc.name+".csv"))
		}
		if err := dispatch(args); err == nil || !strings.Contains(err.Error(), tc.args[0]) {
			t.Errorf("rcbrsim %s %s: error %v, want one naming %s", tc.name, strings.Join(tc.args, " "), err, tc.args[0])
		}
	}
}

// TestCountFlagValidation pins an error naming the flag, where a value was
// once replaced in silence: the count flags of signal and topology below
// one (sources, signaling workers, queue depth, retained events, and slots
// between samples), a -frames outside the range of a command that does
// not take the whole trace, a fig5 curve LogSpace panicked on or that
// came out NaN, and a section2 bucket the policer panicked on or that
// printed a NaN loss column.
func TestCountFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"signal", []string{"-n", "0"}},
		{"signal", []string{"-workers", "0"}},
		{"signal", []string{"-queue", "-1"}},
		{"signal", []string{"-events", "0"}},
		{"topology", []string{"-n", "0"}},
		{"topology", []string{"-sample", "0"}},
		{"muxcmp", []string{"-frames", "0"}},
		{"muxcmp", []string{"-frames", "14401"}},
		{"datapath", []string{"-frames", "0"}},
		{"datapath", []string{"-frames", "14401"}},
		{"signal", []string{"-frames", "0"}},
		{"signal", []string{"-frames", "28801"}},
		{"topology", []string{"-frames", "0"}},
		{"topology", []string{"-frames", "28801"}},
		{"fig5", []string{"-points", "0"}},
		{"fig5", []string{"-points", "1"}},
		{"fig5", []string{"-buflo", "300e3", "-bufhi", "30e3"}},
		{"fig5", []string{"-buflo", "NaN"}},
		{"fig5", []string{"-loss", "NaN"}},
		{"section2", []string{"-bucket", "-5"}},
		{"section2", []string{"-bucket", "0"}},
		{"section2", []string{"-bucket", "NaN"}},
		{"section2", []string{"-bucket", "+Inf"}},
	} {
		// A row that is wrongly accepted runs: keep its CSV out of the
		// working directory.
		args := append([]string{tc.name, "-frames", "240"}, tc.args...)
		if tc.name == "topology" || tc.name == "datapath" {
			args = append(args, "-csv", filepath.Join(t.TempDir(), tc.name+".csv"))
		}
		if err := dispatch(args); err == nil || !strings.Contains(err.Error(), tc.args[0]) {
			t.Errorf("rcbrsim %s %s: error %v, want one naming %s", tc.name, strings.Join(tc.args, " "), err, tc.args[0])
		}
	}
}
