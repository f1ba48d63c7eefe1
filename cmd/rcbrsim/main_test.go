package main

import (
	"go/parser"
	"go/token"
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

// TestBufferAndLevelsFlagValidation pins error-not-panic for the flag values
// the level grid and the queue and source models panic on, one row per
// subcommand that hands them over.
func TestBufferAndLevelsFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func([]string) error
		args []string
	}{
		{"fig2", fig2, []string{"-buffer", "-5"}},
		{"fig2", fig2, []string{"-levels", "0"}},
		{"latency", latency, []string{"-buffer", "0"}},
		{"rvbr", rvbrCompare, []string{"-buffer", "-5"}},
		{"datapath", datapathRun, []string{"-buffer", "0"}},
		{"signal", signalRun, []string{"-buffer", "NaN"}},
		{"topology", topologyRun, []string{"-buffer", "+Inf"}},
	} {
		if err := tc.run(append([]string{"-frames", "240"}, tc.args...)); err == nil {
			t.Errorf("rcbrsim %s %s: accepted", tc.name, strings.Join(tc.args, " "))
		}
	}
}
