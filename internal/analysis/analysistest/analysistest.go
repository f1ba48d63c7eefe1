// Package analysistest runs one analyzer over a hermetic testdata source
// tree and checks its findings against // want comments, mirroring
// golang.org/x/tools/go/analysis/analysistest at the scale this module
// needs. A testdata tree lays packages out under <root>/src/<path>, and
// every import must resolve inside the tree — tests fake the handful of
// standard-library packages the analyzers recognize structurally
// ("metrics", "net", "sync", "errors", "time"), which keeps a
// full suite run under a second.
//
// Expectations are written on the offending line:
//
//	reg.Counter("oops") // want "string literal"
//
// Each quoted string must be a substring of exactly one diagnostic
// reported on that line; diagnostics with no matching want, and wants
// with no matching diagnostic, fail the test. Driver behavior is part of
// the contract under test: //rcbrlint:ignore directives and the
// per-analyzer test-file policy are applied before matching.
package analysistest

import (
	"regexp"
	"strconv"
	"strings"
	"testing"

	"rcbr/internal/analysis"
)

var wantRE = regexp.MustCompile(`//\s*want((?:\s+"(?:[^"\\]|\\.)*")+)`)
var quoteRE = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)

// expectation is one // want clause: a substring expected in a diagnostic
// at file:line.
type expectation struct {
	file    string
	line    int
	substr  string
	matched bool
}

// Run loads the packages at paths from root (testdata directory), applies
// the analyzer through the standard driver, and compares diagnostics with
// the packages' // want comments.
func Run(t *testing.T, root string, a *analysis.Analyzer, paths ...string) {
	t.Helper()
	repo, err := analysis.LoadTree(root, paths)
	if err != nil {
		t.Fatalf("loading %v from %s: %v", paths, root, err)
	}
	diags, err := analysis.Run(repo, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}
	expects := collectWants(t, repo)
	for _, d := range diags {
		if !claim(expects, d) {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, e := range expects {
		if !e.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", e.file, e.line, e.substr)
		}
	}
}

// collectWants parses every // want comment in the loaded packages.
func collectWants(t *testing.T, repo *analysis.Repo) []*expectation {
	t.Helper()
	var out []*expectation
	for _, pkg := range repo.Sorted() {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRE.FindStringSubmatch(c.Text)
					if m == nil {
						if strings.Contains(c.Text, "want \"") {
							t.Fatalf("%s: malformed want comment: %s", repo.Fset.Position(c.Pos()), c.Text)
						}
						continue
					}
					pos := repo.Fset.Position(c.Pos())
					for _, q := range quoteRE.FindAllString(m[1], -1) {
						substr, err := strconv.Unquote(q)
						if err != nil {
							t.Fatalf("%s: bad want string %s: %v", pos, q, err)
						}
						out = append(out, &expectation{file: pos.Filename, line: pos.Line, substr: substr})
					}
				}
			}
		}
	}
	return out
}

// claim marks the first unmatched expectation matching d, if any.
func claim(expects []*expectation, d analysis.Diagnostic) bool {
	for _, e := range expects {
		if e.matched || e.file != d.Pos.Filename || e.line != d.Pos.Line {
			continue
		}
		if strings.Contains(d.Message, e.substr) {
			e.matched = true
			return true
		}
	}
	return false
}
