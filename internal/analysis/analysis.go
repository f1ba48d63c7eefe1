// Package analysis is a small, dependency-free static-analysis framework
// for the rcbr repository, plus the four project-specific analyzers that
// cmd/rcbrlint runs over it. The signaling plane and switch fabric rest on
// conventions the compiler cannot see and no test can reach — metric names
// must be registered constants, fabric locks must not be held across
// blocking operations, hot paths must stay at 0 allocs/op on the branches
// no benchmark takes — so a machine checks them on every source line:
//
//   - metricname: metric strings passed to the metrics registry are
//     package-level Metric* constants (or *Counter/*Gauge/*Histogram
//     helper builders), each name literal declared in exactly one package.
//   - lockscope: no sync.Mutex/RWMutex is held across a call that can
//     block (net I/O, channel operations, time.Sleep, WaitGroup.Wait).
//   - sentinelcmp: sentinel errors are matched with errors.Is, never ==.
//   - zeroalloc: functions annotated //rcbr:zeroalloc avoid
//     allocation-inducing constructs outside cold error paths.
//
// Each of the four resolves an identifier to its type or object, which a
// go/parser test cannot. Rules a short test can hold are held by tests
// beside the code instead (DESIGN §9): finite-rate validation at every
// entry point, one port lock at a time, no mutex on a ring, every event
// kind named and emitted, every histogram observed, context first and
// passed down through the signaling surface.
//
// The framework deliberately mirrors the shape of
// golang.org/x/tools/go/analysis (Analyzer, Pass, testdata-driven tests)
// so the analyzers can migrate to the upstream driver wholesale if the
// module ever takes on that dependency; until then it runs on the standard
// library alone: go/parser for syntax, go/types for semantics, and export
// data from `go list -export` for out-of-module imports.
//
// False-positive escapes: a finding can be suppressed with a
//
//	//rcbrlint:ignore <analyzer> <reason>
//
// comment on the flagged line or the line above it (typically the last
// line of a declaration's doc comment). The reason is mandatory prose for
// the reviewer; a bare directive, or one naming an unknown analyzer, is
// itself reported as a finding (attributed to "rcbrlint") and suppresses
// nothing.
package analysis

import (
	"errors"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and ignore directives.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run reports the analyzer's findings on one package via pass.Reportf.
	Run func(pass *Pass) error
	// Tests, when true, keeps diagnostics located in _test.go files;
	// otherwise the driver drops them (the analyzer still *sees* test
	// files, so usage-counting checks can consult pass.IsTestFile).
	Tests bool
}

// Package is one loaded, parsed, type-checked package.
type Package struct {
	// Path is the import path ("rcbr/internal/switchfab").
	Path string
	// Dir is the directory the sources were read from.
	Dir string
	// Files holds the parsed sources: library files first, then any
	// in-package test files. External (_test-suffixed) test packages are
	// not loaded.
	Files []*ast.File
	// TestFiles marks, parallel to Files, which entries are _test.go
	// files.
	TestFiles []bool
	// Types and Info are the go/types results for Files.
	Types *types.Package
	Info  *types.Info
}

// Repo is the universe of packages a run loaded: the cross-package view
// used by repo-wide invariants (duplicate metric names, event-kind
// emission liveness).
type Repo struct {
	Fset *token.FileSet
	// Pkgs maps import path to package, for every module-local package
	// loaded this run.
	Pkgs map[string]*Package
}

// Sorted returns the loaded packages in import-path order, for
// deterministic iteration.
func (r *Repo) Sorted() []*Package {
	out := make([]*Package, 0, len(r.Pkgs))
	for _, p := range r.Pkgs {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// Diagnostic is one finding, positioned and attributed to an analyzer.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkg      *Package
	Repo     *Repo

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// IsTestFile reports whether pos lies in a _test.go file.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// Run executes the analyzers over every package in repo, applies ignore
// directives and the per-analyzer test-file policy, and returns the
// surviving findings sorted by position.
func Run(repo *Repo, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range repo.Sorted() {
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Fset: repo.Fset, Pkg: pkg, Repo: repo, diags: &diags}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	diags = filterDiagnostics(repo, analyzers, diags)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// filterDiagnostics drops findings in test files for analyzers that opted
// out of them, and findings suppressed by an ignore directive.
func filterDiagnostics(repo *Repo, analyzers []*Analyzer, diags []Diagnostic) []Diagnostic {
	testsOK := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		testsOK[a.Name] = a.Tests
	}
	ignores, bad := collectIgnores(repo)
	out := diags[:0]
	for _, d := range diags {
		if strings.HasSuffix(d.Pos.Filename, "_test.go") && !testsOK[d.Analyzer] {
			continue
		}
		if ignores.matches(d) {
			continue
		}
		out = append(out, d)
	}
	// Directive problems are findings in their own right: they bypass the
	// test-file policy and cannot themselves be suppressed.
	return append(out, bad...)
}

// driverName attributes diagnostics produced by the driver itself —
// malformed or unknown-analyzer ignore directives — rather than by any one
// analyzer.
const driverName = "rcbrlint"

// ignoreDirective is one parsed //rcbrlint:ignore comment.
type ignoreDirective struct {
	analyzer string
	reason   string
}

// ignoreSet indexes directives by file and line.
type ignoreSet map[string]map[int]ignoreDirective

const ignorePrefix = "//rcbrlint:ignore"

// parseIgnoreDirective parses one comment as an //rcbrlint:ignore
// directive. match is false when the comment is not an ignore directive at
// all; err describes a directive that parses as one but is unusable — a
// mangled prefix, a missing analyzer name, or a missing reason.
func parseIgnoreDirective(text string) (dir ignoreDirective, match bool, err error) {
	if !strings.HasPrefix(text, ignorePrefix) {
		return ignoreDirective{}, false, nil
	}
	rest := strings.TrimPrefix(text, ignorePrefix)
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return ignoreDirective{}, true, errors.New("malformed //rcbrlint:ignore directive: separate the analyzer name with a space")
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return ignoreDirective{}, true, errors.New("//rcbrlint:ignore needs an analyzer name and a reason")
	}
	if len(fields) == 1 {
		return ignoreDirective{}, true, fmt.Errorf("//rcbrlint:ignore %s has no reason; explain the suppression for reviewers", fields[0])
	}
	return ignoreDirective{analyzer: fields[0], reason: strings.Join(fields[1:], " ")}, true, nil
}

// collectIgnores parses every //rcbrlint:ignore directive in the repo. A
// well-formed directive must name a known analyzer (or "all") and give a
// reason; anything else suppresses nothing and comes back as a driver
// diagnostic instead, so the lint run says what went wrong rather than
// silently surfacing the finding the directive meant to hide.
func collectIgnores(repo *Repo) (ignoreSet, []Diagnostic) {
	known := map[string]bool{"all": true}
	for _, a := range All() {
		known[a.Name] = true
	}
	set := make(ignoreSet)
	var bad []Diagnostic
	for _, pkg := range repo.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					dir, match, err := parseIgnoreDirective(c.Text)
					if !match {
						continue
					}
					pos := repo.Fset.Position(c.Pos())
					if err != nil {
						bad = append(bad, Diagnostic{Pos: pos, Analyzer: driverName, Message: err.Error()})
						continue
					}
					if !known[dir.analyzer] {
						bad = append(bad, Diagnostic{
							Pos:      pos,
							Analyzer: driverName,
							Message:  fmt.Sprintf("//rcbrlint:ignore names unknown analyzer %q", dir.analyzer),
						})
						continue
					}
					if set[pos.Filename] == nil {
						set[pos.Filename] = make(map[int]ignoreDirective)
					}
					set[pos.Filename][pos.Line] = dir
				}
			}
		}
	}
	return set, bad
}

// matches reports whether d is suppressed by a directive on its line or
// the line directly above it.
func (s ignoreSet) matches(d Diagnostic) bool {
	lines := s[d.Pos.Filename]
	if lines == nil {
		return false
	}
	for _, line := range [2]int{d.Pos.Line, d.Pos.Line - 1} {
		if dir, ok := lines[line]; ok && (dir.analyzer == d.Analyzer || dir.analyzer == "all") {
			return true
		}
	}
	return false
}
