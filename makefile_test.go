package rcbr

import (
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestMakefileBenchCheck pins the bench-check target: the nested benchmark
// module is built, vetted and tested from its own directory, and CI runs
// the target, so an internal/ change that breaks bench/ fails CI rather
// than the benchmark pipeline.
func TestMakefileBenchCheck(t *testing.T) {
	src, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatalf("reading Makefile: %v", err)
	}
	want := []string{
		"$(GO) -C bench build ./...",
		"$(GO) -C bench vet ./...",
		"$(GO) -C bench test ./...",
	}
	got := recipeLines(t, string(src), "bench-check")
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("bench-check recipe:\n  got:  %q\n  want: %q", got, want)
	}
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatalf("reading ci.yml: %v", err)
	}
	if !strings.Contains(string(ci), "run: make bench-check\n") {
		t.Error("ci.yml does not run `make bench-check`")
	}
	// The tracked baseline is re-recorded by hand at a real benchtime; CI
	// holds its smoke run to the zero-alloc contract and writes nothing back.
	if !strings.Contains(string(ci), "run: go run ./cmd/benchjson -compare BENCH_trellis.json BENCH_new.json\n") {
		t.Error("ci.yml does not run the zero-alloc contract gate")
	}
	if strings.Contains(string(ci), "cp BENCH_new.json") {
		t.Error("ci.yml overwrites the tracked baseline with its smoke run")
	}
}

// TestMakefileLoc pins the loc target: the total counts every non-test Go
// file but bench/'s, testdata's and dot-directories' (the benchmark's build
// directory), and the breakdown walks internal/ and cmd/, so the figure a
// simplicity change quotes is the one anyone gets by running it.
func TestMakefileLoc(t *testing.T) {
	src, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatalf("reading Makefile: %v", err)
	}
	want := []string{
		`@find . -name '*.go' ! -name '*_test.go' ! -path './.*' ! -path './bench/*' ! -path '*/testdata/*' -exec cat {} + | wc -l | xargs printf '%6d total\n'`,
		`@for d in internal/* cmd/*; do find $$d -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -exec cat {} + | wc -l | xargs printf "%6d $$d\n"; done`,
	}
	got := recipeLines(t, string(src), "loc")
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("loc recipe:\n  got:  %q\n  want: %q", got, want)
	}
}

// TestMakefileResults pins the results target to the tracked outputs:
// every file under results/ is written by exactly one recipe line, no line
// writes a file that is not tracked there, and CI runs the target and fails
// on any difference, so a change that moves a figure has to say so.
func TestMakefileResults(t *testing.T) {
	src, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatalf("reading Makefile: %v", err)
	}
	writers := map[string]int{}
	for _, line := range recipeLines(t, string(src), "results") {
		cmd, file, ok := strings.Cut(line, " > results/")
		if !ok || !strings.HasPrefix(cmd, "$(GO) run ./cmd/rcbrsim ") {
			t.Errorf("results recipe line %q is not `$(GO) run ./cmd/rcbrsim <cmd> > results/<file>`", line)
			continue
		}
		writers[file]++
	}
	files, err := os.ReadDir("results")
	if err != nil {
		t.Fatalf("reading results/: %v", err)
	}
	for _, f := range files {
		if n := writers[f.Name()]; n != 1 {
			t.Errorf("results/%s is written by %d recipe lines, want 1", f.Name(), n)
		}
		delete(writers, f.Name())
	}
	for file := range writers {
		t.Errorf("results recipe writes results/%s, which is not tracked", file)
	}
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatalf("reading ci.yml: %v", err)
	}
	if !strings.Contains(string(ci), "make results\n          git diff --exit-code results/\n") {
		t.Error("ci.yml does not run `make results` then `git diff --exit-code results/`")
	}
}

// TestMakefileAllCoversCI pins `make all` to the required CI steps: every
// `make <target>` ci.yml runs is a prerequisite of all, and all's recipe
// holds the two steps CI runs without make — the results diff and the
// zero-alloc gate — with its smoke run written beside the tracked baseline.
func TestMakefileAllCoversCI(t *testing.T) {
	src, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatalf("reading Makefile: %v", err)
	}
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatalf("reading ci.yml: %v", err)
	}
	var prereqs []string
	for _, line := range strings.Split(string(src), "\n") {
		if rest, ok := strings.CutPrefix(line, "all:"); ok && !strings.Contains(rest, "=") {
			prereqs = strings.Fields(rest)
		}
	}
	runs := regexp.MustCompile(`(?m)^\s*(?:run:\s*)?make\s+([\w-]+)`).FindAllStringSubmatch(string(ci), -1)
	if len(runs) == 0 {
		t.Fatal("ci.yml runs no make target")
	}
	for _, m := range runs {
		if !slices.Contains(prereqs, m[1]) {
			t.Errorf("ci.yml runs `make %s`, which is not a prerequisite of all (%v)", m[1], prereqs)
		}
	}
	recipe := recipeLines(t, string(src), "all")
	for _, want := range []string{
		"git diff --exit-code results/",
		"$(GO) run ./cmd/benchjson -compare BENCH_trellis.json BENCH_new.json",
	} {
		if !slices.Contains(recipe, want) {
			t.Errorf("all recipe %q lacks %q", recipe, want)
		}
	}
	if !strings.Contains(string(src), "\nall: BENCHJSON = BENCH_new.json\n") {
		t.Error("all does not write its benchmark run to BENCH_new.json")
	}
}

// TestMakefileFuzzCoversTargets holds the fuzz recipe one-to-one with the
// module's fuzz targets. `go test -fuzz` passes when its pattern matches no
// target, so a line left behind by a deleted target would fuzz nothing
// without failing, and a target added without a line would never be fuzzed.
func TestMakefileFuzzCoversTargets(t *testing.T) {
	src, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatalf("reading Makefile: %v", err)
	}
	fuzzLine := regexp.MustCompile(`^\$\(GO\) test -run '\^\$\$' -fuzz '\^(Fuzz\w+)\$\$' -fuzztime \$\(FUZZTIME\) \./(\S+)/$`)
	lines := map[string]int{}
	for _, line := range recipeLines(t, string(src), "fuzz") {
		m := fuzzLine.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("fuzz recipe line %q is not `$(GO) test -run '^$$' -fuzz '^Fuzz<Name>$$' -fuzztime $(FUZZTIME) ./<dir>/`", line)
			continue
		}
		lines[m[2]+"."+m[1]]++
	}
	fset := token.NewFileSet()
	for _, f := range goFiles(t, fset, true) {
		path := filepath.ToSlash(fset.Position(f.Pos()).Filename)
		// bench/ is a module of its own, out of reach of the root's `go test`.
		if !strings.HasSuffix(path, "_test.go") || strings.HasPrefix(path, "bench/") {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || !strings.HasPrefix(fn.Name.Name, "Fuzz") {
				continue
			}
			target := filepath.ToSlash(filepath.Dir(path)) + "." + fn.Name.Name
			if n := lines[target]; n != 1 {
				t.Errorf("fuzz target %s has %d fuzz recipe lines, want 1", target, n)
			}
			delete(lines, target)
		}
	}
	for target := range lines {
		t.Errorf("fuzz recipe fuzzes %s, which is not a fuzz target", target)
	}
}

// recipeLines returns the recipe of the named Makefile target, one trimmed
// command per line.
func recipeLines(t *testing.T, src, target string) []string {
	t.Helper()
	lines := strings.Split(src, "\n")
	for i, line := range lines {
		if !strings.HasPrefix(line, target+":") {
			continue
		}
		var recipe []string
		for _, line := range lines[i+1:] {
			if !strings.HasPrefix(line, "\t") {
				break
			}
			recipe = append(recipe, strings.TrimSpace(line))
		}
		return recipe
	}
	t.Fatalf("no %s target in Makefile", target)
	return nil
}
