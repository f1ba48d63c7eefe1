package rcbr

import (
	"os"
	"slices"
	"sort"
	"strings"
	"testing"
)

// TestMakefileRaceParallelSync asserts that the package list the
// race-parallel recipe actually races is exactly RACE_PARALLEL_PKGS. The
// recipe needs one explicit line per package (each carries its own -run
// filter), so nothing structural stops the variable and the recipe from
// drifting apart — except this test. It also checks the two raced lists
// overlap only where intended: a package in both RACE_PKGS and
// RACE_PARALLEL_PKGS gets its full suite raced plus a filtered pass, which
// is deliberate for switchfab, so the assertion here is set equality for
// race-parallel, not disjointness.
func TestMakefileRaceParallelSync(t *testing.T) {
	src, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatalf("reading Makefile: %v", err)
	}
	declared := makefileVar(t, string(src), "RACE_PARALLEL_PKGS")
	if len(declared) == 0 {
		t.Fatal("RACE_PARALLEL_PKGS is empty or missing")
	}
	recipe := recipePackages(t, string(src), "race-parallel")
	if len(recipe) == 0 {
		t.Fatal("race-parallel recipe races no packages")
	}
	sort.Strings(declared)
	sort.Strings(recipe)
	if strings.Join(declared, " ") != strings.Join(recipe, " ") {
		t.Errorf("RACE_PARALLEL_PKGS and the race-parallel recipe disagree:\n  variable: %v\n  recipe:   %v",
			declared, recipe)
	}
	// The datapath line is the one that races the cell path's lock-free
	// parts with goroutines that truly interleave; each of these names a
	// family of tests that line must keep reaching.
	var datapathLine string
	for _, line := range recipeLines(t, string(src), "race-parallel") {
		if strings.Contains(line, "./internal/datapath/") {
			datapathLine = line
		}
	}
	if !strings.HasPrefix(datapathLine, "GOMAXPROCS=4 ") {
		t.Errorf("race-parallel datapath line does not pin GOMAXPROCS=4: %q", datapathLine)
	}
	_, pattern, _ := strings.Cut(datapathLine, "-run '")
	pattern, _, _ = strings.Cut(pattern, "'")
	have := strings.Split(pattern, "|")
	for _, want := range []string{"Conservation", "Run", "Table", "Ring", "Burst", "CrossGroup", "StagedSweep", "VCEntry"} {
		if !slices.Contains(have, want) {
			t.Errorf("race-parallel datapath -run pattern %q lacks %q", pattern, want)
		}
	}
}

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

// makefileVar returns the whitespace-separated values of a simple `NAME :=`
// Makefile assignment.
func makefileVar(t *testing.T, src, name string) []string {
	t.Helper()
	for _, line := range strings.Split(src, "\n") {
		rest, ok := strings.CutPrefix(line, name+" :=")
		if !ok {
			continue
		}
		return strings.Fields(rest)
	}
	t.Fatalf("no %s := assignment in Makefile", name)
	return nil
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

// recipePackages collects the unique ./-prefixed package arguments from the
// recipe lines of the named Makefile target.
func recipePackages(t *testing.T, src, target string) []string {
	t.Helper()
	seen := make(map[string]bool)
	var pkgs []string
	for _, line := range recipeLines(t, src, target) {
		for _, f := range strings.Fields(line) {
			if strings.HasPrefix(f, "./") && !seen[f] {
				seen[f] = true
				pkgs = append(pkgs, f)
			}
		}
	}
	return pkgs
}
