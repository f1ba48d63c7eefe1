package rcbr

import (
	"os"
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
