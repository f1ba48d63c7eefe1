package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

func TestParseResultLine(t *testing.T) {
	r, ok := parseResult("BenchmarkFig2OPT-8   \t50\t  23456789 ns/op\t  1234 B/op\t   56 allocs/op")
	if !ok {
		t.Fatal("line rejected")
	}
	if r.Name != "BenchmarkFig2OPT" || r.Iterations != 50 ||
		r.NsPerOp != 23456789 || r.BytesPerOp != 1234 || r.AllocsPerOp != 56 {
		t.Fatalf("parsed %+v", r)
	}
	if _, ok := parseResult("BenchmarkBroken-8 not a result"); ok {
		t.Fatal("garbage accepted")
	}
}

// Custom b.ReportMetric units land in Extra, keyed by unit.
func TestParseResultExtraMetrics(t *testing.T) {
	r, ok := parseResult("BenchmarkChurnBytesPerVC-8 \t200000\t  331.1 ns/op\t  49.85 bytes/vc")
	if !ok {
		t.Fatal("line rejected")
	}
	if r.NsPerOp != 331.1 || r.Extra["bytes/vc"] != 49.85 {
		t.Fatalf("parsed %+v", r)
	}
	if r.BytesPerOp != 0 || r.AllocsPerOp != 0 {
		t.Fatalf("custom unit leaked into benchmem fields: %+v", r)
	}
	// Mixed with -benchmem output the standard fields still take their slots.
	r, ok = parseResult("BenchmarkX-8 10 5.0 ns/op 16 B/op 2 allocs/op 49.85 bytes/vc")
	if !ok || r.BytesPerOp != 16 || r.AllocsPerOp != 2 || r.Extra["bytes/vc"] != 49.85 {
		t.Fatalf("parsed %+v", r)
	}
}

func TestStripProcs(t *testing.T) {
	type stripped struct {
		name  string
		procs int
	}
	cases := map[string]stripped{
		"BenchmarkFig2OPT-8":              {"BenchmarkFig2OPT", 8},
		"BenchmarkTrellisLevels50-16":     {"BenchmarkTrellisLevels50", 16},
		"BenchmarkOptimizeParallel/p4-8":  {"BenchmarkOptimizeParallel/p4", 8},
		"BenchmarkNoSuffix":               {"BenchmarkNoSuffix", 1}, // what GOMAXPROCS=1 prints
		"BenchmarkTrellisLevels50":        {"BenchmarkTrellisLevels50", 1},
		"BenchmarkTrailingDash-":          {"BenchmarkTrailingDash-", 1},
		"BenchmarkOptimizeParallel/p4-x8": {"BenchmarkOptimizeParallel/p4-x8", 1},
		"BenchmarkSigned-+8":              {"BenchmarkSigned-+8", 1},
	}
	for in, want := range cases {
		if name, procs := stripProcs(in); name != want.name || procs != want.procs {
			t.Fatalf("stripProcs(%q) = %q, %d, want %q, %d", in, name, procs, want.name, want.procs)
		}
	}
}

func writeBaseline(t *testing.T, name string, results ...Result) string {
	t.Helper()
	data, err := json.Marshal(Baseline{Results: results})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// Timing is reported, never judged: new and gone benchmarks and a 2x
// slowdown are all listed and none of them fails the comparison.
func TestCompareBaselines(t *testing.T) {
	oldPath := writeBaseline(t, "old.json",
		Result{Name: "BenchmarkA", NsPerOp: 100},
		Result{Name: "BenchmarkB", NsPerOp: 100},
		Result{Name: "BenchmarkGone", NsPerOp: 100})
	newPath := writeBaseline(t, "new.json",
		Result{Name: "BenchmarkA", NsPerOp: 110},
		Result{Name: "BenchmarkB", NsPerOp: 200, AllocsPerOp: 7}, // not under the contract
		Result{Name: "BenchmarkNew", NsPerOp: 50})
	var buf strings.Builder
	allocBroken, err := compareBaselines(&buf, oldPath, newPath)
	if err != nil {
		t.Fatal(err)
	}
	if allocBroken {
		t.Error("a run with no contract benchmark in it broke the zero-alloc contract")
	}
	out := buf.String()
	for _, want := range []string{"BenchmarkA", "(+10.0%)", "BenchmarkB", "(+100.0%)", "no baseline", "not in new run"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "REGRESSED") {
		t.Errorf("report passes a verdict on timing:\n%s", out)
	}
}

func TestCompareBaselinesBadFile(t *testing.T) {
	good := writeBaseline(t, "good.json", Result{Name: "BenchmarkA", NsPerOp: 1})
	if _, err := compareBaselines(&strings.Builder{}, good, filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := compareBaselines(&strings.Builder{}, bad, good); err == nil {
		t.Error("malformed baseline accepted")
	}
}

// The gate splits on allocations alone: a run that slowed down threefold but
// still forwards without allocating passes, and a run that allocates fails
// at flat timing.
func TestCompareGateSplit(t *testing.T) {
	oldPath := writeBaseline(t, "old.json",
		Result{Name: "BenchmarkDataPathForward4Port1kVC", NsPerOp: 100})
	slowPath := writeBaseline(t, "slow.json",
		Result{Name: "BenchmarkDataPathForward4Port1kVC", NsPerOp: 300})
	if allocBroken, err := compareBaselines(&strings.Builder{}, oldPath, slowPath); err != nil || allocBroken {
		t.Errorf("3x slowdown with 0 allocs: allocBroken=%v err=%v, want a pass", allocBroken, err)
	}
	allocPath := writeBaseline(t, "alloc.json",
		Result{Name: "BenchmarkDataPathForward4Port1kVC", NsPerOp: 100, AllocsPerOp: 2})
	if allocBroken, err := compareBaselines(&strings.Builder{}, oldPath, allocPath); err != nil || !allocBroken {
		t.Errorf("2 allocs/op at flat timing: allocBroken=%v err=%v, want a failure", allocBroken, err)
	}
}

func TestParseFullOutput(t *testing.T) {
	const out = `goos: linux
goarch: amd64
pkg: rcbr
cpu: Fake CPU @ 2.00GHz
BenchmarkFig2OPT-8        	      50	  23456789 ns/op	    1234 B/op	      56 allocs/op
BenchmarkTrellisLevels5-8 	     100	  11111111 ns/op
PASS
ok  	rcbr	12.3s
`
	base, err := parse(bufio.NewScanner(strings.NewReader(out)))
	if err != nil {
		t.Fatal(err)
	}
	if base.GOOS != "linux" || base.GOARCH != "amd64" || base.Pkg != "rcbr" ||
		base.CPU != "Fake CPU @ 2.00GHz" {
		t.Fatalf("header %+v", base)
	}
	// The host fingerprint: GOMAXPROCS from the names' suffix, CPU count and
	// Go version from the recorder itself, all three in the file.
	if base.GOMAXPROCS != 8 || base.NumCPU != runtime.NumCPU() || base.GoVersion != runtime.Version() {
		t.Fatalf("host fingerprint %+v", base)
	}
	enc, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"num_cpu":`, `"gomaxprocs":8`, `"go_version":"go`} {
		if !strings.Contains(string(enc), key) {
			t.Errorf("encoded baseline lacks %s: %s", key, enc)
		}
	}
	if len(base.Results) != 2 {
		t.Fatalf("results = %d", len(base.Results))
	}
	if base.Results[1].Name != "BenchmarkTrellisLevels5" || base.Results[1].BytesPerOp != 0 {
		t.Fatalf("second result %+v", base.Results[1])
	}
	// A -cpu list ran at no one GOMAXPROCS: the field is left out, not set
	// to whichever line came last.
	mixed, err := parse(bufio.NewScanner(strings.NewReader("BenchmarkA 10 5.0 ns/op\nBenchmarkA-2 10 5.0 ns/op\nBenchmarkA-4 10 5.0 ns/op\n")))
	if err != nil || len(mixed.Results) != 3 || mixed.GOMAXPROCS != 0 {
		t.Fatalf("-cpu 1,2,4 output: %+v, %v; want 3 results and no gomaxprocs", mixed, err)
	}
}

// TestParseFoldsRepeatedRuns: `go test -count N` prints a benchmark's line N
// times, and the recorder reads the repetition off its input — one record a
// benchmark, the median with its quartiles and the run count; a benchmark
// run once is its line, with none of the three. The zero-alloc gate then
// sees the worst run, not the median one.
func TestParseFoldsRepeatedRuns(t *testing.T) {
	const out = `BenchmarkOnce-2 	100	 40.0 ns/op	 8 B/op	 1 allocs/op
BenchmarkDataPathTwice-2 	100	 30.0 ns/op	 0 B/op	 0 allocs/op
BenchmarkFive-2 	100	 50.0 ns/op	 7.0 bytes/vc
BenchmarkFive-2 	101	 10.0 ns/op	 1.0 bytes/vc
BenchmarkDataPathTwice-2 	200	 10.0 ns/op	 16 B/op	 1 allocs/op
BenchmarkFive-2 	102	 40.0 ns/op	 4.0 bytes/vc
BenchmarkFive-2 	103	 20.0 ns/op	 2.0 bytes/vc
BenchmarkFive-2 	104	 30.0 ns/op	 3.0 bytes/vc
`
	base, err := parse(bufio.NewScanner(strings.NewReader(out)))
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Results) != 3 || base.GOMAXPROCS != 2 {
		t.Fatalf("%d records at gomaxprocs %d, want 3 (one a benchmark, in order of first appearance) at 2: %+v",
			len(base.Results), base.GOMAXPROCS, base.Results)
	}
	once, twice, five := base.Results[0], base.Results[1], base.Results[2]
	if want, _ := parseResult(out[:strings.IndexByte(out, '\n')]); !reflect.DeepEqual(once, want) || once.Runs != 0 {
		t.Errorf("one line: %+v, want the line as parsed: %+v", once, want)
	}
	if enc, _ := json.Marshal(once); strings.Contains(string(enc), "runs") || strings.Contains(string(enc), "q1") {
		t.Errorf("a single run encodes spread fields: %s", enc)
	}
	// Two lines: the median is their mean, the quartiles a quarter in from
	// each, and the one allocating run is the allocs/op on record.
	if twice.Name != "BenchmarkDataPathTwice" || twice.Runs != 2 || twice.NsPerOp != 20 || twice.Q1 != 15 || twice.Q3 != 25 || twice.AllocsPerOp != 1 {
		t.Errorf("two lines: %+v, want median 20 in [15, 25] over 2 runs, 1 allocs/op", twice)
	}
	// Five lines: the order statistics themselves, and the rest of the
	// record is the median run's.
	if five.Runs != 5 || five.NsPerOp != 30 || five.Q1 != 20 || five.Q3 != 40 || five.Iterations != 104 || five.Extra["bytes/vc"] != 3 {
		t.Errorf("five lines: %+v, want median 30 in [20, 40] over 5 runs, from the 104-iteration run", five)
	}

	path := writeBaseline(t, "new.json", base.Results...)
	var buf strings.Builder
	if allocBroken, err := compareBaselines(&buf, path, path); err != nil || !allocBroken {
		t.Errorf("a zero-alloc benchmark that allocated in one run of two passed the gate (%v):\n%s", err, buf.String())
	}
}

// The zero-alloc families fail -compare on any allocation, and the gate
// covers benchmarks with no baseline too.
func TestCompareZeroAllocContract(t *testing.T) {
	oldPath := writeBaseline(t, "old.json",
		Result{Name: "BenchmarkDataPathForward4Port1kVC", NsPerOp: 100},
		Result{Name: "BenchmarkFig2OPT", NsPerOp: 100, AllocsPerOp: 5000})
	newPath := writeBaseline(t, "new.json",
		Result{Name: "BenchmarkDataPathForward4Port1kVC", NsPerOp: 100, AllocsPerOp: 1},
		Result{Name: "BenchmarkFig2OPT", NsPerOp: 100, AllocsPerOp: 9000})
	var buf strings.Builder
	allocBroken, err := compareBaselines(&buf, oldPath, newPath)
	if err != nil {
		t.Fatal(err)
	}
	if !allocBroken {
		t.Errorf("1 alloc/op on a zero-alloc bench not flagged:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "ALLOCS") {
		t.Errorf("report missing ALLOCS verdict:\n%s", buf.String())
	}

	// Clean hot paths pass; non-contract benchmarks may allocate freely.
	cleanPath := writeBaseline(t, "clean.json",
		Result{Name: "BenchmarkDataPathForward4Port1kVC", NsPerOp: 100},
		Result{Name: "BenchmarkFabricCellParse", NsPerOp: 10}, // new, no baseline
		Result{Name: "BenchmarkFig2OPT", NsPerOp: 100, AllocsPerOp: 9000})
	if allocBroken, err = compareBaselines(&strings.Builder{}, oldPath, cleanPath); err != nil || allocBroken {
		t.Errorf("clean zero-alloc run failed the gate: allocBroken=%v err=%v", allocBroken, err)
	}
}

// A gated benchmark that vanishes from the new run breaks the contract: a
// renamed or deleted hot-path benchmark would otherwise take its gate with
// it. An ungated one going is only listed.
func TestCompareGatedBenchmarkGone(t *testing.T) {
	oldPath := writeBaseline(t, "old.json",
		Result{Name: "BenchmarkSwitchHandleRM", NsPerOp: 30},
		Result{Name: "BenchmarkFig2OPT", NsPerOp: 100, AllocsPerOp: 5000})
	var buf strings.Builder
	if broken, err := compareBaselines(&buf, oldPath, writeBaseline(t, "new.json",
		Result{Name: "BenchmarkFig2OPT", NsPerOp: 100, AllocsPerOp: 5000})); err != nil || !broken {
		t.Errorf("gated benchmark missing from the new run passed: broken=%v err=%v\n%s", broken, err, buf.String())
	}
	if !strings.Contains(buf.String(), "GONE") {
		t.Errorf("report does not name the missing gated benchmark:\n%s", buf.String())
	}
	if broken, err := compareBaselines(&strings.Builder{}, oldPath, writeBaseline(t, "ungated.json",
		Result{Name: "BenchmarkSwitchHandleRM", NsPerOp: 30})); err != nil || broken {
		t.Errorf("ungated benchmark missing from the new run failed: broken=%v err=%v", broken, err)
	}
}

func TestZeroAllocContractNames(t *testing.T) {
	for name, want := range map[string]bool{
		"BenchmarkDataPathForward8Port100kVC": true,
		"BenchmarkFabricCellAppend":           true,
		"BenchmarkRenegotiateMemoryAdmit":     true,
		"BenchmarkRMCellRoundTrip":            true,
		"BenchmarkFabricRM64k":                true,
		"BenchmarkSwitchHandleRM":             true,
		"BenchmarkRingPerCell64":              true,
		"BenchmarkRingBurst64":                true,
		"BenchmarkAdmitDecisionMemoryLive":    true,
		"BenchmarkSetupChurnMemoryAdmit":      false,
		"BenchmarkSetupChurnWired":            false,
		"BenchmarkChurnBytesPerVC":            false,
		"BenchmarkFig2OPT":                    false,
	} {
		if got := zeroAllocContract(name); got != want {
			t.Errorf("zeroAllocContract(%q) = %v, want %v", name, got, want)
		}
	}
}

// TestTrackedBaselineHasNoSmokeCaptures holds the tracked baseline to the
// benchtime it is recorded at (`make bench-json BENCHTIME=2s`): a one-
// iteration entry is a -benchtime=1x smoke capture — cold caches, no
// averaging — unless the operation itself takes over a second, as the
// RCBR_FULL_BENCH full-trace runs do.
func TestTrackedBaselineHasNoSmokeCaptures(t *testing.T) {
	base, err := readBaseline("../../BENCH_trellis.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Results) == 0 {
		t.Fatal("BENCH_trellis.json tracks no benchmark")
	}
	for _, r := range base.Results {
		if r.Iterations == 1 && r.NsPerOp < 1e9 {
			t.Errorf("%s: iterations 1 at %.0f ns/op is a smoke capture; re-record with `make bench-json BENCHTIME=2s`",
				r.Name, r.NsPerOp)
		}
	}
}
