// Command benchjson converts `go test -bench` output on stdin into a JSON
// benchmark baseline. It is the recorder behind `make bench-json`:
//
//	go test -run '^$' -bench . -benchmem . | benchjson -o BENCH_trellis.json
//
// Each "Benchmark..." result line becomes one record with ns/op and, when
// -benchmem is on, B/op and allocs/op. A benchmark that was run more than
// once (`go test -count N` repeats its line) becomes one record all the
// same: the median ns/op, the quartiles beside it and the number of runs,
// so a baseline carries its own spread. The goos/goarch/pkg/cpu header lines
// are captured, and beside them the CPU count, the GOMAXPROCS the benchmarks
// ran at and the Go version, so a baseline records the machine and toolchain
// it was measured on. Each record also keeps the cpu line it ran under, so
// an entry later merged by hand from another run still names its host. Lines that are not benchmark results (test chatter,
// PASS/ok) pass through to stdout untouched, so the command can sit at the
// end of a pipe without hiding failures.
//
// With -compare it instead checks a new run against the zero-alloc contract:
//
//	benchjson -compare BENCH_trellis.json BENCH_new.json
//
// Benchmarks under the contract (the hot-path families: cell codec, RM
// handling, rings, forwarder, and admission and renegotiation under the
// MBAC) must report exactly 0 allocs/op in the new run, and each one in the
// baseline must be in the new run; either breach exits non-zero. allocs/op
// is deterministic, so this gate is required in CI. The ns/op of every
// benchmark is printed beside its baseline figure, and benchmarks present in
// only one file are listed, for the reader: timing at a smoke benchtime on a
// shared runner is no verdict, so none is given (bench/ and BENCHMARK.json
// judge time, on paired runs).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark measurement. Custom metrics reported via
// b.ReportMetric (any unit other than ns/op, B/op, allocs/op — e.g. the
// churn benchmarks' "bytes/vc") are recorded under Extra keyed by unit.
//
// A benchmark run once is its line. One run N > 1 times is folded (see
// fold): NsPerOp is the median of the runs with Q1 and Q3 its quartiles and
// Runs their number, AllocsPerOp the largest any run reported, and the rest
// is the median run's. CPU is the `cpu:` header line the benchmark ran
// under; -compare ignores it.
type Result struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	Q1          float64            `json:"q1,omitempty"`
	Q3          float64            `json:"q3,omitempty"`
	Runs        int                `json:"runs,omitempty"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Extra       map[string]float64 `json:"extra,omitempty"`
	CPU         string             `json:"cpu,omitempty"`
}

// Baseline is the file format of BENCH_trellis.json. NumCPU and GoVersion
// are this process's own — the recorder runs at the end of the pipe, on the
// host and toolchain that ran the benchmarks — and GOMAXPROCS is the -N
// suffix `go test` put on the benchmark names (none means 1), left out when
// the names do not agree on one.
type Baseline struct {
	GOOS       string   `json:"goos,omitempty"`
	GOARCH     string   `json:"goarch,omitempty"`
	Pkg        string   `json:"pkg,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	NumCPU     int      `json:"num_cpu,omitempty"`
	GOMAXPROCS int      `json:"gomaxprocs,omitempty"`
	GoVersion  string   `json:"go_version,omitempty"`
	Results    []Result `json:"results"`
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	compare := flag.Bool("compare", false, "check a new baseline file against the zero-alloc contract instead of recording")
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -compare needs exactly two baseline files")
			os.Exit(2)
		}
		broken, err := compareBaselines(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		if broken {
			os.Exit(1)
		}
		return
	}
	base, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(base.Results) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark results on stdin")
		os.Exit(1)
	}
	enc, err := json.MarshalIndent(base, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// zeroAllocPrefixes names the benchmark families that run the zero-allocation
// hot paths — the cell and RM codecs, the switch's RM handling, the rings,
// the forwarder, and admission and renegotiation under the MBAC: they must
// report exactly 0 allocs/op, and -compare fails them on any nonzero count or
// on going missing. A recorded 0 is indistinguishable from "not measured with
// -benchmem" in the JSON (both marshal away), so the gate keys on the name
// contract, not the baseline value.
var zeroAllocPrefixes = []string{
	"BenchmarkDataPath", "BenchmarkFabricCell", "BenchmarkRenegotiateMemoryAdmit",
	"BenchmarkRMCellRoundTrip", "BenchmarkFabricRM", "BenchmarkSwitchHandleRM",
	"BenchmarkRing", "BenchmarkAdmitDecisionMemoryLive",
}

// zeroAllocContract reports whether name is under the zero-alloc gate.
func zeroAllocContract(name string) bool {
	for _, p := range zeroAllocPrefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// compareBaselines prints the new run's ns/op beside the old baseline's and
// reports whether the zero-alloc contract broke — a benchmark under it
// allocated in the new run, or one in the baseline is missing from it —
// which is the one thing -compare fails on.
func compareBaselines(w io.Writer, oldPath, newPath string) (broken bool, err error) {
	oldBase, err := readBaseline(oldPath)
	if err != nil {
		return false, err
	}
	newBase, err := readBaseline(newPath)
	if err != nil {
		return false, err
	}
	oldByName := make(map[string]Result, len(oldBase.Results))
	for _, r := range oldBase.Results {
		oldByName[r.Name] = r
	}
	seen := make(map[string]bool, len(newBase.Results))
	for _, nr := range newBase.Results {
		seen[nr.Name] = true
		if zeroAllocContract(nr.Name) && nr.AllocsPerOp > 0 {
			// The alloc gate applies even to benchmarks with no baseline
			// entry: a brand-new hot-path bench must arrive clean.
			fmt.Fprintf(w, "ALLOCS %-40s %12.0f allocs/op (zero-alloc contract)\n",
				nr.Name, nr.AllocsPerOp)
			broken = true
		}
		or, ok := oldByName[nr.Name]
		if !ok {
			fmt.Fprintf(w, "new    %-40s %12.1f ns/op (no baseline)\n", nr.Name, nr.NsPerOp)
			continue
		}
		if or.NsPerOp <= 0 {
			continue
		}
		fmt.Fprintf(w, "       %-40s %12.1f -> %12.1f ns/op (%+.1f%%)\n",
			nr.Name, or.NsPerOp, nr.NsPerOp, (nr.NsPerOp-or.NsPerOp)/or.NsPerOp*100)
	}
	for _, or := range oldBase.Results {
		switch {
		case seen[or.Name]:
		case zeroAllocContract(or.Name):
			fmt.Fprintf(w, "GONE   %-40s %12.1f ns/op (zero-alloc contract, not in new run)\n", or.Name, or.NsPerOp)
			broken = true
		default:
			fmt.Fprintf(w, "gone   %-40s %12.1f ns/op (not in new run)\n", or.Name, or.NsPerOp)
		}
	}
	if broken {
		fmt.Fprintln(w, "benchjson: broken zero-alloc contract")
	}
	return broken, nil
}

func readBaseline(path string) (Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Baseline{}, err
	}
	var base Baseline
	if err := json.Unmarshal(data, &base); err != nil {
		return Baseline{}, fmt.Errorf("%s: %w", path, err)
	}
	return base, nil
}

func parse(sc *bufio.Scanner) (Baseline, error) {
	base := Baseline{NumCPU: runtime.NumCPU(), GoVersion: runtime.Version()}
	// runs holds every line of one benchmark, in order of first appearance
	// and keyed by the name as printed: under a -cpu list one benchmark at
	// two GOMAXPROCS is two records, as it always was.
	var runs [][]Result
	byLine := make(map[string]int)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			base.GOOS = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			base.GOARCH = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "pkg: "):
			base.Pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "cpu: "):
			base.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "Benchmark"):
			r, ok := parseResult(line)
			if !ok {
				fmt.Println(line)
				continue
			}
			r.CPU = base.CPU
			printed := strings.Fields(line)[0]
			if _, procs := stripProcs(printed); len(runs) == 0 {
				base.GOMAXPROCS = procs
			} else if procs != base.GOMAXPROCS {
				base.GOMAXPROCS = 0 // a -cpu list: no one value, so none is recorded
			}
			i, seen := byLine[printed]
			if !seen {
				i = len(runs)
				byLine[printed] = i
				runs = append(runs, nil)
			}
			runs[i] = append(runs[i], r)
		default:
			if line != "" {
				fmt.Println(line)
			}
		}
	}
	for _, rs := range runs {
		base.Results = append(base.Results, fold(rs))
	}
	return base, sc.Err()
}

// fold makes one record of the runs of one benchmark. A single run is
// returned as it is. Several are sorted by ns/op: the record is the median
// run's, with NsPerOp the median proper (the mean of the middle two when
// the count is even), Q1 and Q3 the quartiles by linear interpolation, and
// AllocsPerOp the largest of the runs — the zero-alloc gate must not pass
// on a run that happened to be clean.
func fold(runs []Result) Result {
	if len(runs) == 1 {
		return runs[0]
	}
	sort.SliceStable(runs, func(i, j int) bool { return runs[i].NsPerOp < runs[j].NsPerOp })
	quantile := func(p float64) float64 {
		at := p * float64(len(runs)-1)
		lo := int(at)
		hi := min(lo+1, len(runs)-1)
		return runs[lo].NsPerOp + (at-float64(lo))*(runs[hi].NsPerOp-runs[lo].NsPerOp)
	}
	r := runs[len(runs)/2]
	r.NsPerOp, r.Q1, r.Q3, r.Runs = quantile(0.5), quantile(0.25), quantile(0.75), len(runs)
	for _, run := range runs {
		r.AllocsPerOp = max(r.AllocsPerOp, run.AllocsPerOp)
	}
	return r
}

// parseResult decodes one result line, e.g.
//
//	BenchmarkFig2OPT-8   50   23456789 ns/op   1234 B/op   56 allocs/op
func parseResult(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || fields[3] != "ns/op" {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	ns, err := strconv.ParseFloat(fields[2], 64)
	if err != nil {
		return Result{}, false
	}
	name, _ := stripProcs(fields[0])
	r := Result{
		Name:       name,
		Iterations: iters,
		NsPerOp:    ns,
	}
	for i := 4; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch unit := fields[i+1]; unit {
		case "B/op":
			r.BytesPerOp = v
		case "allocs/op":
			r.AllocsPerOp = v
		default:
			if r.Extra == nil {
				r.Extra = make(map[string]float64)
			}
			r.Extra[unit] = v
		}
	}
	return r, true
}

// stripProcs splits off the trailing -GOMAXPROCS that `go test` appends to
// benchmark names (only a final all-digit dash group — a "Levels50" in the
// name itself survives), so baselines diff cleanly across machines with
// different core counts and the header can say which count it was. `go
// test` appends nothing at GOMAXPROCS 1.
func stripProcs(name string) (string, int) {
	i := strings.LastIndexByte(name, '-')
	if i < 0 || strings.TrimLeft(name[i+1:], "0123456789") != "" {
		return name, 1
	}
	procs, err := strconv.Atoi(name[i+1:])
	if err != nil { // a trailing dash, or digits past an int
		return name, 1
	}
	return name[:i], procs
}
