// Command bench is the repository's benchmark: it measures the live RCBR
// switch end to end and layer by layer, through public functions only, on
// four workloads (README.md). BENCHMARK.json at the repository root is its
// contract; bench/run.sh builds and runs it:
//
//	bash bench/run.sh --workload cells-hot --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh --all --trace 1        # every workload, per-layer
//	bash bench/run.sh --selfcheck            # two full sets, compared
//
// One invocation is one process. The last line of standard output is one
// JSON object: correct, attempted, failed and the metrics of the chosen
// table. A broken invariant is named on standard error and the exit
// status is 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
	"time"
)

// benchmarkFile is the contract, read from the working directory (the
// repository root under run.sh).
const benchmarkFile = "BENCHMARK.json"

// heldOutSeed was not used while the benchmark or its bounds were built;
// a later change that claims a gain must also hold on it.
const heldOutSeed = 7919

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r runResult) line() resultLine {
	out := resultLine{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metricValue)}
	for _, d := range r.metrics.defs {
		out.Metrics[d.Name] = metricValue{Value: r.metrics.values[d.Name], Unit: d.Unit}
	}
	return out
}

// printTable writes every metric by name with its unit and, for timings,
// the sample count behind it.
func (r runResult) printTable(w io.Writer) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "%s (seed %d)\tvalue\tunit\tsamples\n", r.manifest.Workload, r.manifest.Seed)
	for _, d := range r.metrics.defs {
		samples := ""
		if n, ok := r.metrics.samples[d.Name]; ok {
			samples = fmt.Sprint(n)
			if p, ok := r.metrics.percentiles[d.Name]; ok {
				samples += fmt.Sprintf(" (p%g)", p)
			}
		}
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t%s\n", d.Name, r.metrics.values[d.Name], d.Unit, samples)
	}
	_ = tw.Flush() // diagnostics to the terminal
}

// complain names every broken invariant and counts the unpredicted
// outcomes of an incorrect run.
func (r runResult) complain(w io.Writer) {
	for _, v := range r.violations {
		fmt.Fprintf(w, "bench: %s: broken invariant: %s\n", r.manifest.Workload, v)
	}
	if r.failed != 0 {
		fmt.Fprintf(w, "bench: %s: %d of %d operations had an outcome the generator did not predict\n",
			r.manifest.Workload, r.failed, r.attempted)
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: cells-hot, cells-churn, signal-rtt or loop-3hop")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 15, "length of the measured pass; warm-up and traced passes scale with it")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced pass")
	all := fs.Bool("all", false, "run every workload in turn")
	selfcheck := fs.Bool("selfcheck", false, "run two full sets and compare them against the bounds of "+benchmarkFile)
	outDir := fs.String("out", "bench/out", "directory for trace-<workload>.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: -seconds must be at least 1 and -trace 0 or 1")
		return 2
	}
	if _, err := os.Stat(benchmarkFile); err != nil {
		fmt.Fprintf(stderr, "bench: run from the repository root: %v\n", err)
		return 2
	}
	cfg := runConfig{
		seed:    *seed,
		measure: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		sc:      fullScale,
		outDir:  *outDir,
		log:     stdout,
	}
	switch {
	case *selfcheck:
		return runSelfcheck(cfg, stdout, stderr)
	case *all:
		status := 0
		for _, w := range workloads {
			if s := runOne(w, cfg, stdout, stderr); s != 0 {
				status = s
			}
		}
		return status
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	return runOne(w, cfg, stdout, stderr)
}

// runOne runs one workload and prints its manifest, its table and, last,
// the result line.
func runOne(w workload, cfg runConfig, stdout, stderr io.Writer) int {
	res, err := runWorkload(w, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	res.printTable(stdout)
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(struct {
		Manifest manifest `json:"manifest"`
	}{res.manifest}); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	res.complain(stderr)
	if err := enc.Encode(res.line()); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if !res.correct() {
		return 1
	}
	return 0
}

// benchmarkSpec is the part of BENCHMARK.json the driver reads.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (benchmarkSpec, error) {
	var spec benchmarkSpec
	raw, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	err = json.Unmarshal(raw, &spec)
	return spec, err
}

// worseBy returns by what share of first the second value is worse, given
// which direction is better; negative when it is better.
func worseBy(better string, first, second float64) float64 {
	if better == "higher" {
		return (first - second) / first
	}
	return (second - first) / first
}

// runSelfcheck measures every workload twice on the same code and holds
// the two sets against the benchmark's own bounds: a benchmark whose
// repeat runs differ by more than a bound cannot judge a change by it.
func runSelfcheck(cfg runConfig, stdout, stderr io.Writer) int {
	spec, err := readSpec(benchmarkFile)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	cfg.trace = false
	cfg.log = io.Discard
	var sets [2]map[string]runResult
	for i := range sets {
		sets[i] = make(map[string]runResult)
		for _, w := range workloads {
			res, err := runWorkload(w, cfg)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return 1
			}
			res.complain(stderr)
			if !res.correct() {
				return 1
			}
			sets[i][w.name] = res
		}
	}
	status := 0
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tfirst\tsecond\tworse by\tbound\t")
	for _, w := range workloads {
		for _, sm := range spec.EndToEnd {
			a := sets[0][w.name].metrics.values[sm.Name]
			b := sets[1][w.name].metrics.values[sm.Name]
			worse := worseBy(sm.Better, a, b)
			verdict := ""
			if worse > sm.Bound || -worse > sm.Bound {
				verdict = "EXCEEDS"
				status = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%.0f%%\t%s\n", w.name, sm.Name, a, b, 100*worse, 100*sm.Bound, verdict)
		}
	}
	_ = tw.Flush() // diagnostics to the terminal
	fmt.Fprintf(stdout, "held-out seed, not used while the benchmark was built: %d\n", heldOutSeed)
	return status
}
