package main

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// passStats is what one timed pass over a built system yields.
type passStats struct {
	rate      throughput // work per second
	lat       []int64    // nanoseconds per primary operation, one sample each
	rootNs    []int64    // nanoseconds per span-free iteration of the driver's loop (cycle, frame)
	attempted int64      // operations whose outcome the generator predicted
	failed    int64      // outcomes that differed from the prediction
	gcPause   time.Duration
}

// system is one workload's switch, built and loaded, behind the four
// things the runner does with it.
type system interface {
	// vcs is the number of established VCs the heap figure is divided by.
	vcs() int
	// pass drives the workload for about d (fixed-work workloads convert d
	// to work with a frozen constant). tr is nil on untraced passes.
	pass(d time.Duration, tr *traceSet) passStats
	// layer adds the workload-derived per-layer metrics of a traced pass
	// and returns its budget tables; ref is the untraced pass before it.
	layer(ref, traced passStats, spans []span, m *metricSet) []budget
	// finish drains, checks every invariant, tears every VC down and
	// checks the books are exactly empty. It returns the broken invariants
	// by name and releases sockets and goroutines.
	finish() []string
}

// workload is one entry of BENCHMARK.json's workloads.
type workload struct {
	name string
	why  string
	// build generates the workload's inputs from the seed, calls
	// inputsDone, then builds and loads the switch.
	build func(seed uint64, sc scale, inputsDone func()) (system, error)
}

var workloads = []workload{
	{"cells-hot", "bare forwarding of 53 B cells over 1,024 VCs: cell, shaper and datapath do all the work, the control plane is idle", buildCellsHot},
	{"cells-churn", "forwarding over 100,000 switch-owned VCs beside 50k control ops/s and a policed share: table reads against writes", buildCellsChurn},
	{"signal-rtt", "closed-loop renegotiations over loopback UDP with the cell path idle: netproto and switchfab do the work", buildSignalRTT},
	{"loop-3hop", "16 heuristic sources renegotiating over 3 hops while their cells cross them: every layer runs, in virtual slot time", buildLoop3Hop},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scale sizes every workload. fullScale is what BENCHMARK.json measures;
// shortScale keeps each workload under two seconds for the tests.
type scale struct {
	hotVCs      int
	churnVCs    int
	churnSet    int // VCs set up and torn down, never carrying cells
	policedVCs  int
	rttVCs      int
	loopSources int
	// loopFramesPerSecond converts a pass length into loop-3hop's fixed
	// work: frames per source = loopFramesPerSecond x seconds. Frozen so
	// that 15 s of work took about 15 s on the code this benchmark was
	// defined against; never retune it with the code under test.
	loopFramesPerSecond float64
	loopTraceFrames     int // frames synthesized per source; the traces wrap beyond
	setups              int // the least number of timed set-ups in each of the three rounds
	probeDiv            int // divides every stage probe's iteration count
}

// In each of its three rounds a cheap set-up is repeated until setupBudget
// is spent (at most maxSetups times), so that its median does not ride on
// a handful of sub-millisecond timings.
const (
	setupBudget = 200 * time.Millisecond
	maxSetups   = 100
)

var fullScale = scale{
	hotVCs:              1024,
	churnVCs:            100_000,
	churnSet:            4096,
	policedVCs:          64,
	rttVCs:              1024,
	loopSources:         16,
	loopFramesPerSecond: 1100,
	loopTraceFrames:     20_000,
	setups:              3,
	probeDiv:            1,
}

var shortScale = scale{
	hotVCs:              256,
	churnVCs:            4096,
	churnSet:            256,
	policedVCs:          16,
	rttVCs:              64,
	loopSources:         4,
	loopFramesPerSecond: 1100,
	loopTraceFrames:     2000,
	setups:              1,
	probeDiv:            64,
}

// runConfig is one invocation of one workload.
type runConfig struct {
	seed    uint64
	measure time.Duration // the measured pass; warm-up and traced passes scale from it
	trace   bool
	sc      scale
	outDir  string    // where trace-<workload>.json goes
	log     io.Writer // budget table and manifest
}

// The issue's schedule is 2 s warm-up, 15 s measured and 5 s traced; a
// shorter -seconds shrinks all three by one factor.
func (c runConfig) warmup() time.Duration { return c.measure * 2 / 15 }
func (c runConfig) traced() time.Duration { return c.measure / 3 }

// manifest records the host and the run beside every output.
type manifest struct {
	Workload    string             `json:"workload"`
	Seed        uint64             `json:"seed"`
	Trace       bool               `json:"trace"`
	NProc       int                `json:"nproc"`
	GOMAXPROCS  int                `json:"gomaxprocs"`
	GoVersion   string             `json:"go_version"`
	Commit      string             `json:"git_commit"`
	WarmupS     float64            `json:"warmup_s"`
	MeasuredS   float64            `json:"measured_s"`
	TracedS     float64            `json:"traced_s"`
	Setups      int                `json:"setups"`
	Samples     map[string]int     `json:"samples"`
	Percentiles map[string]float64 `json:"percentile_reported"`
}

// gitCommit reads the revision the toolchain stamped into the binary; a
// checkout that is not a git repository has none.
func gitCommit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// runResult is everything one run produced.
type runResult struct {
	manifest   manifest
	metrics    *metricSet
	attempted  int64
	failed     int64
	violations []string
}

func (r runResult) correct() bool { return len(r.violations) == 0 && r.failed == 0 }

// heapLive returns the live heap after a full collection.
func heapLive() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// timedPass runs one pass and charges it the GC pauses it suffered.
func timedPass(sys system, d time.Duration, tr *traceSet) passStats {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st := sys.pass(d, tr)
	runtime.ReadMemStats(&after)
	st.gcPause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	return st
}

// timedSetups times one round of set-ups: at least sc.setups builds, and as
// many more as fit in setupBudget, each finished (checked and torn down)
// at once. A set-up is timed from the moment the generated inputs exist to
// the moment the system is ready — the interval the heap figure covers —
// so it prices the switch and not the generator: synthesizing loop-3hop's
// traces takes ten times as long as building its three switches.
func timedSetups(w workload, cfg runConfig) (times []int64, violations []string, err error) {
	for spent := time.Duration(0); len(times) < cfg.sc.setups || (spent < setupBudget && len(times) < maxSetups); {
		start := time.Now()
		inputsAt := start
		s, err := w.build(cfg.seed, cfg.sc, func() { inputsAt = time.Now() })
		if err != nil {
			return times, violations, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		ready := time.Now()
		times = append(times, int64(ready.Sub(inputsAt)))
		spent += ready.Sub(start)
		violations = append(violations, s.finish()...)
	}
	return times, violations, nil
}

// runWorkload builds w's system (several times, for a steady setup_s),
// warms it, measures it, and checks it. With cfg.trace it measures a short
// untraced reference pass and then a traced pass, and reports the
// per-layer table; otherwise the end-to-end table.
func runWorkload(w workload, cfg runConfig) (runResult, error) {
	res := runResult{manifest: manifest{
		Workload:   w.name,
		Seed:       cfg.seed,
		Trace:      cfg.trace,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(),
		WarmupS:    cfg.warmup().Seconds(),
	}}

	// Set-up is timed in three rounds — before the measured system is
	// built, after the warm-up and after the measured passes — so that one
	// slow spell of the host cannot sit under all of setup_s's samples.
	var setupNs []int64
	timeSetups := func() error {
		times, bad, err := timedSetups(w, cfg)
		setupNs = append(setupNs, times...)
		res.violations = append(res.violations, bad...)
		return err
	}
	if err := timeSetups(); err != nil {
		return res, err
	}
	// The system that is measured is built untimed: its heap figure is
	// taken between forced collections, from the moment its inputs exist to
	// the moment it is ready, so it prices the switch and not the load.
	var before uint64
	sys, err := w.build(cfg.seed, cfg.sc, func() { before = heapLive() })
	if err != nil {
		return res, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	var heapDelta uint64
	if after := heapLive(); after > before {
		heapDelta = after - before
	}

	warm := timedPass(sys, cfg.warmup(), nil)
	res.attempted += warm.attempted
	res.failed += warm.failed
	if err := timeSetups(); err != nil {
		return res, err
	}
	runtime.GC() // the set-ups' garbage is not the measured pass's to collect

	var (
		spans   []span
		budgets []budget
	)
	if !cfg.trace {
		res.manifest.MeasuredS = cfg.measure.Seconds()
		st := timedPass(sys, cfg.measure, nil)
		res.attempted += st.attempted
		res.failed += st.failed
		if err := timeSetups(); err != nil {
			return res, err
		}
		m := newMetricSet(endToEnd)
		m.setTimed("work_per_s", st.rate.rate, st.rate.blocks)
		m.setTimed("op_p25_us", quantile(sortedCopy(st.lat), undisturbed)/1e3, len(st.lat))
		m.set("bytes_per_vc", float64(heapDelta)/float64(sys.vcs()))
		m.setTimed("setup_s", quantile(sortedCopy(setupNs), undisturbed)/1e9, len(setupNs))
		res.metrics = m
	} else {
		res.manifest.MeasuredS = cfg.traced().Seconds()
		res.manifest.TracedS = cfg.traced().Seconds()
		ref := timedPass(sys, cfg.traced(), nil)
		ts := newTraceSet()
		st := timedPass(sys, cfg.traced(), ts)
		res.attempted += ref.attempted + st.attempted
		res.failed += ref.failed + st.failed
		spans = ts.merged()
		m := newMetricSet(perLayer)
		if err := runProbes(cfg.seed, cfg.sc, m); err != nil {
			return res, fmt.Errorf("%s: stage probes: %w", w.name, err)
		}
		budgets = sys.layer(ref, st, spans, m)
		m.setTimed("bench.window_spread", ref.rate.spread, ref.rate.blocks)
		if ref.rate.rate > 0 {
			m.set("bench.trace_overhead_share", 1-st.rate.rate/ref.rate.rate)
		}
		m.set("bench.gc_pause_ms", float64(ref.gcPause+st.gcPause)/1e6)
		res.metrics = m
		for _, b := range budgets {
			b.print(cfg.log)
		}
	}
	res.manifest.Setups = len(setupNs)
	res.manifest.Samples, res.manifest.Percentiles = res.metrics.samples, res.metrics.percentiles
	res.violations = append(res.violations, sys.finish()...)
	sort.Strings(res.violations)
	if cfg.trace {
		if err := writeTrace(cfg.outDir, res.manifest, budgets, spans); err != nil {
			return res, err
		}
	}
	return res, nil
}
