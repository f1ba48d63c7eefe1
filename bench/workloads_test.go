package main

import (
	"encoding/json"
	"io"
	"os"
	"regexp"
	"testing"
	"time"
)

// shortConfig is one workload at test scale: well under two seconds.
func shortConfig(t *testing.T, trace bool) runConfig {
	return runConfig{
		seed:    42,
		measure: 300 * time.Millisecond,
		trace:   trace,
		sc:      shortScale,
		outDir:  t.TempDir(),
		log:     io.Discard,
	}
}

// runShort runs one workload at test scale and requires a correct result.
func runShort(t *testing.T, w workload, trace bool) runResult {
	t.Helper()
	res, err := runWorkload(w, shortConfig(t, trace))
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	for _, v := range res.violations {
		t.Errorf("%s: broken invariant: %s", w.name, v)
	}
	if res.failed != 0 || res.attempted < 1 {
		t.Errorf("%s: %d of %d operations failed", w.name, res.failed, res.attempted)
	}
	return res
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// Every workload and metric name in BENCHMARK.json is emitted by the
// driver, and the driver emits nothing BENCHMARK.json does not list.
func TestBenchmarkFileMatchesDriver(t *testing.T) {
	spec, err := readSpec("../" + benchmarkFile)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%s lists %d workloads, the driver has %d", benchmarkFile, len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := spec.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: %s has %q (%q), the driver %q (%q)", i, benchmarkFile, got.Name, got.Why, w.name, w.why)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 {
			t.Errorf("workload %q: bad name or a why over 200 characters", w.name)
		}
	}
	sawSetup := false
	for _, table := range []struct {
		spec   []specMetric
		driver []metricDef
		trace  bool
	}{{spec.EndToEnd, endToEnd, false}, {spec.PerLayer, perLayer, true}} {
		if len(table.spec) != len(table.driver) {
			t.Fatalf("trace=%v: %s lists %d metrics, the driver has %d", table.trace, benchmarkFile, len(table.spec), len(table.driver))
		}
		for i, d := range table.driver {
			sm := table.spec[i]
			if sm.Name != d.Name || sm.Unit != d.Unit {
				t.Errorf("metric %d: %s has %s [%s], the driver %s [%s]", i, benchmarkFile, sm.Name, sm.Unit, d.Name, d.Unit)
			}
			if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
				t.Errorf("metric %s [%s]: name or unit outside the allowed characters", d.Name, d.Unit)
			}
			if sm.Better != "higher" && sm.Better != "lower" {
				t.Errorf("metric %s: better is %q", sm.Name, sm.Better)
			}
			if !table.trace && (sm.Bound <= 0 || sm.Bound > 0.25) {
				t.Errorf("metric %s: bound %g outside (0, 0.25]", sm.Name, sm.Bound)
			}
			if sm.Name == "setup_s" && sm.Unit == "s" && sm.Better == "lower" {
				sawSetup = true
			}
		}
		// What a run really prints: exactly the table's names, with units.
		for _, w := range workloads {
			res := runShort(t, w, table.trace)
			raw, err := json.Marshal(res.line())
			if err != nil {
				t.Fatal(err)
			}
			var line resultLine
			if err := json.Unmarshal(raw, &line); err != nil {
				t.Fatal(err)
			}
			if len(line.Metrics) != len(table.spec) {
				t.Errorf("%s trace=%v printed %d metrics, want %d", w.name, table.trace, len(line.Metrics), len(table.spec))
			}
			for _, sm := range table.spec {
				got, ok := line.Metrics[sm.Name]
				if !ok || got.Unit != sm.Unit {
					t.Errorf("%s trace=%v: metric %s missing or in unit %q, want %q", w.name, table.trace, sm.Name, got.Unit, sm.Unit)
				}
				if !table.trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, must never be 0", w.name, sm.Name, got.Value)
				}
			}
		}
	}
	if !sawSetup {
		t.Error("no setup_s [s, lower] among the end-to-end metrics")
	}
}

// A traced run leaves its spans, manifest and budget behind, and the
// manifest names the host, the seed and the percentile each tail reports.
func TestTraceFileAndManifest(t *testing.T) {
	w, _ := findWorkload("cells-churn")
	cfg := shortConfig(t, true)
	res, err := runWorkload(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(cfg.outDir + "/trace-cells-churn.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Manifest manifest
		Budgets  []budget
		Spans    []span
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Spans) == 0 || len(doc.Budgets) != 2 {
		t.Errorf("trace file has %d spans and %d budgets, want spans and 2 budgets", len(doc.Spans), len(doc.Budgets))
	}
	man := res.manifest
	if man.NProc < 1 || man.GOMAXPROCS < 1 || man.GoVersion == "" || man.Commit == "" || man.Seed != cfg.seed {
		t.Errorf("manifest misses the host or the seed: %+v", man)
	}
	if man.WarmupS <= 0 || man.TracedS <= 0 || man.Setups < shortScale.setups {
		t.Errorf("manifest misses the durations or the set-up count: %+v", man)
	}
	if p, ok := man.Percentiles["switchfab.ctl_op_p99_us"]; !ok || p != tailPercentile(man.Samples["switchfab.ctl_op_p99_us"]) {
		t.Errorf("manifest reports percentile %g for %d samples", p, man.Samples["switchfab.ctl_op_p99_us"])
	}
}

// Same seed, same ops: the control generator of cells-churn is a function
// of its seed alone, and no op it generates can fail.
func TestControlGeneratorDeterministic(t *testing.T) {
	a, b, c := newCtlGen(5, shortScale), newCtlGen(5, shortScale), newCtlGen(6, shortScale)
	up := make(map[uint16]bool)
	differ := false
	var kinds [3]int
	for i := 0; i < 20_000; i++ {
		x, y, z := a.next(), b.next(), c.next()
		if x != y {
			t.Fatalf("op %d differs under one seed: %+v vs %+v", i, x, y)
		}
		differ = differ || x != z
		kinds[x.kind]++
		switch x.kind {
		case opReneg:
			if int(x.vc) < shortScale.policedVCs || int(x.vc) >= shortScale.churnVCs || x.id != fwdID(int(x.vc)) {
				t.Fatalf("op %d renegotiates VC %d outside the unpoliced forwarded set", i, x.vc)
			}
		case opSetup:
			if up[x.id.VCI()] {
				t.Fatalf("op %d sets up %s twice", i, x.id)
			}
			up[x.id.VCI()] = true
		case opTeardown:
			if !up[x.id.VCI()] {
				t.Fatalf("op %d tears down %s, which is not up", i, x.id)
			}
			delete(up, x.id.VCI())
		}
	}
	if !differ {
		t.Error("seeds 5 and 6 generated the same ops")
	}
	if kinds[opReneg] < 15_000 || kinds[opSetup] < 1500 || kinds[opTeardown] < 1500 {
		t.Errorf("op mix %v is not about 80/10/10", kinds)
	}
}

// loop-3hop runs in virtual time: one seed gives one op sequence and
// bit-identical exact-count metrics, whatever the wall clock did.
func TestLoopDeterministic(t *testing.T) {
	w, _ := findWorkload("loop-3hop")
	type outcome struct {
		hash   uint64
		counts loopCounts
	}
	run := func(seed uint64) outcome {
		sys, err := w.build(seed, shortScale, func() {})
		if err != nil {
			t.Fatal(err)
		}
		l := sys.(*loopSystem)
		st := l.pass(200*time.Millisecond, nil)
		if st.failed != 0 {
			t.Errorf("seed %d: %d unpredicted outcomes", seed, st.failed)
		}
		out := outcome{l.opHash, l.lastPass}
		for _, v := range l.finish() {
			t.Errorf("seed %d: broken invariant: %s", seed, v)
		}
		return out
	}
	a, b, c := run(9), run(9), run(10)
	if a != b {
		t.Errorf("seed 9 twice: %+v then %+v", a, b)
	}
	if a.hash == c.hash {
		t.Error("seeds 9 and 10 produced the same op sequence")
	}
	if a.counts.renegs == 0 || a.counts.injected == 0 || a.counts.delivered == 0 {
		t.Errorf("reduced loop did no work: %+v", a.counts)
	}
}

// The selfcheck verdict: how much worse the second value is, by direction.
func TestWorseBy(t *testing.T) {
	for _, c := range []struct {
		better        string
		first, second float64
		want          float64
	}{
		{"higher", 100, 90, 0.10},
		{"higher", 100, 110, -0.10},
		{"lower", 100, 110, 0.10},
		{"lower", 100, 90, -0.10},
	} {
		if got := worseBy(c.better, c.first, c.second); got < c.want-1e-12 || got > c.want+1e-12 {
			t.Errorf("worseBy(%s, %g, %g) = %g, want %g", c.better, c.first, c.second, got, c.want)
		}
	}
}
