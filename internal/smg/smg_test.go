package smg

import (
	"math"
	"testing"

	"rcbr/internal/core"
	"rcbr/internal/queue"
	"rcbr/internal/stats"
	"rcbr/internal/trace"
	"rcbr/internal/trellis"
)

// testConfig builds a small but structurally faithful workload: a short
// synthetic trace plus its offline optimal schedule.
func testConfig(t *testing.T, frames int) Config {
	t.Helper()
	tr := trace.SyntheticStarWarsFrames(31, frames)
	sch, _, err := trellis.Optimize(tr, trellis.Options{
		Levels:         stats.UniformLevels(48e3, 3e6, 12),
		BufferBits:     300e3,
		BufferGridBits: 300e3 / 2048,
		Cost:           core.CostModel{Alpha: 3e5, Beta: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Trace:      tr,
		Schedule:   sch,
		BufferBits: 300e3,
		LossTarget: 1e-4,
		MinReps:    3,
		MaxReps:    12,
		CIFrac:     0.2,
		Seed:       7,
	}
}

func TestConfigValidate(t *testing.T) {
	good := testConfig(t, 1200)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Trace = nil },
		func(c *Config) { c.BufferBits = 0 },
		func(c *Config) { c.LossTarget = 0 },
		func(c *Config) { c.LossTarget = 1 },
		func(c *Config) { c.MinReps = 0 },
		func(c *Config) { c.MaxReps = 1; c.MinReps = 2 },
		func(c *Config) { c.CIFrac = 0 },
	}
	for i, mutate := range bad {
		cfg := testConfig(t, 1200)
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestCBRRateMatchesQueueSearch(t *testing.T) {
	tr := trace.SyntheticStarWarsFrames(32, 2400)
	got := CBRRate(tr, 300e3, 1e-4)
	want := queue.MinRateForLoss(queue.Arrivals(tr), tr.SlotSeconds(), 300e3, 1e-4)
	if got != want {
		t.Fatalf("CBRRate = %v, want %v", got, want)
	}
	if got < tr.MeanRate() || got > tr.PeakFrameRate() {
		t.Fatalf("CBRRate %v outside [mean, peak]", got)
	}
}

func TestSharedRateMeetsTarget(t *testing.T) {
	cfg := testConfig(t, 1200)
	n := 8
	c, st, err := SharedRate(cfg, n)
	if err != nil {
		t.Fatal(err)
	}
	if st.Simulations == 0 {
		t.Fatal("no simulations recorded")
	}
	if st.FinalLoss > cfg.LossTarget {
		t.Fatalf("final loss %v exceeds target %v", st.FinalLoss, cfg.LossTarget)
	}
	if c < cfg.Trace.MeanRate()*0.9 {
		t.Fatalf("per-stream rate %v below mean %v", c, cfg.Trace.MeanRate())
	}
}

func TestSharedMultiplexingGainGrows(t *testing.T) {
	cfg := testConfig(t, 1200)
	c2, _, err := SharedRate(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	c16, _, err := SharedRate(cfg, 16)
	if err != nil {
		t.Fatal(err)
	}
	if c16 > c2*1.02 {
		t.Fatalf("per-stream capacity should shrink with N: c(2)=%v c(16)=%v", c2, c16)
	}
}

func TestRCBRRateMeetsTargetAndOrdering(t *testing.T) {
	cfg := testConfig(t, 1200)
	n := 8
	rcbr, st, err := RCBRRate(cfg, n)
	if err != nil {
		t.Fatal(err)
	}
	if st.FinalLoss > cfg.LossTarget {
		t.Fatalf("final loss %v exceeds target", st.FinalLoss)
	}
	cbr := CBRRate(cfg.Trace, cfg.BufferBits, cfg.LossTarget)
	if rcbr > cbr*1.02 {
		t.Fatalf("RCBR per-stream %v should not exceed static CBR %v", rcbr, cbr)
	}
	shared, _, err := SharedRate(cfg, n)
	if err != nil {
		t.Fatal(err)
	}
	// RCBR extracts slightly less gain than unrestricted sharing (paper's
	// central comparison); allow simulation noise.
	if rcbr < shared*0.9 {
		t.Fatalf("RCBR %v implausibly below shared %v", rcbr, shared)
	}
}

func TestRCBRNeedsSchedule(t *testing.T) {
	cfg := testConfig(t, 1200)
	cfg.Schedule = nil
	if _, _, err := RCBRRate(cfg, 4); err == nil {
		t.Fatal("missing schedule accepted")
	}
}

func TestNPositive(t *testing.T) {
	cfg := testConfig(t, 1200)
	if _, _, err := SharedRate(cfg, 0); err == nil {
		t.Fatal("n=0 accepted by SharedRate")
	}
	if _, _, err := RCBRRate(cfg, -1); err == nil {
		t.Fatal("n=-1 accepted by RCBRRate")
	}
}

func TestExcessIntegral(t *testing.T) {
	// Demand: 10 on [0,1), 30 on [1,2), 5 on [2,4). Capacity 20.
	evs := []rateEvent{
		{timeSec: 0, delta: 10},
		{timeSec: 1, delta: 20},
		{timeSec: 2, delta: -25},
	}
	got := excessIntegral(evs, 20, 4)
	if got != 10 {
		t.Fatalf("excess = %v, want 10", got)
	}
	// Capacity above peak: no loss.
	if v := excessIntegral(evs, 50, 4); v != 0 {
		t.Fatalf("excess = %v, want 0", v)
	}
	// Simultaneous events accumulate before integration.
	evs2 := []rateEvent{
		{timeSec: 0, delta: 10},
		{timeSec: 0, delta: 15},
	}
	if v := excessIntegral(evs2, 20, 2); v != 10 {
		t.Fatalf("simultaneous excess = %v, want 10", v)
	}
	// Empty event list.
	if v := excessIntegral(nil, 1, 10); v != 0 {
		t.Fatalf("empty excess = %v", v)
	}
}

func TestCurveShape(t *testing.T) {
	cfg := testConfig(t, 1200)
	var pts []Point
	for _, n := range []int{2, 12} {
		shared, _, err := SharedRate(cfg, n)
		if err != nil {
			t.Fatal(err)
		}
		rcbr, _, err := RCBRRate(cfg, n)
		if err != nil {
			t.Fatal(err)
		}
		cbr := CBRRate(cfg.Trace, cfg.BufferBits, cfg.LossTarget)
		pts = append(pts, Point{N: n, CBR: cbr, Shared: shared, RCBR: rcbr})
	}
	// CBR flat; unrestricted sharing never needs more than CBR; RCBR
	// decreasing in N (at tiny N it can exceed CBR — the bufferless mux
	// must cover near-peak schedule demand until averaging kicks in).
	if pts[0].CBR != pts[1].CBR {
		t.Fatal("CBR line must be flat in N")
	}
	for _, p := range pts {
		if p.Shared > p.CBR*1.02 {
			t.Fatalf("shared exceeds CBR at N=%d: %+v", p.N, p)
		}
	}
	if pts[1].RCBR > pts[0].RCBR*1.05 {
		t.Fatalf("RCBR per-stream should shrink with N: %+v", pts)
	}
	// Large-N RCBR approaches (from above, roughly) the efficiency
	// asymptote.
	asym := AsymptoticRCBR(cfg.Trace, cfg.Schedule)
	if pts[1].RCBR < asym*0.95 {
		t.Fatalf("RCBR %v below asymptote %v", pts[1].RCBR, asym)
	}
}

func TestAsymptoticRCBR(t *testing.T) {
	cfg := testConfig(t, 1200)
	asym := AsymptoticRCBR(cfg.Trace, cfg.Schedule)
	want := cfg.Schedule.MeanRate()
	if math.Abs(asym-want) > 1e-6*want {
		t.Fatalf("asymptote = %v, want schedule mean %v", asym, want)
	}
	// Degenerate zero-rate schedule.
	zero := core.Constant(0, 10, 1)
	if !math.IsInf(AsymptoticRCBR(cfg.Trace, zero), 1) {
		t.Fatal("zero-rate schedule must give +Inf asymptote")
	}
}

// TestDeterministicAcrossRuns pins both capacity searches: the same seed
// gives the same result, and the returned capacity and SearchStats are
// held exactly, so a change in the order candidates are evaluated or in
// how many phasings each one takes moves at least one of them.
func TestDeterministicAcrossRuns(t *testing.T) {
	cfg := testConfig(t, 1200)
	a, _, err := SharedRate(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := SharedRate(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same seed, different results: %v vs %v", a, b)
	}
	type pin struct {
		rate float64
		st   SearchStats
	}
	for _, c := range []struct {
		n            int
		shared, rcbr pin
	}{
		{1, pin{687445.1224057553, SearchStats{42, 9.999999999997668e-05}},
			pin{852604.7850449218, SearchStats{39, 9.856796430175557e-05}}},
		{4, pin{516101.64473843086, SearchStats{150, 9.834701966141163e-05}},
			pin{648554.2167417881, SearchStats{99, 4.3635910744056374e-05}}},
		{16, pin{407278.66933400615, SearchStats{65, 3.188444570663153e-05}},
			pin{527630.8603024681, SearchStats{134, 9.92356086488716e-05}}},
	} {
		r, st, err := SharedRate(cfg, c.n)
		if err != nil {
			t.Fatal(err)
		}
		if got := (pin{r, st}); got != c.shared {
			t.Errorf("SharedRate n=%d = %+v, want %+v", c.n, got, c.shared)
		}
		r, st, err = RCBRRate(cfg, c.n)
		if err != nil {
			t.Fatal(err)
		}
		if got := (pin{r, st}); got != c.rcbr {
			t.Errorf("RCBRRate n=%d = %+v, want %+v", c.n, got, c.rcbr)
		}
	}
}
