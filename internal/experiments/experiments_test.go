package experiments

import (
	"context"
	"math"
	"testing"

	"rcbr/internal/smg"
)

// sameAtAnyProcs runs a sweep at GOMAXPROCS 1, where Sweep's pool has one
// worker, and at 4, restoring the old value after each. It fails unless
// both runs return the same rows in the same order, and returns them.
func sameAtAnyProcs[R comparable](t *testing.T, sweep func() ([]R, error)) []R {
	t.Helper()
	var runs [2][]R
	for i, procs := range []int{1, 4} {
		var err error
		withProcs(procs, func() { runs[i], err = sweep() })
		if err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", procs, err)
		}
	}
	if len(runs[0]) != len(runs[1]) {
		t.Fatalf("%d rows at GOMAXPROCS 1, %d at 4", len(runs[0]), len(runs[1]))
	}
	for i := range runs[0] {
		if runs[0][i] != runs[1][i] {
			t.Fatalf("row %d = %+v at GOMAXPROCS 1, %+v at 4", i, runs[0][i], runs[1][i])
		}
	}
	return runs[0]
}

func TestFig2ShapesAndMonotonicity(t *testing.T) {
	tr := StarWars(51, 2400)
	cfg := DefaultFig2Config(tr)
	cfg.Alphas = []float64{1e5, 1e6, 1e7}
	cfg.Deltas = []float64{50e3, 200e3}
	// The sweep is deterministic: a pool of workers reproduces the serial
	// rows exactly, in the same order.
	rows := sameAtAnyProcs(t, func() ([]Fig2Row, error) { return Fig2(context.Background(), cfg) })
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	var prevIv float64
	var prevEff = 2.0
	for _, r := range rows[:3] {
		if r.Kind != "OPT" {
			t.Fatalf("row kind %q", r.Kind)
		}
		if r.RenegIntervalSec < prevIv {
			t.Fatalf("OPT interval must grow with alpha: %+v", rows[:3])
		}
		if r.Efficiency > prevEff+1e-9 || r.Efficiency <= 0 || r.Efficiency > 1.01 {
			t.Fatalf("OPT efficiency out of shape: %+v", r)
		}
		prevIv, prevEff = r.RenegIntervalSec, r.Efficiency
	}
	for _, r := range rows[3:] {
		if r.Kind != "AR1" {
			t.Fatalf("row kind %q", r.Kind)
		}
		if r.Efficiency <= 0 || r.Efficiency > 1.01 {
			t.Fatalf("AR1 efficiency %v", r.Efficiency)
		}
	}
	// Headline comparison: at comparable renegotiation intervals, OPT is
	// at least as efficient as the heuristic.
	if rows[0].Efficiency < rows[3].Efficiency-0.05 {
		t.Fatalf("OPT (%v) should not be much worse than AR1 (%v)",
			rows[0].Efficiency, rows[3].Efficiency)
	}
}

func TestFig2Validation(t *testing.T) {
	if _, err := Fig2(context.Background(), Fig2Config{}); err == nil {
		t.Fatal("missing trace accepted")
	}
}

func TestFig5CurveShape(t *testing.T) {
	tr := StarWars(52, 4800)
	pts := Fig5(tr, 1e-6, 50e3, 50e6, 6)
	if len(pts) != 6 {
		t.Fatalf("points = %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Rate > pts[i-1].Rate+1 {
			t.Fatalf("(c,B) curve not non-increasing: %+v", pts)
		}
	}
	// Large buffers approach the mean; small buffers demand much more.
	if pts[len(pts)-1].Rate > 1.6*tr.MeanRate() {
		t.Fatalf("large-buffer rate %v too far above mean %v",
			pts[len(pts)-1].Rate, tr.MeanRate())
	}
	if pts[0].Rate < 1.5*tr.MeanRate() {
		t.Fatalf("small-buffer rate %v suspiciously low", pts[0].Rate)
	}
}

func TestFig6SmallScale(t *testing.T) {
	tr := StarWars(53, 1200)
	cfg, err := DefaultFig6Config(tr, 3e5)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Ns = []int{2, 10}
	cfg.LossTarget = 1e-4 // achievable at this short length
	cfg.MaxReps = 8
	// Each source count reseeds its capacity searches, so a pool of
	// workers reproduces the serial points exactly.
	pts := sameAtAnyProcs(t, func() ([]smg.Point, error) { return Fig6(context.Background(), cfg) })
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
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
		t.Fatalf("RCBR not improving with N: %+v", pts)
	}
	// Large-N RCBR approaches (from above, roughly) the efficiency
	// asymptote.
	if asym := smg.AsymptoticRCBR(tr, cfg.Schedule); pts[1].RCBR < asym*0.95 {
		t.Fatalf("RCBR %v below asymptote %v", pts[1].RCBR, asym)
	}
}

func TestMBACSweepSmall(t *testing.T) {
	tr := StarWars(54, 1200)
	sch, err := OptimalSchedule(tr, 300e3, 3e5, FeasibleLevels(tr, 300e3, 12))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultMBACConfig(sch)
	cfg.CapacityMultiples = []float64{8}
	cfg.Loads = []float64{1.0}
	cfg.Schemes = []string{"memoryless", "memory"}
	cfg.MaxBatches = 12
	// Seeds are derived from grid position, so a pool of workers is
	// bit-identical to the serial sweep.
	rows := sameAtAnyProcs(t, func() ([]MBACRow, error) { return MBAC(context.Background(), cfg) })
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Utilization <= 0 || r.Utilization > 1 {
			t.Fatalf("utilization %v", r.Utilization)
		}
		if r.NormUtil <= 0 {
			t.Fatalf("norm util %v", r.NormUtil)
		}
		if r.Batches == 0 {
			t.Fatal("no batches")
		}
		if r.PerfectUtil <= 0 {
			t.Fatalf("perfect util %v", r.PerfectUtil)
		}
	}
}

func TestMBACUnknownScheme(t *testing.T) {
	tr := StarWars(55, 600)
	sch, err := OptimalSchedule(tr, 300e3, 3e5, FeasibleLevels(tr, 300e3, 8))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultMBACConfig(sch)
	cfg.CapacityMultiples = []float64{5}
	cfg.Loads = []float64{0.5}
	cfg.Schemes = []string{"nope"}
	if _, err := MBAC(context.Background(), cfg); err == nil {
		t.Fatal("unknown scheme accepted")
	}
	// A load or capacity multiple OfferedLoad would panic on is an error.
	cfg.Schemes = []string{"memoryless"}
	for _, bad := range []float64{math.NaN(), -1, math.Inf(1)} {
		for _, set := range []*[]float64{&cfg.Loads, &cfg.CapacityMultiples} {
			saved := *set
			*set = []float64{bad}
			if _, err := MBAC(context.Background(), cfg); err == nil {
				t.Errorf("loads %v, capacity multiples %v accepted", cfg.Loads, cfg.CapacityMultiples)
			}
			*set = saved
		}
	}
	cfg.Schedule = nil
	if _, err := MBAC(context.Background(), cfg); err == nil {
		t.Fatal("missing schedule accepted")
	}
}

func TestAnalysisEquations(t *testing.T) {
	res, err := Analysis(1000, 5000, 1e-6, []int{10, 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SubchainEB) != 3 {
		t.Fatalf("subchains = %d", len(res.SubchainEB))
	}
	max := math.Inf(-1)
	for _, e := range res.SubchainEB {
		if e > max {
			max = e
		}
	}
	if res.WholeEB != max {
		t.Fatalf("eq.9 violated: whole %v, max %v", res.WholeEB, max)
	}
	for _, row := range res.Rows {
		if row.RCBRFailure < row.SharedLoss*(1-1e-9) {
			t.Fatalf("eq.11 < eq.10 at %+v", row)
		}
	}
	if math.Abs(res.MeanRate-1000)/1000 > 1e-9 {
		t.Fatalf("mean = %v", res.MeanRate)
	}
}

func TestStarWarsHelpers(t *testing.T) {
	if got := StarWars(1, 100).Len(); got != 100 {
		t.Fatalf("len = %d", got)
	}
}
