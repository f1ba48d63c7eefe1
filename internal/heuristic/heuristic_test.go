package heuristic

import (
	"math"
	"testing"

	"rcbr/internal/core"
	"rcbr/internal/trace"
)

func constTrace(bits int64, n int) *trace.Trace {
	fb := make([]int64, n)
	for i := range fb {
		fb[i] = bits
	}
	return trace.New(fb, 24)
}

func TestAR1Predictor(t *testing.T) {
	p := &AR1{Coeff: 0.5}
	if got := p.Observe(100); got != 100 {
		t.Fatalf("first observation = %v, want 100", got)
	}
	if got := p.Observe(200); got != 150 {
		t.Fatalf("second = %v, want 150", got)
	}
	if got := p.Observe(150); got != 150 {
		t.Fatalf("third = %v, want 150", got)
	}
}

func TestAR1Converges(t *testing.T) {
	p := &AR1{Coeff: 0.9}
	var est float64
	for i := 0; i < 300; i++ {
		est = p.Observe(500)
	}
	if math.Abs(est-500) > 1e-6 {
		t.Fatalf("AR1 did not converge: %v", est)
	}
}

func TestGOPPredictorSmoothsOscillation(t *testing.T) {
	// Alternating 0/200 rates: the GOP mean is constant 100, so the GOP
	// predictor's estimate stabilizes while raw AR1 keeps oscillating.
	gop := &GOP{Len: 2, Coeff: 0}
	ar := &AR1{Coeff: 0}
	var gopSpread, arSpread [2]float64
	for i := 0; i < 100; i++ {
		r := float64((i % 2) * 200)
		g := gop.Observe(r)
		a := ar.Observe(r)
		if i > 10 {
			gopSpread[i%2] = g
			arSpread[i%2] = a
		}
	}
	if d := math.Abs(gopSpread[0] - gopSpread[1]); d > 1e-9 {
		t.Fatalf("GOP estimate still oscillates by %v", d)
	}
	if d := math.Abs(arSpread[0] - arSpread[1]); d != 200 {
		t.Fatalf("raw AR(0) should oscillate by 200, got %v", d)
	}
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams(64e3).Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	nan := math.NaN()
	bad := []Params{
		{},
		{Granularity: -1, LowWater: 0, HighWater: 1, FlushSlots: 1},
		{Granularity: 1, LowWater: 5, HighWater: 1, FlushSlots: 1},
		{Granularity: 1, LowWater: 0, HighWater: 1, FlushSlots: 0},
		{Granularity: 1, LowWater: 0, HighWater: 1, FlushSlots: 1, ARCoeff: 1},
		{Granularity: 1, LowWater: 0, HighWater: 1, FlushSlots: 1, InitialRate: -1},
		{Granularity: 1, LowWater: 0, HighWater: 1, FlushSlots: 1, MaxRate: -1},
		// NaN fails every comparison: each field refuses it.
		{Granularity: nan, LowWater: 0, HighWater: 1, FlushSlots: 1},
		{Granularity: 1, LowWater: nan, HighWater: 1, FlushSlots: 1},
		{Granularity: 1, LowWater: 0, HighWater: nan, FlushSlots: 1},
		{Granularity: 1, LowWater: 0, HighWater: 1, FlushSlots: nan},
		{Granularity: 1, LowWater: 0, HighWater: 1, FlushSlots: 1, ARCoeff: nan},
		{Granularity: 1, LowWater: 0, HighWater: 1, FlushSlots: 1, InitialRate: nan},
		{Granularity: 1, LowWater: 0, HighWater: 1, FlushSlots: 1, MaxRate: nan},
		{Granularity: 1, LowWater: 0, HighWater: 1, FlushSlots: 1, GrantTolerance: nan},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d accepted", i)
		}
	}
}

func TestConstantSourceSettles(t *testing.T) {
	// 240 kb/s constant source, granularity 100 kb/s: the rate should
	// settle at 300 kb/s (ceil) and renegotiate only a handful of times.
	tr := constTrace(10000, 2400) // 10 kb/frame * 24 = 240 kb/s
	p := DefaultParams(100e3)
	res, err := Run(tr, 300e3, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.LostBits != 0 {
		t.Fatalf("lost %v bits", res.LostBits)
	}
	final := res.Schedule.Segments[len(res.Schedule.Segments)-1].Rate
	if final != 300e3 {
		t.Fatalf("final rate = %v, want 300000", final)
	}
	if res.Schedule.Renegotiations() > 5 {
		t.Fatalf("constant source renegotiated %d times", res.Schedule.Renegotiations())
	}
}

func TestNoRenegotiationInsideThresholds(t *testing.T) {
	// Source rate equals negotiated rate: occupancy stays at 0 < LowWater,
	// but the candidate rate never drops below the current rate, so no
	// renegotiation fires after the initial settling.
	tr := constTrace(10000, 480)
	p := DefaultParams(240e3) // one step = exact source rate
	p.InitialRate = 240e3
	res, err := Run(tr, 300e3, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts != 0 {
		t.Fatalf("steady state produced %d attempts", res.Attempts)
	}
}

func TestStepUpOnBurst(t *testing.T) {
	// Rate jumps 5x mid-trace; the heuristic must raise the rate once the
	// buffer crosses the high threshold, and drop it after the burst.
	fb := make([]int64, 1200)
	for i := range fb {
		if i >= 400 && i < 800 {
			fb[i] = 50000
		} else {
			fb[i] = 10000
		}
	}
	tr := trace.New(fb, 24)
	p := DefaultParams(120e3)
	res, err := Run(tr, 600e3, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.LostBits != 0 {
		t.Fatalf("lost %v bits during burst", res.LostBits)
	}
	peak := res.Schedule.PeakRate()
	if peak < 50000*24 {
		t.Fatalf("peak scheduled rate %v below burst rate %v", peak, 50000*24)
	}
	final := res.Schedule.Segments[len(res.Schedule.Segments)-1].Rate
	if final >= peak {
		t.Fatalf("rate did not come back down: final %v, peak %v", final, peak)
	}
}

func TestFailureKeepsOldRate(t *testing.T) {
	// A network that denies everything: the source keeps its initial rate
	// (Section III-A.1) and failures are counted.
	tr := constTrace(20000, 480) // 480 kb/s source
	p := DefaultParams(100e3)
	p.InitialRate = 100e3
	deny := NegotiatorFunc(func(current, _ float64) float64 { return current })
	res, err := Run(tr, 1e6, p, deny)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures == 0 || res.Failures != res.Attempts {
		t.Fatalf("attempts=%d failures=%d, want all failed", res.Attempts, res.Failures)
	}
	if res.Schedule.Renegotiations() != 0 {
		t.Fatalf("schedule changed rate despite denials")
	}
	if res.LostBits == 0 {
		t.Fatal("undersized fixed rate must lose data eventually")
	}
}

func TestPartialGrantCounted(t *testing.T) {
	tr := constTrace(20000, 480)
	p := DefaultParams(100e3)
	p.InitialRate = 100e3
	half := NegotiatorFunc(func(current, requested float64) float64 {
		return current + (requested-current)/2
	})
	res, err := Run(tr, 1e6, p, half)
	if err != nil {
		t.Fatal(err)
	}
	// At least the first upward request is only half-granted and must be
	// counted as a failure; the grid-compare suppresses repeat thrash, so
	// later attempts may be downward (full) grants.
	if res.Failures == 0 {
		t.Fatalf("partial grants must count as failures: %d/%d",
			res.Failures, res.Attempts)
	}
	if res.Schedule.PeakRate() <= 100e3 {
		t.Fatal("partial grants should still raise the rate")
	}
}

func TestGrantToleranceAbsorbsQuantization(t *testing.T) {
	tr := constTrace(20000, 480) // 480 kb/s source
	p := DefaultParams(100e3)
	p.InitialRate = 100e3
	p.GrantTolerance = 1.0 / 128
	// A negotiator that grants in full but returns the rate 0.3% low, as
	// the 16-bit RM encoding does.
	quantized := NegotiatorFunc(func(_, requested float64) float64 {
		return requested * (1 - 0.003)
	})
	res, err := Run(tr, 1e6, p, quantized)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 0 {
		t.Fatalf("quantized grants counted as %d failures", res.Failures)
	}
	// And crucially: no per-slot thrash once settled.
	if res.Attempts > 10 {
		t.Fatalf("thrash: %d attempts on a constant source", res.Attempts)
	}
}

func TestGrantToleranceValidation(t *testing.T) {
	p := DefaultParams(64e3)
	p.GrantTolerance = 1
	if err := p.Validate(); err == nil {
		t.Fatal("tolerance 1 accepted")
	}
	p.GrantTolerance = -0.1
	if err := p.Validate(); err == nil {
		t.Fatal("negative tolerance accepted")
	}
}

func TestGranularityTradeoff(t *testing.T) {
	// Larger Delta: fewer renegotiations, lower bandwidth efficiency
	// (Fig. 2's heuristic curve, traversed left to right).
	tr := trace.SyntheticStarWarsFrames(21, 4800)
	var prevRenegs = math.MaxInt
	var prevEff = 2.0
	for _, delta := range []float64{25e3, 100e3, 400e3} {
		res, err := Run(tr, 300e3, DefaultParams(delta), nil)
		if err != nil {
			t.Fatal(err)
		}
		renegs := res.Schedule.Renegotiations()
		eff := res.Schedule.BandwidthEfficiency(tr)
		if renegs > prevRenegs {
			t.Fatalf("delta %v: renegotiations rose to %d (prev %d)",
				delta, renegs, prevRenegs)
		}
		if eff > prevEff+0.02 {
			t.Fatalf("delta %v: efficiency rose to %v (prev %v)", delta, eff, prevEff)
		}
		prevRenegs, prevEff = renegs, eff
	}
}

func TestFlushTermAblation(t *testing.T) {
	// Without the b/T flush term, a sudden buildup drains more slowly: the
	// max occupancy is at least as high and loss can appear.
	fb := make([]int64, 960)
	for i := range fb {
		if i >= 200 && i < 260 {
			fb[i] = 60000
		} else {
			fb[i] = 8000
		}
	}
	tr := trace.New(fb, 24)
	p := DefaultParams(60e3)
	with, err := Run(tr, 400e3, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	p.DisableFlushTerm = true
	without, err := Run(tr, 400e3, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if without.MaxOccupancy < with.MaxOccupancy {
		t.Fatalf("flush term should cap occupancy: with %v, without %v",
			with.MaxOccupancy, without.MaxOccupancy)
	}
}

func TestGOPPredictorReducesRenegotiations(t *testing.T) {
	tr := trace.SyntheticStarWarsFrames(22, 4800)
	delta := 50e3
	base := DefaultParams(delta)
	ar, err := Run(tr, 300e3, base, nil)
	if err != nil {
		t.Fatal(err)
	}
	gop := DefaultParams(delta)
	gop.Predictor = &GOP{Len: 12, Coeff: 0.9}
	gp, err := Run(tr, 300e3, gop, nil)
	if err != nil {
		t.Fatal(err)
	}
	if gp.Schedule.Renegotiations() > ar.Schedule.Renegotiations() {
		t.Fatalf("GOP predictor renegotiated more: %d vs %d",
			gp.Schedule.Renegotiations(), ar.Schedule.Renegotiations())
	}
}

func TestSignalDelayDegradesPerformance(t *testing.T) {
	// Section III-C: online RCBR performance decreases with signaling
	// latency. With the same workload and parameters, a delayed grant
	// lets the buffer climb higher during rate steps.
	fb := make([]int64, 1200)
	for i := range fb {
		if i >= 300 && i < 700 {
			fb[i] = 40000
		} else {
			fb[i] = 8000
		}
	}
	tr := trace.New(fb, 24)
	run := func(delay int) Result {
		p := DefaultParams(80e3)
		p.SignalDelaySlots = delay
		res, err := Run(tr, 2e6, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	immediate := run(0)
	delayed := run(48) // two seconds of round-trip latency
	if delayed.MaxOccupancy < immediate.MaxOccupancy {
		t.Fatalf("latency should raise occupancy: 0-delay %v, 48-slot %v",
			immediate.MaxOccupancy, delayed.MaxOccupancy)
	}
	if immediate.LostBits > 0 {
		t.Fatalf("no-delay run lost %v bits", immediate.LostBits)
	}
}

func TestSignalDelaySingleOutstandingRequest(t *testing.T) {
	// While a request is in flight no further requests are issued.
	tr := constTrace(30000, 240) // fast-rising workload
	p := DefaultParams(100e3)
	p.SignalDelaySlots = 10
	calls := 0
	counter := NegotiatorFunc(func(_, requested float64) float64 {
		calls++
		return requested
	})
	res, err := Run(tr, 5e6, p, counter)
	if err != nil {
		t.Fatal(err)
	}
	if calls != res.Attempts {
		t.Fatalf("negotiator calls %d != attempts %d", calls, res.Attempts)
	}
	// 240 slots with 10-slot in-flight windows: at most ~24 requests.
	if res.Attempts > 24 {
		t.Fatalf("attempts = %d, in-flight limiter broken", res.Attempts)
	}
}

func TestSignalDelayValidation(t *testing.T) {
	p := DefaultParams(64e3)
	p.SignalDelaySlots = -1
	if err := p.Validate(); err == nil {
		t.Fatal("negative delay accepted")
	}
}

func TestRunEmptyTrace(t *testing.T) {
	if _, err := Run(trace.New(nil, 24), 1e5, DefaultParams(64e3), nil); err == nil {
		t.Fatal("empty trace accepted")
	}
}

func TestRunInvalidParams(t *testing.T) {
	if _, err := Run(constTrace(1, 10), 1e5, Params{}, nil); err == nil {
		t.Fatal("invalid params accepted")
	}
	for _, B := range []float64{0, -5, math.NaN()} {
		if _, err := Run(constTrace(1, 10), B, DefaultParams(64e3), nil); err == nil {
			t.Fatalf("buffer of %v bits accepted", B)
		}
	}
}

func TestMaxRateCap(t *testing.T) {
	tr := constTrace(50000, 480) // 1.2 Mb/s source
	p := DefaultParams(100e3)
	p.MaxRate = 500e3
	res, err := Run(tr, 10e6, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule.PeakRate() > 500e3 {
		t.Fatalf("peak %v exceeds MaxRate", res.Schedule.PeakRate())
	}
}

func TestControllerDirect(t *testing.T) {
	src := core.NewSource(300e3, 1.0/24, 64e3)
	ctl, err := NewController(src, DefaultParams(64e3), nil)
	if err != nil {
		t.Fatal(err)
	}
	rate, _, _ := ctl.Step(5000)
	if rate < 0 {
		t.Fatalf("rate = %v", rate)
	}
	if _, err := NewController(src, Params{}, nil); err == nil {
		t.Fatal("invalid params accepted")
	}
}

func TestScheduleMatchesSourceAccounting(t *testing.T) {
	// Replaying the realized schedule through a plain queue must reproduce
	// the run's loss.
	tr := trace.SyntheticStarWarsFrames(23, 2400)
	p := DefaultParams(64e3)
	res, err := Run(tr, 300e3, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	replay := res.Schedule.Run(tr, 300e3)
	if math.Abs(replay.LostBits-res.LostBits) > 1e-6 {
		t.Fatalf("replay lost %v, run lost %v", replay.LostBits, res.LostBits)
	}
}
