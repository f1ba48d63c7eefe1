package queue

import (
	"math"
	"testing"
	"testing/quick"

	"rcbr/internal/stats"
	"rcbr/internal/trace"
)

func TestRunNoLossWhenFast(t *testing.T) {
	arr := []float64{10, 20, 5, 15}
	r := Run(arr, 1, 20, 100) // 20 bits/slot service
	if r.LostBits != 0 {
		t.Fatalf("LostBits = %v", r.LostBits)
	}
	if r.ArrivedBits != 50 {
		t.Fatalf("ArrivedBits = %v", r.ArrivedBits)
	}
	if r.FinalOccupancy != 0 {
		t.Fatalf("FinalOccupancy = %v", r.FinalOccupancy)
	}
	if r.LossFraction() != 0 {
		t.Fatalf("LossFraction = %v", r.LossFraction())
	}
}

func TestRunOverflow(t *testing.T) {
	// One huge arrival into a tiny buffer with slow service.
	arr := []float64{100}
	r := Run(arr, 1, 10, 20)
	// q = 100 - 10 = 90 -> 70 lost, q = 20.
	if r.LostBits != 70 {
		t.Fatalf("LostBits = %v, want 70", r.LostBits)
	}
	if r.FinalOccupancy != 20 {
		t.Fatalf("FinalOccupancy = %v, want 20", r.FinalOccupancy)
	}
	if r.MaxOccupancy != 20 {
		t.Fatalf("MaxOccupancy = %v, want 20", r.MaxOccupancy)
	}
	if got := r.LossFraction(); got != 0.7 {
		t.Fatalf("LossFraction = %v, want 0.7", got)
	}
}

func TestRunConservation(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		r := stats.NewRNG(seed)
		arr := make([]float64, int(n)+1)
		for i := range arr {
			arr[i] = r.Float64() * 1000
		}
		c := r.Float64() * 500
		B := r.Float64() * 2000
		res := Run(arr, 1, c, B)
		// arrived = served + lost + final occupancy
		sum := res.ServedBits + res.LostBits + res.FinalOccupancy
		return math.Abs(sum-res.ArrivedBits) < 1e-6 &&
			res.LostBits >= 0 && res.ServedBits >= -1e-9 &&
			res.FinalOccupancy >= 0 && res.FinalOccupancy <= B+1e-9 &&
			res.MaxOccupancy <= B+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunLossMonotoneInRate(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		arr := make([]float64, 200)
		for i := range arr {
			arr[i] = r.Float64() * 100
		}
		B := 50.0
		prev := math.Inf(1)
		for _, c := range []float64{10, 30, 50, 80, 120} {
			l := Run(arr, 1, c, B).LostBits
			if l > prev+1e-9 {
				return false
			}
			prev = l
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestRunSlotSeconds(t *testing.T) {
	// Service rate in bits/s times slot duration gives bits per slot.
	arr := []float64{100, 100}
	r := Run(arr, 0.5, 100, 1000) // 50 bits served per slot
	if r.FinalOccupancy != 100 {
		t.Fatalf("FinalOccupancy = %v, want 100", r.FinalOccupancy)
	}
}

func TestRunPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"bad slot":      func() { Run(nil, 0, 1, 1) },
		"neg buffer":    func() { Run(nil, 1, 1, -1) },
		"neg rate":      func() { Run(nil, 1, -1, 1) },
		"rates too few": func() { RunSchedule([]float64{1, 2}, 1, []float64{1}, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

func TestRunScheduleMatchesRunForConstantRate(t *testing.T) {
	tr := trace.SyntheticStarWarsFrames(1, 2000)
	arr := Arrivals(tr)
	slot := tr.SlotSeconds()
	c := tr.MeanRate() * 1.2
	rates := make([]float64, len(arr))
	for i := range rates {
		rates[i] = c
	}
	a := Run(arr, slot, c, 300e3)
	b := RunSchedule(arr, slot, rates, 300e3)
	if math.Abs(a.LostBits-b.LostBits) > 1e-6 || math.Abs(a.FinalOccupancy-b.FinalOccupancy) > 1e-6 {
		t.Fatalf("Run %+v != RunSchedule %+v", a, b)
	}
}

func TestRunScheduleZeroRateDelay(t *testing.T) {
	r := RunSchedule([]float64{10}, 1, []float64{0}, 100)
	if !math.IsInf(r.MaxDelaySlots, 1) {
		t.Fatalf("MaxDelaySlots = %v, want +Inf", r.MaxDelaySlots)
	}
	// An empty buffer with no service has no delay: 0/0 is not a maximum.
	if r := RunSchedule([]float64{0, 0}, 1, []float64{0, 5}, 100); r.MaxDelaySlots != 0 {
		t.Fatalf("empty unserved buffer: MaxDelaySlots = %v, want 0", r.MaxDelaySlots)
	}
}

func TestRunCyclicSteadyState(t *testing.T) {
	// Service below the mean: a single pass parks the backlog in a huge
	// buffer (no loss), but the cyclic run must report loss.
	arr := []float64{100, 100, 100, 100}
	single := Run(arr, 1, 80, 1e9)
	if single.LostBits != 0 {
		t.Fatalf("single pass lost %v", single.LostBits)
	}
	cyclic := RunCyclic(arr, 1, 80, 1e9)
	if cyclic.LostBits != 0 {
		// Buffer truly huge: two passes still fit; shrink it.
		t.Log("huge buffer absorbed two passes (expected), testing smaller")
	}
	smaller := RunCyclic(arr, 1, 80, 100)
	if smaller.LostBits == 0 {
		t.Fatal("undersized service must lose bits in cyclic run")
	}
	// Service above the peak: cyclic equals single pass, lossless.
	fast := RunCyclic(arr, 1, 200, 100)
	if fast.LostBits != 0 || fast.FinalOccupancy != 0 {
		t.Fatalf("fast cyclic run %+v", fast)
	}
}

func TestRunCyclicMatchesRunWhenDraining(t *testing.T) {
	// If the queue returns to empty within one pass, the measured second
	// pass matches a cold single pass exactly.
	arr := []float64{50, 0, 0, 0}
	a := Run(arr, 1, 20, 1000)
	b := RunCyclic(arr, 1, 20, 1000)
	if math.Abs(a.LostBits-b.LostBits) > 1e-9 ||
		math.Abs(a.MaxOccupancy-b.MaxOccupancy) > 1e-9 {
		t.Fatalf("cold %+v vs cyclic %+v", a, b)
	}
}

func TestRunCyclicPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid args accepted")
		}
	}()
	RunCyclic(nil, 0, 1, 1)
}

func TestMinRateAtLeastMean(t *testing.T) {
	// Cyclic semantics force the minimum rate to at least the source mean
	// for any finite buffer.
	tr := trace.SyntheticStarWarsFrames(8, 4800)
	arr := Arrivals(tr)
	c := MinRateForLoss(arr, tr.SlotSeconds(), 1e9, 1e-6)
	if c < tr.MeanRate()*0.999 {
		t.Fatalf("min rate %v below mean %v despite huge buffer", c, tr.MeanRate())
	}
}

func TestArrivals(t *testing.T) {
	got := Arrivals(trace.New([]int64{1, 2, 3}, 24))
	want := []float64{1, 2, 3}
	for i, v := range want {
		if got[i] != v {
			t.Fatalf("Arrivals = %v, want %v", got, want)
		}
	}
}

func TestMinRateForLoss(t *testing.T) {
	tr := trace.SyntheticStarWarsFrames(2, 5000)
	arr := Arrivals(tr)
	slot := tr.SlotSeconds()
	B := 300e3
	target := 1e-6
	c := MinRateForLoss(arr, slot, B, target)
	if got := Run(arr, slot, c, B).LossFraction(); got > target {
		t.Fatalf("loss at returned rate = %v > %v", got, target)
	}
	if got := Run(arr, slot, c*0.98, B).LossFraction(); got <= target {
		t.Fatalf("rate not minimal: loss at 0.98c = %v", got)
	}
	if c < tr.MeanRate() {
		t.Fatalf("min rate %v below mean %v", c, tr.MeanRate())
	}
	if c > tr.PeakFrameRate() {
		t.Fatalf("min rate %v above peak %v", c, tr.PeakFrameRate())
	}
}

func TestMinRateEmptyArrivals(t *testing.T) {
	if c := MinRateForLoss(nil, 1, 10, 0.1); c != 0 {
		t.Fatalf("empty arrivals rate = %v", c)
	}
}

func TestCBCurveMonotone(t *testing.T) {
	tr := trace.SyntheticStarWarsFrames(4, 8000)
	buffers := LogSpace(10e3, 10e6, 6)
	curve := CBCurve(tr, buffers, 1e-6)
	for i := 1; i < len(curve); i++ {
		if curve[i].Rate > curve[i-1].Rate+1 {
			t.Fatalf("rate must not grow with buffer: %v then %v",
				curve[i-1], curve[i])
		}
	}
	// The largest buffer needs no more than a bit over the mean rate; the
	// smallest needs much more.
	if curve[0].Rate < 1.5*tr.MeanRate() {
		t.Fatalf("tiny buffer rate %v suspiciously low", curve[0].Rate)
	}
}

func TestLogSpace(t *testing.T) {
	v := LogSpace(1, 100, 3)
	want := []float64{1, 10, 100}
	for i := range want {
		if math.Abs(v[i]-want[i]) > 1e-9 {
			t.Fatalf("LogSpace = %v", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("invalid LogSpace accepted")
		}
	}()
	LogSpace(0, 1, 3)
}
