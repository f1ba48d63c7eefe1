package shaper

import (
	"math"
	"testing"
	"testing/quick"

	"rcbr/internal/stats"
	"rcbr/internal/trace"
)

func TestBucketBasics(t *testing.T) {
	tb := New(100, 50) // 100 b/s, 50 b deep, starts full
	if tb.Rate() != 100 || tb.Depth() != 50 || tb.Tokens() != 50 {
		t.Fatalf("bucket %+v", tb)
	}
	if tb.Take(51) || tb.Tokens() != 50 {
		t.Fatalf("overdraw at the boundary left %v tokens", tb.Tokens())
	}
	if !tb.Take(30) {
		t.Fatal("take within tokens failed")
	}
	if tb.Tokens() != 20 {
		t.Fatalf("tokens = %v", tb.Tokens())
	}
	if tb.Take(21) {
		t.Fatal("overdraw allowed")
	}
	tb.Tick(0.1) // +10 tokens
	if math.Abs(tb.Tokens()-30) > 1e-12 {
		t.Fatalf("tokens after tick = %v", tb.Tokens())
	}
	tb.Tick(100) // cap at depth
	if tb.Tokens() != 50 {
		t.Fatalf("tokens not capped: %v", tb.Tokens())
	}
	if got := tb.TakeUpTo(80); got != 50 {
		t.Fatalf("TakeUpTo = %v", got)
	}
}

func TestSetRate(t *testing.T) {
	tb := New(100, 50)
	if !tb.Take(50) {
		t.Fatal("full bucket refused 50")
	}
	tb.SetRate(10)
	if tb.Rate() != 10 {
		t.Fatalf("Rate() = %g after SetRate(10)", tb.Rate())
	}
	if tb.Tokens() != 0 {
		t.Fatalf("SetRate disturbed the token level: %g", tb.Tokens())
	}
	tb.Tick(1) // one second at the new rate
	if tb.Tokens() != 10 {
		t.Fatalf("tokens after retarget+tick = %g, want 10", tb.Tokens())
	}
	tb.SetRate(0)
	tb.Tick(100)
	if tb.Tokens() != 10 {
		t.Fatalf("zero-rate bucket refilled: %g", tb.Tokens())
	}
}

// TestRefillIsMin pins Refill's compare to the math.Min it replaced: bit for
// bit the same level over finite non-negative operands — the only ones a
// validated bucket holds — including the scales a cell path lives at
// (nanosecond ticks, a level a few hundred bits under the depth).
func TestRefillIsMin(t *testing.T) {
	same := func(tokens, rate, dt, depth float64) bool {
		return math.Float64bits(Refill(tokens, rate, dt, depth)) ==
			math.Float64bits(math.Min(depth, tokens+rate*dt))
	}
	for _, c := range [][4]float64{
		{0, 0, 0, 0}, {0, 0, 1, 5}, {5, 0, 1, 5}, {5, 1, 0, 5}, {4, 1, 1, 5}, {4, 1, 2, 5},
		{0, math.MaxFloat64, math.MaxFloat64, 1}, // rate*dt overflows to +Inf
		{12288 - 384, 1e6, 384e-6, 12288},        // refills to the depth exactly
	} {
		if !same(c[0], c[1], c[2], c[3]) {
			t.Errorf("Refill(%v) = %g, math.Min gives %g", c, Refill(c[0], c[1], c[2], c[3]), math.Min(c[3], c[0]+c[1]*c[2]))
		}
	}
	wide := func(tokens, rate, dt, depth float64) bool {
		return same(math.Abs(tokens), math.Abs(rate), math.Abs(dt), math.Abs(depth))
	}
	if err := quick.Check(wide, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
	// quick draws from the whole float64 range; these are a policer's.
	cellScale := func(tokens, cells, nanos uint32, depthCells uint8) bool {
		depth := float64(depthCells) * 384
		return same(math.Mod(float64(tokens), depth+1), float64(cells)*384, float64(nanos)*1e-9, depth)
	}
	if err := quick.Check(cellScale, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
}

func TestBucketPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"neg rate":    func() { New(-1, 1) },
		"neg depth":   func() { New(1, -1) },
		"neg tick":    func() { New(1, 1).Tick(-1) },
		"neg take":    func() { New(1, 1).Take(-1) },
		"neg upto":    func() { New(1, 1).TakeUpTo(-1) },
		"setrate neg": func() { New(1, 1).SetRate(-1) },
		"setrate nan": func() { New(1, 1).SetRate(math.NaN()) },
		"setrate inf": func() { New(1, 1).SetRate(math.Inf(1)) },
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

func TestPoliceConformantPasses(t *testing.T) {
	// Constant 100 b/frame at 1 fps with rate 100: fully conformant.
	tr := trace.New([]int64{100, 100, 100, 100}, 1)
	res := Police(tr, 100, 100)
	if res.DroppedBits != 0 || res.PassedBits != 400 {
		t.Fatalf("police %+v", res)
	}
	if res.LossFraction() != 0 {
		t.Fatal("loss fraction")
	}
}

func TestPoliceDropsExcess(t *testing.T) {
	// A burst beyond rate+depth is dropped.
	tr := trace.New([]int64{500, 0, 0}, 1)
	res := Police(tr, 100, 100) // tokens at slot 1: min(100+100,? ) bucket starts full: 100, tick adds 100 cap 100 -> 100+... cap at depth 100
	// At slot 0: tick -> 100 tokens; take up to 500 -> 100 pass, 400 drop.
	if res.PassedBits != 100 || res.DroppedBits != 400 {
		t.Fatalf("police %+v", res)
	}
	if f := res.LossFraction(); f != 0.8 {
		t.Fatalf("loss = %v", f)
	}
}

func TestShapeDelaysInsteadOfDropping(t *testing.T) {
	tr := trace.New([]int64{500, 0, 0, 0, 0}, 1)
	res := Shape(tr, 100, 100)
	// Slot 0: 100 tokens, backlog 500-100=400; then 100/slot drains.
	if res.MaxBacklogBits != 400 {
		t.Fatalf("max backlog = %v", res.MaxBacklogBits)
	}
	if res.MaxDelaySec != 4 {
		t.Fatalf("max delay = %v", res.MaxDelaySec)
	}
	if res.FinalBacklog != 0 {
		t.Fatalf("final backlog = %v", res.FinalBacklog)
	}
}

func TestMinDepthClosedForm(t *testing.T) {
	tr := trace.New([]int64{500, 0, 0}, 1)
	// The bucket starts full and the slot-0 tick is wasted on a full
	// bucket, so a slot-0 burst needs the full 500 of depth.
	if d := MinDepth(tr, 100); d != 500 {
		t.Fatalf("MinDepth = %v", d)
	}
	// Idle slots cannot bank beyond the depth (the bucket starts full),
	// so a late burst needs the same depth.
	tr2 := trace.New([]int64{0, 0, 500}, 1)
	if d := MinDepth(tr2, 100); d != 500 {
		t.Fatalf("MinDepth(late burst) = %v, want 500", d)
	}
	// Refill during a busy period does help.
	tr3 := trace.New([]int64{300, 300, 0}, 1)
	if d := MinDepth(tr3, 100); d != 500 {
		t.Fatalf("MinDepth(busy period) = %v, want 500 (600 arrivals - 100 refill)", d)
	}
	// Zero rate: depth must hold the entire trace.
	if d := MinDepth(tr, 0); d != 500 {
		t.Fatalf("MinDepth at 0 = %v", d)
	}
}

func TestMinDepthMakesTraceConformant(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		bits := make([]int64, 50)
		for i := range bits {
			bits[i] = int64(r.Intn(1000))
		}
		tr := trace.New(bits, 4)
		rate := 100 + r.Float64()*3000
		d := MinDepth(tr, rate)
		// Policing with b*(r) drops nothing...
		if res := Police(tr, rate, d); res.DroppedBits > 1e-6 {
			return false
		}
		// ...and with slightly less it does (when d > 0).
		if d > 1 {
			if res := Police(tr, rate, d*0.95); res.DroppedBits <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBurstinessCurveMonotone(t *testing.T) {
	tr := trace.SyntheticStarWarsFrames(61, 4800)
	rates := []float64{0.8e5, 2e5, 374e3, 8e5, 1.6e6, 3.2e6}
	for i := 1; i < len(rates); i++ {
		if lo, hi := MinDepth(tr, rates[i-1]), MinDepth(tr, rates[i]); hi > lo {
			t.Fatalf("b*(r) must be non-increasing: b*(%g) = %g < b*(%g) = %g", rates[i-1], lo, rates[i], hi)
		}
	}
}

func TestSectionIIDilemma(t *testing.T) {
	// The paper's Section II argument, quantitatively: for multiple
	// time-scale traffic, a token rate near the long-term mean requires a
	// bucket (and hence network buffers / loss exposure) of tens of
	// megabits, because sustained peaks last tens of seconds.
	tr := trace.SyntheticStarWarsFrames(62, 28800) // 20 min
	mean := tr.MeanRate()
	atMean := MinDepth(tr, 1.05*mean)
	if atMean < 5e6 {
		t.Fatalf("b*(1.05 mean) = %v bits; expected tens of Mb for MTS traffic", atMean)
	}
	// Only as r approaches the sustained peak does b* collapse toward the
	// RCBR-like regime of a few hundred kb.
	at4x := MinDepth(tr, 4.6*mean)
	if at4x > 1e6 {
		t.Fatalf("b*(4.6 mean) = %v bits; expected < 1 Mb", at4x)
	}
	if atMean < 10*at4x {
		t.Fatalf("burstiness curve too flat: b*(1.05m)=%v vs b*(4.6m)=%v", atMean, at4x)
	}
	// Policing at the mean with a small bucket loses far more than any
	// video QoS tolerates.
	res := Police(tr, 1.05*mean, 300e3)
	if res.LossFraction() < 1e-3 {
		t.Fatalf("policing loss = %v; expected heavy loss", res.LossFraction())
	}
	// Shaping instead incurs multi-second delays.
	sres := Shape(tr, 1.05*mean, 300e3)
	if sres.MaxDelaySec < 2 {
		t.Fatalf("shaping delay = %v s; expected seconds", sres.MaxDelaySec)
	}
}

func TestValidate(t *testing.T) {
	if err := Validate(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := Validate(-1, 1); err == nil {
		t.Fatal("negative rate accepted")
	}
	if err := Validate(1, math.NaN()); err == nil {
		t.Fatal("NaN depth accepted")
	}
}
