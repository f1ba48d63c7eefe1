package ld

import (
	"math"
	"testing"
	"testing/quick"

	"rcbr/internal/markov"
	"rcbr/internal/stats"
)

func bernoulli(p float64) Dist {
	return Dist{P: []float64{1 - p, p}, X: []float64{0, 1}}
}

func TestDistValidate(t *testing.T) {
	if err := bernoulli(0.3).Validate(); err != nil {
		t.Fatalf("valid dist rejected: %v", err)
	}
	bad := []Dist{
		{},
		{P: []float64{1}, X: []float64{1, 2}},
		{P: []float64{0.5, 0.4}, X: []float64{0, 1}},
		{P: []float64{-0.5, 1.5}, X: []float64{0, 1}},
	}
	for i, d := range bad {
		if err := d.Validate(); err == nil {
			t.Errorf("bad dist %d accepted", i)
		}
	}
}

func TestMeanMax(t *testing.T) {
	d := Dist{P: []float64{0.25, 0.5, 0.25}, X: []float64{1, 2, 4}}
	if m := d.Mean(); m != 2.25 {
		t.Fatalf("Mean = %v", m)
	}
	if x := d.Max(); x != 4 {
		t.Fatalf("Max = %v", x)
	}
	// Zero-probability points do not count toward the max.
	d2 := Dist{P: []float64{1, 0}, X: []float64{1, 100}}
	if x := d2.Max(); x != 1 {
		t.Fatalf("Max with zero-prob point = %v", x)
	}
}

func TestLogMGFDirect(t *testing.T) {
	d := bernoulli(0.3)
	for _, s := range []float64{-2, -0.5, 0, 0.5, 2, 10} {
		want := math.Log(0.7 + 0.3*math.Exp(s))
		if got := d.LogMGF(s); math.Abs(got-want) > 1e-12 {
			t.Fatalf("LogMGF(%v) = %v, want %v", s, got, want)
		}
	}
	if got := d.LogMGF(0); math.Abs(got) > 1e-15 {
		t.Fatalf("LogMGF(0) = %v, want 0", got)
	}
}

func TestLogMGFStability(t *testing.T) {
	// Huge rates would overflow a naive implementation.
	d := Dist{P: []float64{0.5, 0.5}, X: []float64{1e6, 2e6}}
	got := d.LogMGF(1)
	want := 2e6 + math.Log(0.5*(1+math.Exp(-1e6)))
	if math.Abs(got-want) > 1e-6 {
		t.Fatalf("LogMGF = %v, want %v", got, want)
	}
}

func TestRateFunctionBernoulliKL(t *testing.T) {
	// For Bernoulli(p), I(a) = a ln(a/p) + (1-a) ln((1-a)/(1-p)).
	p := 0.2
	d := bernoulli(p)
	for _, a := range []float64{0.3, 0.5, 0.7, 0.9, 0.99} {
		want := a*math.Log(a/p) + (1-a)*math.Log((1-a)/(1-p))
		got := d.RateFunction(a)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("I(%v) = %v, want %v", a, got, want)
		}
	}
}

func TestRateFunctionEdges(t *testing.T) {
	d := bernoulli(0.2)
	if got := d.RateFunction(0.1); got != 0 {
		t.Fatalf("I below mean = %v, want 0", got)
	}
	if got := d.RateFunction(0.2); got != 0 {
		t.Fatalf("I at mean = %v, want 0", got)
	}
	if got := d.RateFunction(1); math.Abs(got-(-math.Log(0.2))) > 1e-12 {
		t.Fatalf("I at max = %v, want %v", got, -math.Log(0.2))
	}
	if got := d.RateFunction(1.5); !math.IsInf(got, 1) {
		t.Fatalf("I above max = %v, want +Inf", got)
	}
}

func TestRateFunctionMonotone(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		n := 2 + r.Intn(4)
		p := make([]float64, n)
		x := make([]float64, n)
		var sum float64
		for i := range p {
			p[i] = 0.05 + r.Float64()
			sum += p[i]
			x[i] = float64(i) * (1 + r.Float64())
		}
		for i := range p {
			p[i] /= sum
		}
		d := Dist{P: p, X: x}
		mean, max := d.Mean(), d.Max()
		prev := 0.0
		for k := 1; k <= 10; k++ {
			a := mean + (max-mean)*float64(k)/11
			v := d.RateFunction(a)
			if v < prev-1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestChernoffTailDecreasesWithN(t *testing.T) {
	d := bernoulli(0.3)
	p10 := d.ChernoffTail(0.6, 10)
	p100 := d.ChernoffTail(0.6, 100)
	if !(p100 < p10 && p10 < 1) {
		t.Fatalf("Chernoff not decreasing: n=10 %v, n=100 %v", p10, p100)
	}
}

func TestMaxCallsBoundary(t *testing.T) {
	d := Dist{P: []float64{0.8, 0.2}, X: []float64{100, 500}}
	C := 3000.0
	target := 1e-3
	n := d.MaxCalls(C, target)
	if n <= 0 {
		t.Fatalf("MaxCalls = %d", n)
	}
	if got := d.ChernoffTail(C/float64(n), n); got > target {
		t.Fatalf("n=%d violates target: %v", n, got)
	}
	if got := d.ChernoffTail(C/float64(n+1), n+1); got <= target {
		t.Fatalf("n+1=%d still meets target: %v (MaxCalls not maximal)", n+1, got)
	}
	// Capacity below one peak but above mean: some calls may still fit.
	if d.MaxCalls(0, target) != 0 {
		t.Fatal("zero capacity must admit zero calls")
	}
}

func TestSpectralRadiusKnown(t *testing.T) {
	cases := []struct {
		m    [][]float64
		want float64
	}{
		{[][]float64{{3}}, 3},
		{[][]float64{{2, 0}, {0, 3}}, 3},
		{[][]float64{{0.5, 0.5}, {0.25, 0.75}}, 1}, // stochastic
		{[][]float64{{0, 1}, {1, 0}}, 1},
		{[][]float64{{1, 2}, {2, 1}}, 3},
		{[][]float64{{0, 0}, {0, 0}}, 0},
	}
	for i, c := range cases {
		if got := SpectralRadius(c.m); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("case %d: rho = %v, want %v", i, got, c.want)
		}
	}
}

func TestSpectralRadiusPanics(t *testing.T) {
	for name, m := range map[string][][]float64{
		"empty":      {},
		"not square": {{1, 2}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			SpectralRadius(m)
		}()
	}
}

func TestEffectiveBandwidthBounds(t *testing.T) {
	c := markov.TwoState(100, 0.1, 0.3) // mean 25, peak 100
	mean, _ := c.MeanRate()
	prev := mean
	for _, delta := range []float64{1e-6, 1e-4, 1e-2, 1e-1, 1} {
		eb, err := EffectiveBandwidth(c, delta)
		if err != nil {
			t.Fatal(err)
		}
		if eb < mean-1e-6 || eb > c.PeakRate()+1e-6 {
			t.Fatalf("EB(%v) = %v outside [mean, peak]", delta, eb)
		}
		if eb < prev-1e-9 {
			t.Fatalf("EB not increasing in delta at %v: %v < %v", delta, eb, prev)
		}
		prev = eb
	}
	// delta -> 0 limit is the mean.
	eb0, err := EffectiveBandwidth(c, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(eb0-mean) > 0.1 {
		t.Fatalf("EB(~0) = %v, want ~mean %v", eb0, mean)
	}
	// Large delta approaches the peak.
	ebInf, err := EffectiveBandwidth(c, 10)
	if err != nil {
		t.Fatal(err)
	}
	if ebInf < 0.9*c.PeakRate() {
		t.Fatalf("EB(large) = %v, want near peak %v", ebInf, c.PeakRate())
	}
}

func TestEffectiveBandwidthOnOffClosedForm(t *testing.T) {
	// For a two-state on-off source the EB solves a quadratic; check
	// against the classical Anick-Mitra-Sondhi-style formula via direct
	// eigenvalue computation of the 2x2 tilted matrix.
	up, down, on := 0.2, 0.4, 50.0
	c := markov.TwoState(on, up, down)
	delta := 0.05
	// Tilted matrix [[ (1-up), up*e^{d*on}], [down, (1-down) e^{d*on}]]
	a := 1 - up
	b := up * math.Exp(delta*on)
	d2 := down
	e := (1 - down) * math.Exp(delta*on)
	tr := a + e
	det := a*e - b*d2
	rho := (tr + math.Sqrt(tr*tr-4*det)) / 2
	want := math.Log(rho) / delta
	got, err := EffectiveBandwidth(c, delta)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-6*want {
		t.Fatalf("EB = %v, want %v", got, want)
	}
}

func TestEffectiveBandwidthDecreasesWithBuffer(t *testing.T) {
	c := markov.TwoState(100, 0.1, 0.3)
	eb := func(B float64) float64 {
		delta, err := DeltaFor(B, 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		got, err := EffectiveBandwidth(c, delta)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	small, large := eb(10), eb(1000)
	if large >= small {
		t.Fatalf("EB must shrink with buffer: B=10 %v, B=1000 %v", small, large)
	}
}

func TestDeltaForValidation(t *testing.T) {
	if _, err := DeltaFor(0, 1e-6); err == nil {
		t.Error("zero buffer accepted")
	}
	if _, err := DeltaFor(100, 0); err == nil {
		t.Error("zero target accepted")
	}
	if _, err := DeltaFor(100, 1); err == nil {
		t.Error("target 1 accepted")
	}
	d, err := DeltaFor(100, math.Exp(-5))
	if err != nil || math.Abs(d-0.05) > 1e-12 {
		t.Fatalf("DeltaFor = %v, %v", d, err)
	}
}

// rateFunction200 is RateFunction as it was before its bisection learned to
// stop: always 200 halvings of the bracket. It is the reference the early
// stop is held to.
func rateFunction200(d Dist, a float64) float64 {
	mean := d.Mean()
	if a <= mean {
		return 0
	}
	max := d.Max()
	if a > max {
		return math.Inf(1)
	}
	if a == max {
		var pmax float64
		for i, p := range d.P {
			if p > 0 && d.X[i] == max {
				pmax += p
			}
		}
		return -math.Log(pmax)
	}
	lo, hi := 0.0, 1.0
	if max > 0 {
		hi = 1 / max
	}
	for iter := 0; d.mgfDeriv(hi) < a; iter++ {
		hi *= 2
		if iter > 200 {
			return math.Inf(1)
		}
	}
	for iter := 0; iter < 200; iter++ {
		mid := (lo + hi) / 2
		if d.mgfDeriv(mid) < a {
			lo = mid
		} else {
			hi = mid
		}
	}
	s := (lo + hi) / 2
	return s*a - d.LogMGF(s)
}

// TestRateFunctionStopsWithTheSameBits holds RateFunction's early stop to
// the 200-step bisection bit for bit, over a seeded table of distributions
// — up to seven levels, rates from cells per second to gigabits, masses down
// to 1e-12, zero masses, levels a hair apart — each at arguments from just
// above the mean to just below the peak.
func TestRateFunctionStopsWithTheSameBits(t *testing.T) {
	r := stats.NewRNG(31)
	for k := 0; k < 400; k++ {
		n := 1 + r.Intn(7)
		scale := math.Pow(10, float64(r.Intn(10)))
		p, x := make([]float64, n), make([]float64, n)
		var sum, at float64
		for i := range p {
			switch r.Intn(5) {
			case 0:
				p[i] = 1e-12 * r.Float64()
			case 1:
				p[i] = 0
			default:
				p[i] = r.Float64()
			}
			if r.Intn(4) == 0 {
				at = math.Nextafter(at, math.Inf(1)) // a level a hair above the last
			} else {
				at += scale * (0.1 + r.Float64())
			}
			sum += p[i]
			x[i] = at
		}
		if sum == 0 {
			p[n-1], sum = 1, 1
		}
		for i := range p {
			p[i] /= sum
		}
		d := Dist{P: p, X: x}
		mean, max := d.Mean(), d.Max()
		args := []float64{math.Nextafter(mean, max), math.Nextafter(max, mean), max, mean}
		for j := 0; j < 8; j++ {
			args = append(args, mean+(max-mean)*r.Float64())
		}
		for _, a := range args {
			got, want := d.RateFunction(a), rateFunction200(d, a)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("dist %d %+v: RateFunction(%v) = %v, the 200-step bisection %v", k, d, a, got, want)
			}
		}
	}
}
