// Package ld implements the large-deviations machinery of Sections V-A and
// VI of the RCBR paper: log moment generating functions and Legendre
// transforms of finite rate distributions, Chernoff estimates of overflow
// and renegotiation-failure probabilities (eqs. 10-12), and effective
// (equivalent) bandwidths of Markov-modulated sources via spectral radii,
// including the multiple time-scale decomposition of eq. 9.
//
// Conventions: distributions and chains carry rates in any consistent unit
// (bits per slot throughout this repository); buffers are in bits; the decay
// parameter delta has units of 1/bits.
package ld

import (
	"fmt"
	"math"

	"rcbr/internal/markov"
)

// Dist is a finite probability distribution over rate values: P(X = X[i]) =
// P[i]. It is the "traffic descriptor" of Section VI — the fraction of time a
// call spends at each bandwidth level.
type Dist struct {
	P []float64 // probabilities, must sum to ~1
	X []float64 // values (rates)
}

// Validate reports the first problem with the distribution, or nil.
func (d Dist) Validate() error {
	if len(d.P) == 0 || len(d.P) != len(d.X) {
		return fmt.Errorf("ld: distribution needs matching non-empty P and X, got %d/%d",
			len(d.P), len(d.X))
	}
	var sum float64
	for i, p := range d.P {
		if p < 0 || math.IsNaN(p) {
			return fmt.Errorf("ld: P[%d] = %g is negative", i, p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-6 {
		return fmt.Errorf("ld: probabilities sum to %g, want 1", sum)
	}
	return nil
}

// Mean returns E[X].
func (d Dist) Mean() float64 {
	var m float64
	for i, p := range d.P {
		m += p * d.X[i]
	}
	return m
}

// Max returns the largest value with nonzero probability.
func (d Dist) Max() float64 {
	max := math.Inf(-1)
	for i, p := range d.P {
		if p > 0 && d.X[i] > max {
			max = d.X[i]
		}
	}
	return max
}

// LogMGF returns Lambda(s) = log E[e^{sX}], computed stably by factoring out
// the dominant exponent.
func (d Dist) LogMGF(s float64) float64 {
	// max over support of s*x
	m := math.Inf(-1)
	for i, p := range d.P {
		if p > 0 && s*d.X[i] > m {
			m = s * d.X[i]
		}
	}
	if math.IsInf(m, -1) {
		return math.Inf(-1)
	}
	var sum float64
	for i, p := range d.P {
		if p > 0 {
			sum += p * math.Exp(s*d.X[i]-m)
		}
	}
	return m + math.Log(sum)
}

// mgfDeriv returns Lambda'(s) = E[X e^{sX}]/E[e^{sX}], the tilted mean.
func (d Dist) mgfDeriv(s float64) float64 {
	m := math.Inf(-1)
	for i, p := range d.P {
		if p > 0 && s*d.X[i] > m {
			m = s * d.X[i]
		}
	}
	var num, den float64
	for i, p := range d.P {
		if p > 0 {
			w := p * math.Exp(s*d.X[i]-m)
			num += d.X[i] * w
			den += w
		}
	}
	return num / den
}

// RateFunction returns the Cramer rate function
//
//	I(a) = sup_{s >= 0} [ s a - Lambda(s) ],
//
// the exponent in the Chernoff estimate P(sum X_i >= N a) ~ e^{-N I(a)}.
// For a below the mean it is 0 (the event is not rare); for a above the
// maximum support it is +Inf; at the maximum it is -log P(X = max).
func (d Dist) RateFunction(a float64) float64 {
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
	// Lambda' is increasing from mean (s=0) to max (s->inf); solve
	// Lambda'(s*) = a by bracketed bisection, then I(a) = s*a - Lambda(s*).
	lo, hi := 0.0, 1.0
	// Scale the initial bracket to the problem: s has units 1/rate.
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
		if mid == lo || mid == hi {
			// lo and hi are adjacent floats: whichever way the test went,
			// every later midpoint is this one, and so is s below.
			break
		}
		if d.mgfDeriv(mid) < a {
			lo = mid
		} else {
			hi = mid
		}
	}
	s := (lo + hi) / 2
	return s*a - d.LogMGF(s)
}

// ChernoffTail returns the Chernoff estimate of P(mean of n iid copies >= a):
// exp(-n I(a)), the workhorse of eqs. (10)-(12).
func (d Dist) ChernoffTail(a float64, n int) float64 {
	return math.Exp(-float64(n) * d.RateFunction(a))
}

// MaxCalls returns the largest number of calls n such that the Chernoff
// estimate of P(sum of rates >= C) is at most target, i.e. exp(-n I(C/n)) <=
// target. It returns 0 if even one call violates the target.
func (d Dist) MaxCalls(C float64, target float64) int {
	if err := d.Validate(); err != nil {
		return 0
	}
	ok := func(n int) bool {
		if n == 0 {
			return true
		}
		perCall := C / float64(n)
		return d.ChernoffTail(perCall, n) <= target
	}
	// The feasible set {n : ok(n)} is downward closed in practice (more
	// calls -> less capacity per call -> larger failure estimate), so
	// binary search after exponential growth.
	if !ok(1) {
		return 0
	}
	lo, hi := 1, 2
	for ok(hi) {
		lo = hi
		hi *= 2
		if hi > 1<<24 {
			return hi // effectively unconstrained
		}
	}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if ok(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// SpectralRadius returns the largest-magnitude eigenvalue of a non-negative
// matrix via power iteration. It panics on an empty or non-square matrix.
func SpectralRadius(m [][]float64) float64 {
	n := len(m)
	if n == 0 {
		panic("ld: SpectralRadius of empty matrix")
	}
	for i, row := range m {
		if len(row) != n {
			panic(fmt.Sprintf("ld: SpectralRadius row %d has %d entries, want %d", i, len(row), n))
		}
	}
	v := make([]float64, n)
	w := make([]float64, n)
	for i := range v {
		v[i] = 1
	}
	var lambda float64
	for iter := 0; iter < 100000; iter++ {
		var norm float64
		for i := 0; i < n; i++ {
			var s float64
			row := m[i]
			for j := 0; j < n; j++ {
				s += row[j] * v[j]
			}
			w[i] = s
			if s > norm {
				norm = s
			}
		}
		if norm == 0 {
			return 0
		}
		for i := range w {
			w[i] /= norm
		}
		v, w = w, v
		if math.Abs(norm-lambda) < 1e-13*math.Max(1, norm) {
			return norm
		}
		lambda = norm
	}
	return lambda
}

// EffectiveBandwidth returns the equivalent bandwidth of a Markov-modulated
// source at decay rate delta (1/bits):
//
//	EB(delta) = (1/delta) log rho( P diag(e^{delta r}) ),
//
// where rho is the spectral radius. With a buffer of B bits drained at
// c = EB(delta), the overflow probability decays like e^{-delta B}. As
// delta -> 0 the EB tends to the mean rate; as delta -> Inf, to the peak.
func EffectiveBandwidth(c *markov.Chain, delta float64) (float64, error) {
	if err := c.Validate(1e-9); err != nil {
		return 0, err
	}
	if delta <= 0 {
		return c.MeanRate()
	}
	n := c.N()
	// Factor out the largest exponent for stability.
	maxR := c.PeakRate()
	q := make([][]float64, n)
	for i := range q {
		row := make([]float64, n)
		for j := range row {
			row[j] = c.P[i][j] * math.Exp(delta*(c.Rate[j]-maxR))
		}
		q[i] = row
	}
	rho := SpectralRadius(q)
	if rho <= 0 {
		return 0, fmt.Errorf("ld: degenerate spectral radius")
	}
	return maxR + math.Log(rho)/delta, nil
}

// DeltaFor returns the decay rate delta that makes e^{-delta B} equal the
// target overflow probability for a buffer of B bits.
func DeltaFor(B, target float64) (float64, error) {
	if B <= 0 {
		return 0, fmt.Errorf("ld: non-positive buffer %g", B)
	}
	if target <= 0 || target >= 1 {
		return 0, fmt.Errorf("ld: target probability %g outside (0,1)", target)
	}
	return -math.Log(target) / B, nil
}
