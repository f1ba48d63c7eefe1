// Package markov implements the discrete-time Markov-modulated source models
// of Section V-A of the RCBR paper: finite-state chains with a per-state data
// rate, and the multiple time-scale construction in which the state space
// decomposes into fast time-scale subchains connected by rare transitions
// (Fig. 4). The package also computes stationary distributions; the
// large-deviations quantities built on these chains live in package ld.
package markov

import (
	"fmt"
	"math"
)

// Chain is a discrete-time Markov chain with a data-generation rate attached
// to every state. P[i][j] is the probability of moving from state i to state
// j in one slot; Rate[i] is the amount of data (bits per slot, or any
// consistent unit) generated while in state i.
type Chain struct {
	P    [][]float64
	Rate []float64
}

// Validate reports the first structural problem with the chain, or nil. Rows
// must be stochastic to within tol.
func (c *Chain) Validate(tol float64) error {
	n := len(c.Rate)
	if n == 0 {
		return fmt.Errorf("markov: empty chain")
	}
	if len(c.P) != n {
		return fmt.Errorf("markov: %d rates but %d transition rows", n, len(c.P))
	}
	for i, row := range c.P {
		if len(row) != n {
			return fmt.Errorf("markov: row %d has %d entries, want %d", i, len(row), n)
		}
		var sum float64
		for j, p := range row {
			if p < -tol || math.IsNaN(p) {
				return fmt.Errorf("markov: P[%d][%d] = %g is negative", i, j, p)
			}
			sum += p
		}
		if math.Abs(sum-1) > tol {
			return fmt.Errorf("markov: row %d sums to %g, want 1", i, sum)
		}
	}
	for i, r := range c.Rate {
		if r < 0 || math.IsNaN(r) {
			return fmt.Errorf("markov: rate[%d] = %g is negative", i, r)
		}
	}
	return nil
}

// N returns the number of states.
func (c *Chain) N() int { return len(c.Rate) }

// Stationary returns the stationary distribution pi solving pi = pi P, via
// power iteration from the uniform distribution. It returns an error if the
// iteration fails to converge, which for an irreducible aperiodic chain it
// will not.
func (c *Chain) Stationary() ([]float64, error) {
	n := c.N()
	if n == 0 {
		return nil, fmt.Errorf("markov: empty chain")
	}
	pi := make([]float64, n)
	next := make([]float64, n)
	for i := range pi {
		pi[i] = 1 / float64(n)
	}
	const maxIter = 200000
	for iter := 0; iter < maxIter; iter++ {
		for j := range next {
			next[j] = 0
		}
		for i, p := range pi {
			if p == 0 {
				continue
			}
			for j, q := range c.P[i] {
				next[j] += p * q
			}
		}
		var diff, sum float64
		for j := range next {
			diff += math.Abs(next[j] - pi[j])
			sum += next[j]
		}
		// Renormalize to absorb floating-point drift.
		for j := range next {
			next[j] /= sum
		}
		pi, next = next, pi
		if diff < 1e-14 {
			return pi, nil
		}
	}
	return nil, fmt.Errorf("markov: stationary distribution did not converge")
}

// MeanRate returns the stationary mean data rate sum_i pi_i Rate_i.
func (c *Chain) MeanRate() (float64, error) {
	pi, err := c.Stationary()
	if err != nil {
		return 0, err
	}
	var m float64
	for i, p := range pi {
		m += p * c.Rate[i]
	}
	return m, nil
}

// PeakRate returns the largest per-state rate.
func (c *Chain) PeakRate() float64 {
	var max float64
	for _, r := range c.Rate {
		if r > max {
			max = r
		}
	}
	return max
}

// TwoState returns the classical on-off fluid source: off rate 0, on rate
// `on`, with P(off->on) = up and P(on->off) = down per slot.
func TwoState(on, up, down float64) *Chain {
	return &Chain{
		P: [][]float64{
			{1 - up, up},
			{down, 1 - down},
		},
		Rate: []float64{0, on},
	}
}
