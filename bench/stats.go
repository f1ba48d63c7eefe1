package main

import (
	"math"
	"slices"
	"time"
)

// quantile returns the q-quantile (0 <= q <= 1) of sorted by linear
// interpolation between closest ranks, or 0 for an empty sample.
func quantile[T int64 | float64](sorted []T, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return float64(sorted[lo])*(1-frac) + float64(sorted[hi])*frac
}

// sortedCopy returns an ascending copy of xs.
func sortedCopy(xs []int64) []int64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// medianFloat returns the median of xs (the mean of the middle pair for an
// even count), or 0 for an empty slice.
func medianFloat(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return quantile(s, 0.5)
}

// tailLadder is the set of percentiles a tail metric may report, each with
// the least sample count that leaves ten samples beyond it.
var tailLadder = []struct {
	pct  float64
	need int
}{{90, 100}, {99, 1000}, {99.9, 10_000}, {99.99, 100_000}}

// tailPercentile returns the highest ladder percentile that still has at
// least ten of n samples beyond it; under a hundred samples only the
// median is supported.
func tailPercentile(n int) float64 {
	p := 50.0
	for _, step := range tailLadder {
		if n >= step.need {
			p = step.pct
		}
	}
	return p
}

// blockTarget is the length of the blocks a throughput is read from.
// The shared 2-CPU host this benchmark was defined on steals the CPU in
// short, frequent bites whose rate drifts over seconds: the same runs read
// 14.7k-20.6k frames/s as a median over 1 s windows, 17.2k-21.5k over 10 ms
// blocks, and 20.5k-22.1k over blocks of a millisecond, which are mostly
// either bitten or whole (README.md, "Spreads and bounds").
const blockTarget = time.Millisecond

// undisturbed is the quartile every gated timing is read at: the lower
// quartile of a time, the upper quartile of a rate. The host and the
// scheduler only ever add to a time, and where goroutines hand work to each
// other the samples fall into a fast and a slow mode whose shares drift, so
// a median sits in the valley between the modes and jumps with the shares;
// the quartile on the fast side stays inside the fast mode (README.md,
// "Spreads and bounds").
const undisturbed = 0.25

// throughput is a pass's work per second: the upper quartile over short
// blocks of consecutive loop iterations, with how many blocks there were
// and how far apart their quartiles lay as a share of their median.
type throughput struct {
	rate   float64
	blocks int
	spread float64
}

// blockThroughput cuts iterNs, the durations of back-to-back iterations of
// one goroutine's loop that each complete unitsPerIter units of work, into
// blocks of about blockTarget (a whole number of iterations each, so a
// block's time is exact) and returns the upper-quartile block's rate.
func blockThroughput(iterNs []int64, unitsPerIter float64) throughput {
	if len(iterNs) == 0 {
		return throughput{}
	}
	per := int(math.Round(float64(blockTarget) / math.Max(1, quantile(sortedCopy(iterNs), 0.5))))
	per = min(max(per, 1), len(iterNs))
	rates := make([]float64, 0, len(iterNs)/per)
	for i := 0; i+per <= len(iterNs); i += per {
		var ns int64
		for _, d := range iterNs[i : i+per] {
			ns += d
		}
		rates = append(rates, unitsPerIter*float64(per)/(float64(max(ns, 1))*1e-9))
	}
	slices.Sort(rates)
	t := throughput{rate: quantile(rates, 1-undisturbed), blocks: len(rates)}
	if med := quantile(rates, 0.5); med > 0 {
		t.spread = (t.rate - quantile(rates, undisturbed)) / med
	}
	return t
}

// plus combines the throughputs of goroutines working side by side.
func (t throughput) plus(o throughput) throughput {
	return throughput{rate: t.rate + o.rate, blocks: t.blocks + o.blocks, spread: math.Max(t.spread, o.spread)}
}
