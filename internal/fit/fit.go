// Package fit estimates a multiple time-scale Markov model from a measured
// frame-size trace — the inverse of the paper's Section V-A analysis, which
// presumes such a model is available. The procedure mirrors how the paper
// describes compressed video: the slow time scale is the smoothed (scene-
// level) rate, quantized into K activity classes, each class a fast
// subchain whose internal two-state dynamics capture the residual
// variation; the rare transitions between classes give the slow chain.
//
// The fitted model feeds the large-deviations machinery of package ld:
// equivalent bandwidths per subchain (eq. 9), shared-buffer loss (eq. 10)
// and RCBR renegotiation-failure (eq. 11) estimates for real traffic, not
// just hand-built examples.
package fit

import (
	"fmt"
	"math"
	"sort"

	"rcbr/internal/markov"
	"rcbr/internal/trace"
)

// Options tunes the fitting procedure.
type Options struct {
	// Classes is the number of slow time-scale activity classes K.
	Classes int
	// WindowSlots is the smoothing window separating slow from fast
	// dynamics (one second of frames is the paper's natural choice).
	WindowSlots int
}

// DefaultOptions returns K = 4 classes and a one-second window at the
// trace's frame rate.
func DefaultOptions(tr *trace.Trace) Options {
	w := int(math.Round(tr.FPS))
	if w < 1 {
		w = 1
	}
	return Options{Classes: 4, WindowSlots: w}
}

// Model is the fitted multiple time-scale source.
type Model struct {
	// MTS is the fitted model: one subchain per activity class.
	MTS *markov.MTS
	// ClassMeans are the per-class mean rates (bits/slot), ascending.
	ClassMeans []float64
	// ClassShare is each class's fraction of time.
	ClassShare []float64
	// MeanDwellSlots is the average run length within a class, the slow
	// time-scale constant; Epsilon = 1/MeanDwellSlots.
	MeanDwellSlots float64
	// Labels assigns every slot to its class.
	Labels []int
}

// Fit estimates a model from the trace.
func Fit(tr *trace.Trace, opt Options) (*Model, error) {
	if tr == nil || tr.Len() == 0 {
		return nil, fmt.Errorf("fit: empty trace")
	}
	if opt.Classes < 2 {
		return nil, fmt.Errorf("fit: need at least 2 classes, got %d", opt.Classes)
	}
	if opt.WindowSlots < 1 {
		return nil, fmt.Errorf("fit: window must be at least 1 slot")
	}
	if tr.Len() < opt.Classes*opt.WindowSlots*2 {
		return nil, fmt.Errorf("fit: trace too short (%d slots) for %d classes at window %d",
			tr.Len(), opt.Classes, opt.WindowSlots)
	}

	// 1. Smooth: per-slot rate averaged over the window (bits per slot).
	smooth := smoothed(tr, opt.WindowSlots)

	// 2. Quantize the smoothed rate into K classes at equal-population
	//    quantile boundaries (robust against heavy tails).
	bounds := quantileBounds(smooth, opt.Classes)
	labels := make([]int, len(smooth))
	for i, v := range smooth {
		labels[i] = classify(v, bounds)
	}
	// De-chatter: the smoothed rate hovering at a boundary flips labels at
	// the fast time scale; runs shorter than the window are not scenes.
	// Merge them into the preceding run.
	mergeShortRuns(labels, opt.WindowSlots)

	// 3. Per-class statistics over the RAW frame sizes (the fast dynamics
	//    live inside the class).
	k := opt.Classes
	sums := make([]float64, k)
	sqs := make([]float64, k)
	counts := make([]float64, k)
	for i, fb := range tr.FrameBits {
		c := labels[i]
		v := float64(fb)
		sums[c] += v
		sqs[c] += v * v
		counts[c]++
	}

	// 4. Slow dynamics: mean dwell time in a class.
	runs := 1
	for i := 1; i < len(labels); i++ {
		if labels[i] != labels[i-1] {
			runs++
		}
	}
	meanDwell := float64(len(labels)) / float64(runs)
	eps := 1 / meanDwell

	// 5. Build one two-state fast subchain per class: states at
	//    mean -/+ sigma with symmetric switching, preserving the class
	//    mean and variance (a moment-matched birth-death pair).
	subs := make([]markov.Subchain, 0, k)
	means := make([]float64, 0, k)
	shares := make([]float64, 0, k)
	total := float64(len(labels))
	for c := 0; c < k; c++ {
		if counts[c] == 0 {
			continue // degenerate class (possible on tiny traces)
		}
		mean := sums[c] / counts[c]
		variance := sqs[c]/counts[c] - mean*mean
		if variance < 0 {
			variance = 0
		}
		sigma := math.Sqrt(variance)
		lo := mean - sigma
		if lo < 0 {
			// Preserve the mean with an asymmetric pair when the rate
			// cannot go negative: states 0 and 2*mean.
			lo = 0
			sigma = mean
		}
		hi := mean + sigma
		// Fast switching at GOP scale: dwell ~6 slots per state.
		const fastP = 1.0 / 6
		chain := &markov.Chain{
			P: [][]float64{
				{1 - fastP, fastP},
				{fastP, 1 - fastP},
			},
			Rate: []float64{lo, hi},
		}
		subs = append(subs, markov.Subchain{Chain: chain, Weight: counts[c] / total})
		means = append(means, mean)
		shares = append(shares, counts[c]/total)
	}
	if len(subs) < 2 {
		return nil, fmt.Errorf("fit: trace collapses to a single class")
	}
	m := &markov.MTS{Subchains: subs, Epsilon: eps}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("fit: %w", err)
	}
	return &Model{
		MTS:            m,
		ClassMeans:     means,
		ClassShare:     shares,
		MeanDwellSlots: meanDwell,
		Labels:         labels,
	}, nil
}

// smoothed returns the centered moving average of frame sizes (bits/slot).
func smoothed(tr *trace.Trace, w int) []float64 {
	n := tr.Len()
	out := make([]float64, n)
	var sum float64
	// Trailing window; centered makes little difference at scene scale.
	for i := 0; i < n; i++ {
		sum += float64(tr.FrameBits[i])
		if i >= w {
			sum -= float64(tr.FrameBits[i-w])
		}
		span := w
		if i+1 < w {
			span = i + 1
		}
		out[i] = sum / float64(span)
	}
	return out
}

// quantileBounds returns k-1 ascending boundaries at equal-population
// quantiles, deduplicated.
func quantileBounds(xs []float64, k int) []float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	bounds := make([]float64, 0, k-1)
	for i := 1; i < k; i++ {
		q := sorted[i*len(sorted)/k]
		if len(bounds) == 0 || q > bounds[len(bounds)-1] {
			bounds = append(bounds, q)
		}
	}
	return bounds
}

// classify returns the class index of v given ascending boundaries.
func classify(v float64, bounds []float64) int {
	return sort.SearchFloat64s(bounds, v)
}

// mergeShortRuns relabels maximal runs shorter than minRun to the class of
// the preceding run (the first run merges forward instead). One pass may
// create new short runs by merging; iterate until stable or a few rounds.
func mergeShortRuns(labels []int, minRun int) {
	if minRun <= 1 || len(labels) == 0 {
		return
	}
	for round := 0; round < 4; round++ {
		changed := false
		i := 0
		for i < len(labels) {
			j := i
			for j < len(labels) && labels[j] == labels[i] {
				j++
			}
			if j-i < minRun {
				fill := -1
				if i > 0 {
					fill = labels[i-1]
				} else if j < len(labels) {
					fill = labels[j]
				}
				if fill >= 0 && fill != labels[i] {
					for k := i; k < j; k++ {
						labels[k] = fill
					}
					changed = true
				}
			}
			i = j
		}
		if !changed {
			return
		}
	}
}
