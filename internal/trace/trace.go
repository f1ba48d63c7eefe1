// Package trace provides frame-size traces of compressed video: the Trace
// type with statistics, text serialization, and a synthetic
// multiple-time-scale MPEG generator calibrated to the published statistics
// of the MPEG-1 Star Wars trace used in the RCBR paper.
//
// The paper's experiments all run over a two-hour trace of per-frame bit
// counts at 24 frames/s with a long-term average rate of 374 kb/s and
// sustained peaks of roughly five times the average lasting over ten
// seconds. Since the original trace is not distributable,
// SyntheticStarWarsFrames regenerates a trace with the same multiple-time-scale structure; see
// DESIGN.md for the substitution argument.
package trace

import (
	"errors"
	"fmt"
	"math"
)

// Trace is a sequence of frame sizes in bits at a fixed frame rate. The slot
// duration used throughout the repository is one frame time, 1/FPS seconds.
type Trace struct {
	// FrameBits holds the size of each frame in bits.
	FrameBits []int64
	// FPS is the frame rate in frames per second (the paper's traces run at
	// 24 frames/s).
	FPS float64
}

// ErrEmpty is returned by operations that need at least one frame.
var ErrEmpty = errors.New("trace: empty trace")

// New returns a trace over the given frame sizes. It panics if fps is not a
// positive finite number or any frame size is negative; a trace is a
// measurement and cannot contain negative data.
func New(frameBits []int64, fps float64) *Trace {
	if !(fps > 0) || math.IsInf(fps, 1) {
		panic("trace: fps not positive and finite")
	}
	for i, b := range frameBits {
		if b < 0 {
			panic(fmt.Sprintf("trace: negative frame size at index %d", i))
		}
	}
	return &Trace{FrameBits: frameBits, FPS: fps}
}

// Len returns the number of frames.
func (t *Trace) Len() int { return len(t.FrameBits) }

// SlotSeconds returns the duration of one slot (frame) in seconds.
func (t *Trace) SlotSeconds() float64 { return 1 / t.FPS }

// Duration returns the trace length in seconds.
func (t *Trace) Duration() float64 { return float64(t.Len()) / t.FPS }

// TotalBits returns the sum of all frame sizes.
func (t *Trace) TotalBits() int64 {
	var s int64
	for _, b := range t.FrameBits {
		s += b
	}
	return s
}

// MeanRate returns the long-term average rate in bits/second, or 0 for an
// empty trace.
func (t *Trace) MeanRate() float64 {
	if t.Len() == 0 {
		return 0
	}
	return float64(t.TotalBits()) / t.Duration()
}

// PeakFrameRate returns the largest single-frame rate in bits/second.
func (t *Trace) PeakFrameRate() float64 {
	var max int64
	for _, b := range t.FrameBits {
		if b > max {
			max = b
		}
	}
	return float64(max) * t.FPS
}

// Rate returns the arrival rate during slot i in bits/second.
func (t *Trace) Rate(i int) float64 { return float64(t.FrameBits[i]) * t.FPS }

// MaxWindowBits returns the largest sum of n consecutive frame sizes. The
// paper sizes the 300 kb source buffer as "slightly more than the maximum
// size of three consecutive frames".
func (t *Trace) MaxWindowBits(n int) int64 {
	if n <= 0 || t.Len() == 0 {
		return 0
	}
	if n > t.Len() {
		n = t.Len()
	}
	var window, max int64
	for i := 0; i < n; i++ {
		window += t.FrameBits[i]
	}
	max = window
	for i := n; i < t.Len(); i++ {
		window += t.FrameBits[i] - t.FrameBits[i-n]
		if window > max {
			max = window
		}
	}
	return max
}

// Slice returns a sub-trace covering frames [lo, hi).
func (t *Trace) Slice(lo, hi int) *Trace {
	if lo < 0 || hi > t.Len() || lo > hi {
		panic("trace: Slice out of range")
	}
	out := make([]int64, hi-lo)
	copy(out, t.FrameBits[lo:hi])
	return &Trace{FrameBits: out, FPS: t.FPS}
}

// SustainedPeak describes an episode during which the smoothed source rate
// stays at or above a threshold.
type SustainedPeak struct {
	Start    int     // first frame of the episode
	Frames   int     // episode length in frames
	MeanRate float64 // average rate over the episode, bits/s
}

// Seconds returns the episode duration in seconds at the trace's frame rate.
func (p SustainedPeak) Seconds(fps float64) float64 { return float64(p.Frames) / fps }

// SustainedPeaks returns all maximal episodes during which the rate smoothed
// over `window` frames stays at or above threshold (bits/s). Episodes are the
// paper's "fairly long duration ... when the data rate of the video source is
// continuously near its peak rate".
func (t *Trace) SustainedPeaks(threshold float64, window int) []SustainedPeak {
	if t.Len() == 0 || window <= 0 {
		return nil
	}
	if window > t.Len() {
		window = t.Len()
	}
	// Smoothed rate at frame i = rate over [i, i+window).
	var peaks []SustainedPeak
	inEp := false
	var start int
	var bitsInEp int64
	var sum int64
	for i := 0; i < window; i++ {
		sum += t.FrameBits[i]
	}
	for i := 0; i+window <= t.Len(); i++ {
		r := float64(sum) * t.FPS / float64(window)
		if r >= threshold {
			if !inEp {
				inEp = true
				start = i
				bitsInEp = 0
			}
			bitsInEp += t.FrameBits[i]
		} else if inEp {
			inEp = false
			frames := i - start
			peaks = append(peaks, SustainedPeak{
				Start:    start,
				Frames:   frames,
				MeanRate: float64(bitsInEp) * t.FPS / float64(frames),
			})
		}
		if i+window < t.Len() {
			sum += t.FrameBits[i+window] - t.FrameBits[i]
		}
	}
	if inEp {
		frames := t.Len() - window + 1 - start
		peaks = append(peaks, SustainedPeak{
			Start:    start,
			Frames:   frames,
			MeanRate: float64(bitsInEp) * t.FPS / float64(frames),
		})
	}
	return peaks
}

// LongestSustainedPeak returns the longest episode at or above threshold, or
// a zero value if none exists.
func (t *Trace) LongestSustainedPeak(threshold float64, window int) SustainedPeak {
	var best SustainedPeak
	for _, p := range t.SustainedPeaks(threshold, window) {
		if p.Frames > best.Frames {
			best = p
		}
	}
	return best
}

// Summary holds headline statistics of a trace.
type Summary struct {
	Frames       int
	FPS          float64
	Seconds      float64
	MeanRate     float64 // bits/s
	PeakRate     float64 // bits/s, single frame
	PeakToMean   float64
	MaxGOPBits   int64   // max sum of 12 consecutive frames
	Max3Frames   int64   // max sum of 3 consecutive frames
	LongestPeak5 float64 // seconds at >= 4x mean, 1s smoothing
}

// Summarize computes a Summary. It returns ErrEmpty for an empty trace.
func (t *Trace) Summarize() (Summary, error) {
	if t.Len() == 0 {
		return Summary{}, ErrEmpty
	}
	mean := t.MeanRate()
	s := Summary{
		Frames:     t.Len(),
		FPS:        t.FPS,
		Seconds:    t.Duration(),
		MeanRate:   mean,
		PeakRate:   t.PeakFrameRate(),
		MaxGOPBits: t.MaxWindowBits(12),
		Max3Frames: t.MaxWindowBits(3),
	}
	if mean > 0 {
		s.PeakToMean = s.PeakRate / mean
	}
	win := int(math.Round(t.FPS)) // one-second smoothing
	if win < 1 {
		win = 1
	}
	s.LongestPeak5 = t.LongestSustainedPeak(4*mean, win).Seconds(t.FPS)
	return s, nil
}

// String renders the summary in a compact single block.
func (s Summary) String() string {
	return fmt.Sprintf(
		"frames=%d fps=%.0f dur=%.0fs mean=%.0fb/s peak=%.0fb/s peak/mean=%.2f max3=%db maxGOP=%db sustained4x=%.1fs",
		s.Frames, s.FPS, s.Seconds, s.MeanRate, s.PeakRate, s.PeakToMean,
		s.Max3Frames, s.MaxGOPBits, s.LongestPeak5)
}
