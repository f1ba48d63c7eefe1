package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// LevelHist is a histogram over a fixed set of discrete bandwidth levels.
// It is the data structure behind every traffic descriptor in Section VI of
// the paper: the fraction of time a call spends at each level. Weights may be
// counts or durations. The zero value is unusable; construct with
// NewLevelHist.
type LevelHist struct {
	levels []float64 // ascending, bits/s
	weight []float64
	total  float64
}

// NewLevelHist returns an empty histogram over the given ascending levels.
// It panics if levels is empty or not strictly ascending.
func NewLevelHist(levels []float64) *LevelHist {
	if len(levels) == 0 {
		panic("stats: NewLevelHist with no levels")
	}
	for i := 1; i < len(levels); i++ {
		if levels[i] <= levels[i-1] {
			panic("stats: NewLevelHist levels not strictly ascending")
		}
	}
	return &LevelHist{
		levels: append([]float64(nil), levels...),
		weight: make([]float64, len(levels)),
	}
}

// Levels returns the histogram's level set (shared slice; do not modify).
func (h *LevelHist) Levels() []float64 { return h.levels }

// Add records weight w at the level nearest to rate. Negative weights allow
// removal (e.g., a call departing); the total is clamped at zero from below
// per bucket to absorb floating-point dust.
func (h *LevelHist) Add(rate, w float64) {
	i := h.Index(rate)
	h.weight[i] += w
	if h.weight[i] < 0 {
		h.weight[i] = 0
	}
	h.total += w
	if h.total < 0 {
		h.total = 0
	}
}

// Index returns the index of the level nearest to rate (ties go down).
func (h *LevelHist) Index(rate float64) int { return NearestLevel(h.levels, rate) }

// NearestLevel returns the index of the level nearest to rate in ascending,
// non-empty levels (ties go down; past either end, that end): the rounding
// rule of LevelHist and of admission.LiveMemory.
func NearestLevel(levels []float64, rate float64) int {
	i := sort.SearchFloat64s(levels, rate)
	if i == len(levels) {
		return len(levels) - 1
	}
	if i > 0 && rate-levels[i-1] <= levels[i]-rate {
		return i - 1
	}
	return i
}

// Total returns the sum of all recorded weights.
func (h *LevelHist) Total() float64 { return h.total }

// Probabilities returns the normalized weight vector. If the histogram is
// empty it returns all zeros.
func (h *LevelHist) Probabilities() []float64 {
	p := make([]float64, len(h.weight))
	if h.total <= 0 {
		return p
	}
	for i, w := range h.weight {
		p[i] = w / h.total
	}
	return p
}

// Mean returns the weighted mean level.
func (h *LevelHist) Mean() float64 {
	if h.total <= 0 {
		return 0
	}
	var s float64
	for i, w := range h.weight {
		s += h.levels[i] * w
	}
	return s / h.total
}

// Clone returns a deep copy.
func (h *LevelHist) Clone() *LevelHist {
	return &LevelHist{
		levels: h.levels,
		weight: append([]float64(nil), h.weight...),
		total:  h.total,
	}
}

// Merge adds scale times each of other's weights into h. The two histograms
// must share an identical level set.
func (h *LevelHist) Merge(other *LevelHist, scale float64) {
	if len(other.levels) != len(h.levels) {
		panic("stats: Merge with mismatched level sets")
	}
	for i, w := range other.weight {
		h.weight[i] += scale * w
		if h.weight[i] < 0 {
			h.weight[i] = 0
		}
		h.total += scale * w
	}
	if h.total < 0 {
		h.total = 0
	}
}

// String renders the non-empty buckets, mostly for debugging and examples.
func (h *LevelHist) String() string {
	var b strings.Builder
	p := h.Probabilities()
	for i, lv := range h.levels {
		if h.weight[i] == 0 {
			continue
		}
		fmt.Fprintf(&b, "%.0f:%.4f ", lv, p[i])
	}
	return strings.TrimSpace(b.String())
}

// UniformLevels returns n levels evenly spaced on [lo, hi] inclusive, the
// level-set construction used throughout the paper ("bandwidth levels chosen
// uniformly within 48 kb/s and 2.4 Mb/s"). It panics on invalid arguments.
func UniformLevels(lo, hi float64, n int) []float64 {
	if n < 1 || hi < lo {
		panic("stats: UniformLevels invalid arguments")
	}
	if n == 1 {
		return []float64{lo}
	}
	out := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	return out
}

// GridLevels returns the ascending multiples of delta covering (0, max]:
// delta, 2·delta, …, ceil(max/delta)·delta. This is the granularity-Δ level
// set used by the online heuristic (Section IV-B).
func GridLevels(delta, max float64) []float64 {
	if delta <= 0 || max <= 0 {
		panic("stats: GridLevels invalid arguments")
	}
	n := int(math.Ceil(max / delta))
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i+1) * delta
	}
	return out
}
