package main

import (
	"math"
	"testing"
)

func TestQuantile(t *testing.T) {
	s := []int64{10, 20, 30, 40, 50}
	for _, c := range []struct{ q, want float64 }{
		{0, 10}, {0.5, 30}, {1, 50}, {0.25, 20}, {0.9, 46},
	} {
		if got := quantile(s, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v, %g) = %g, want %g", s, c.q, got, c.want)
		}
	}
	if got := quantile[int64](nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %g, want 0", got)
	}
	if got := quantile(sortedCopy([]int64{9, 1, 5}), 0.5); got != 5 {
		t.Errorf("median of unsorted input through sortedCopy = %g, want 5", got)
	}
}

func TestMedianFloat(t *testing.T) {
	if got := medianFloat([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g, want 2", got)
	}
	if got := medianFloat([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g, want 2.5", got)
	}
	if got := medianFloat(nil); got != 0 {
		t.Errorf("empty median = %g, want 0", got)
	}
}

// The reported tail is the highest percentile with ten samples beyond it.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {10_000, 99.9}, {100_000, 99.99}, {5_000_000, 99.99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

// The throughput is the upper quartile over short blocks of back-to-back
// iterations: a slow spell that covers even most of the blocks moves the
// mean and the median and leaves the upper quartile where it was.
func TestBlockThroughput(t *testing.T) {
	const iter = int64(blockTarget / 100)
	iterNs := make([]int64, 1000)
	for i := range iterNs {
		iterNs[i] = iter
		if i >= 300 && i < 900 { // a spell four times slower
			iterNs[i] = 4 * iter
		}
	}
	// The median iteration is a slow one, so 25 make a block: 40 blocks,
	// 24 of them slow.
	got := blockThroughput(iterNs, 256)
	if want := 256.0 / (float64(iter) * 1e-9); math.Abs(got.rate-want)/want > 1e-12 {
		t.Errorf("rate = %g, want the clear blocks' %g", got.rate, want)
	}
	if got.blocks != 40 {
		t.Errorf("blocks = %d, want 40", got.blocks)
	}
	// Quartiles at blocks 10 and 30 of the sorted forty, slow and clear,
	// over a slow median.
	if want := 3.0; math.Abs(got.spread-want) > 1e-12 {
		t.Errorf("spread = %g, want %g", got.spread, want)
	}

	if got := blockThroughput(nil, 1); got != (throughput{}) {
		t.Errorf("throughput of nothing = %+v, want zero", got)
	}
	// A pass shorter than one block is one block.
	if got := blockThroughput([]int64{iter, iter}, 1); got.blocks != 1 || math.Abs(got.rate-1e9/float64(iter)) > 1e-6 {
		t.Errorf("two iterations = %+v, want one block at %g/s", got, 1e9/float64(iter))
	}
	// Goroutines side by side add their rates.
	sum := got.plus(throughput{rate: 5, blocks: 2, spread: 3.5})
	if sum.blocks != 42 || sum.spread != 3.5 || math.Abs(sum.rate-got.rate-5) > 1e-9 {
		t.Errorf("plus = %+v", sum)
	}
}
