package stats

import (
	"math"
	"testing"
	"testing/quick"
)

// TestLevelHistIndexNearest pins the one level-rounding rule, NearestLevel,
// that LevelHist.Index and the admission package's LiveMemory share:
// nearest level, ties toward the lower one, and a rate past either end
// clamped to it.
func TestLevelHistIndexNearest(t *testing.T) {
	levels := []float64{100, 200, 400}
	h := NewLevelHist(levels)
	cases := []struct {
		rate float64
		want int
	}{
		{0, 0}, {99, 0}, {100, 0}, {149, 0}, {150, 0}, {151, 1},
		{200, 1}, {299, 1}, {300, 1}, {301, 2}, {400, 2}, {1e9, 2},
	}
	for _, c := range cases {
		if got := NearestLevel(levels, c.rate); got != c.want {
			t.Errorf("NearestLevel(%v) = %d, want %d", c.rate, got, c.want)
		}
		if got := h.Index(c.rate); got != c.want {
			t.Errorf("Index(%v) = %d, want %d", c.rate, got, c.want)
		}
	}
}

func TestLevelHistAddRemove(t *testing.T) {
	h := NewLevelHist([]float64{1, 2, 3})
	h.Add(1, 5)
	h.Add(3, 5)
	if h.Total() != 10 {
		t.Fatalf("Total = %v, want 10", h.Total())
	}
	p := h.Probabilities()
	if p[0] != 0.5 || p[1] != 0 || p[2] != 0.5 {
		t.Fatalf("Probabilities = %v", p)
	}
	h.Add(1, -5)
	if h.Total() != 5 {
		t.Fatalf("Total after removal = %v, want 5", h.Total())
	}
	if got := h.Probabilities()[2]; got != 1 {
		t.Fatalf("remaining mass = %v, want 1", got)
	}
}

func TestLevelHistMean(t *testing.T) {
	h := NewLevelHist([]float64{10, 20})
	h.Add(10, 1)
	h.Add(20, 3)
	if m := h.Mean(); m != 17.5 {
		t.Fatalf("Mean = %v, want 17.5", m)
	}
}

func TestLevelHistMergeClone(t *testing.T) {
	a := NewLevelHist([]float64{1, 2})
	a.Add(1, 2)
	b := a.Clone()
	b.Add(2, 2)
	if a.Total() != 2 {
		t.Fatal("Clone must not share weights")
	}
	a.Merge(b, 0.5)
	if a.Total() != 4 {
		t.Fatalf("merged total = %v, want 4", a.Total())
	}
}

func TestLevelHistPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("empty levels", func() { NewLevelHist(nil) })
	mustPanic("unsorted levels", func() { NewLevelHist([]float64{2, 1}) })
	mustPanic("mismatched merge", func() {
		NewLevelHist([]float64{1}).Merge(NewLevelHist([]float64{1, 2}), 1)
	})
}

func TestUniformLevels(t *testing.T) {
	lv := UniformLevels(48e3, 2.4e6, 20)
	if len(lv) != 20 {
		t.Fatalf("len = %d, want 20", len(lv))
	}
	if lv[0] != 48e3 || lv[19] != 2.4e6 {
		t.Fatalf("endpoints = %v, %v", lv[0], lv[19])
	}
	for i := 1; i < len(lv); i++ {
		if lv[i] <= lv[i-1] {
			t.Fatal("levels not ascending")
		}
	}
}

func TestGridLevels(t *testing.T) {
	lv := GridLevels(64e3, 2e6)
	if lv[0] != 64e3 {
		t.Fatalf("first level = %v", lv[0])
	}
	last := lv[len(lv)-1]
	if last < 2e6 || last-64e3 >= 2e6 {
		t.Fatalf("grid must just cover max: last = %v", last)
	}
	for i, v := range lv {
		if math.Abs(v-float64(i+1)*64e3) > 1e-6 {
			t.Fatalf("level %d = %v, want %v", i, v, float64(i+1)*64e3)
		}
	}
}

func TestProbabilitiesSumToOne(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		if n == 0 {
			return true
		}
		r := NewRNG(seed)
		h := NewLevelHist(UniformLevels(1, 100, 16))
		for i := 0; i < int(n); i++ {
			h.Add(1+99*r.Float64(), 1+r.Float64())
		}
		var sum float64
		for _, p := range h.Probabilities() {
			if p < 0 {
				return false
			}
			sum += p
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
