package markov

import (
	"math"
	"testing"
	"testing/quick"

	"rcbr/internal/stats"
)

func TestValidate(t *testing.T) {
	good := TwoState(100, 0.1, 0.2)
	if err := good.Validate(1e-9); err != nil {
		t.Fatalf("valid chain rejected: %v", err)
	}
	bad := []*Chain{
		{}, // empty
		{P: [][]float64{{1}}, Rate: []float64{1, 2}},                 // shape
		{P: [][]float64{{0.5, 0.4}, {0, 1}}, Rate: []float64{1, 2}},  // row sum
		{P: [][]float64{{1.5, -0.5}, {0, 1}}, Rate: []float64{1, 2}}, // negative
		{P: [][]float64{{1, 0}, {0, 1}}, Rate: []float64{-1, 2}},     // negative rate
	}
	for i, c := range bad {
		if err := c.Validate(1e-9); err == nil {
			t.Errorf("bad chain %d accepted", i)
		}
	}
}

func TestStationaryTwoState(t *testing.T) {
	// P(off->on)=0.1, P(on->off)=0.3: pi = (0.75, 0.25).
	c := TwoState(100, 0.1, 0.3)
	pi, err := c.Stationary()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pi[0]-0.75) > 1e-9 || math.Abs(pi[1]-0.25) > 1e-9 {
		t.Fatalf("pi = %v, want (0.75, 0.25)", pi)
	}
	m, err := c.MeanRate()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m-25) > 1e-7 {
		t.Fatalf("mean rate = %v, want 25", m)
	}
	if c.PeakRate() != 100 {
		t.Fatalf("peak = %v", c.PeakRate())
	}
}

func TestStationaryIsInvariant(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		n := 2 + r.Intn(5)
		c := randomChain(r, n)
		pi, err := c.Stationary()
		if err != nil {
			return false
		}
		// pi P must equal pi.
		for j := 0; j < n; j++ {
			var v float64
			for i := 0; i < n; i++ {
				v += pi[i] * c.P[i][j]
			}
			if math.Abs(v-pi[j]) > 1e-8 {
				return false
			}
		}
		var sum float64
		for _, p := range pi {
			if p < 0 {
				return false
			}
			sum += p
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// randomChain builds a random irreducible chain: every entry positive.
func randomChain(r *stats.RNG, n int) *Chain {
	P := make([][]float64, n)
	rate := make([]float64, n)
	for i := range P {
		row := make([]float64, n)
		var sum float64
		for j := range row {
			row[j] = 0.05 + r.Float64()
			sum += row[j]
		}
		for j := range row {
			row[j] /= sum
		}
		P[i] = row
		rate[i] = r.Float64() * 1000
	}
	return &Chain{P: P, Rate: rate}
}

func TestMTSValidate(t *testing.T) {
	m := PaperExample(1000, 1e-3)
	if err := m.Validate(); err != nil {
		t.Fatalf("paper example invalid: %v", err)
	}
	bad := []*MTS{
		{},
		{Subchains: []Subchain{{Chain: TwoState(1, .1, .1), Weight: 1}}, Epsilon: 1.5},
		{Subchains: []Subchain{{Chain: TwoState(1, .1, .1), Weight: 1}}, Epsilon: math.NaN()},
		{Subchains: []Subchain{{Chain: nil, Weight: 1}}},
		{Subchains: []Subchain{{Chain: TwoState(1, .1, .1), Weight: 0}}},
	}
	for i, b := range bad {
		if err := b.Validate(); err == nil {
			t.Errorf("bad MTS %d accepted", i)
		}
	}
}

func TestMTSWeightsNormalized(t *testing.T) {
	m := PaperExample(1000, 1e-3)
	var sum float64
	for _, w := range m.Weights() {
		sum += w
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("weights sum to %v", sum)
	}
}

func TestMTSMeanRate(t *testing.T) {
	m := PaperExample(500, 1e-3)
	mu, err := m.MeanRate()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mu-500)/500 > 1e-9 {
		t.Fatalf("MTS mean = %v, want 500", mu)
	}
}

func TestFlattenPreservesMean(t *testing.T) {
	m := PaperExample(800, 1e-3)
	flat, err := m.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	if err := flat.Validate(1e-9); err != nil {
		t.Fatalf("flattened chain invalid: %v", err)
	}
	mu, err := flat.MeanRate()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := m.MeanRate()
	if math.Abs(mu-want)/want > 1e-6 {
		t.Fatalf("flattened mean %v != MTS mean %v", mu, want)
	}
}

func TestFlattenSubchainOccupancy(t *testing.T) {
	// With rare transitions, time share per subchain tends to its weight.
	m := PaperExample(1000, 0.01)
	flat, err := m.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	pi, err := flat.Stationary()
	if err != nil {
		t.Fatal(err)
	}
	occ := make([]float64, len(m.Subchains))
	for g, p := range pi {
		occ[m.SubchainOf(g)] += p
	}
	for i, w := range m.Weights() {
		if math.Abs(occ[i]-w) > 0.02 {
			t.Fatalf("subchain %d occupancy %v, want ~%v", i, occ[i], w)
		}
	}
}

func TestSubchainOf(t *testing.T) {
	m := PaperExample(1, 0)
	// Each subchain has two states.
	for g, want := range []int{0, 0, 1, 1, 2, 2} {
		if got := m.SubchainOf(g); got != want {
			t.Fatalf("SubchainOf(%d) = %d, want %d", g, got, want)
		}
	}
	if m.SubchainOf(6) != -1 {
		t.Fatal("out-of-range state must map to -1")
	}
}

func TestFlattenZeroEpsilon(t *testing.T) {
	m := PaperExample(100, 0)
	flat, err := m.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	if err := flat.Validate(1e-9); err != nil {
		t.Fatalf("flattened chain invalid: %v", err)
	}
	// With eps=0 there are no cross-subchain transitions.
	for g, row := range flat.P {
		from := m.SubchainOf(g)
		for h, p := range row {
			if p > 0 && m.SubchainOf(h) != from {
				t.Fatalf("eps=0 but transition %d->%d has p=%v", g, h, p)
			}
		}
	}
}
