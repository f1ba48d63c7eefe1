package markov

import "fmt"

// Subchain is one fast time-scale component of a multiple time-scale source:
// a small Markov chain (e.g. the intra-scene frame dynamics) together with a
// relative weight governing how often the slow process visits it.
type Subchain struct {
	Chain  *Chain
	Weight float64 // relative steady-state probability of this subchain
}

// MTS is a multiple time-scale Markov source: a union of fast subchains with
// rare transitions between them, the model of the paper's Fig. 4. Epsilon is
// the per-slot probability of a slow time-scale event (a scene change); when
// one occurs, the destination subchain is resampled from the weight
// distribution (possibly the current one) and the entry state is drawn from
// the destination's stationary distribution. This construction makes the
// steady-state subchain occupancy exactly the normalized weights, matching
// the p_i of the paper's analysis.
type MTS struct {
	Subchains []Subchain
	Epsilon   float64
}

// Validate reports the first problem with the model, or nil.
func (m *MTS) Validate() error {
	if len(m.Subchains) == 0 {
		return fmt.Errorf("markov: MTS with no subchains")
	}
	if !(m.Epsilon >= 0 && m.Epsilon < 1) {
		return fmt.Errorf("markov: MTS epsilon %g outside [0,1)", m.Epsilon)
	}
	var wsum float64
	for i, sc := range m.Subchains {
		if sc.Chain == nil {
			return fmt.Errorf("markov: subchain %d is nil", i)
		}
		if err := sc.Chain.Validate(1e-9); err != nil {
			return fmt.Errorf("markov: subchain %d: %w", i, err)
		}
		if sc.Weight < 0 {
			return fmt.Errorf("markov: subchain %d has negative weight", i)
		}
		wsum += sc.Weight
	}
	if wsum <= 0 {
		return fmt.Errorf("markov: MTS subchain weights sum to zero")
	}
	return nil
}

// Weights returns the normalized subchain weights p_i, the slow time-scale
// marginal of the paper's analysis.
func (m *MTS) Weights() []float64 {
	w := make([]float64, len(m.Subchains))
	var sum float64
	for i, sc := range m.Subchains {
		w[i] = sc.Weight
		sum += sc.Weight
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

// SubchainMeans returns the stationary mean rate m_i of each subchain in
// isolation; these are the support points of the slow time-scale random
// variable in eqs. (10) and (11).
func (m *MTS) SubchainMeans() ([]float64, error) {
	out := make([]float64, len(m.Subchains))
	for i, sc := range m.Subchains {
		mu, err := sc.Chain.MeanRate()
		if err != nil {
			return nil, fmt.Errorf("markov: subchain %d: %w", i, err)
		}
		out[i] = mu
	}
	return out, nil
}

// MeanRate returns the overall stationary mean rate sum_i p_i m_i.
func (m *MTS) MeanRate() (float64, error) {
	means, err := m.SubchainMeans()
	if err != nil {
		return 0, err
	}
	var mu float64
	for i, p := range m.Weights() {
		mu += p * means[i]
	}
	return mu, nil
}

// Flatten composes the full chain over the union state space, with rare
// inter-subchain transitions of total probability Epsilon per slot split by
// destination weight and stationary entry. The flattened chain is what a
// simulator or an exact effective-bandwidth computation operates on.
func (m *MTS) Flatten() (*Chain, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	var total int
	offsets := make([]int, len(m.Subchains))
	for i, sc := range m.Subchains {
		offsets[i] = total
		total += sc.Chain.N()
	}
	weights := m.Weights()
	stationaries := make([][]float64, len(m.Subchains))
	for i, sc := range m.Subchains {
		pi, err := sc.Chain.Stationary()
		if err != nil {
			return nil, fmt.Errorf("markov: subchain %d: %w", i, err)
		}
		stationaries[i] = pi
	}

	P := make([][]float64, total)
	rate := make([]float64, total)
	for i, sc := range m.Subchains {
		for s := 0; s < sc.Chain.N(); s++ {
			row := make([]float64, total)
			g := offsets[i] + s
			rate[g] = sc.Chain.Rate[s]
			// Stay within the subchain with probability 1-eps.
			for t, p := range sc.Chain.P[s] {
				row[offsets[i]+t] = (1 - m.Epsilon) * p
			}
			// Slow event: resample the subchain by weight and enter its
			// stationary distribution.
			if m.Epsilon > 0 {
				for j := range m.Subchains {
					pj := m.Epsilon * weights[j]
					for t, q := range stationaries[j] {
						row[offsets[j]+t] += pj * q
					}
				}
			}
			P[g] = row
		}
	}
	return &Chain{P: P, Rate: rate}, nil
}

// SubchainOf returns the subchain index owning flattened state g.
func (m *MTS) SubchainOf(g int) int {
	for i, sc := range m.Subchains {
		if g < sc.Chain.N() {
			return i
		}
		g -= sc.Chain.N()
	}
	return -1
}

// PaperExample returns the three-subchain multiple time-scale source
// sketched in the paper's Fig. 4, scaled so the overall mean rate is mean
// (bits per slot). The three subchains model low-, medium- and high-activity
// scenes, each a two-state fast chain.
func PaperExample(mean float64, epsilon float64) *MTS {
	// Subchain means relative to the overall mean: 0.5, 1.0, 3.0 with
	// weights 0.45, 0.45, 0.10 giving 0.225+0.45+0.30 = 0.975; rescale.
	rel := []struct {
		lo, hi float64 // two fast states, bits relative to subchain mean
		weight float64
		mul    float64
	}{
		{lo: 0.6, hi: 1.4, weight: 0.45, mul: 0.5},
		{lo: 0.7, hi: 1.3, weight: 0.45, mul: 1.0},
		{lo: 0.8, hi: 1.2, weight: 0.10, mul: 3.0},
	}
	var overall float64
	for _, r := range rel {
		overall += r.weight * r.mul
	}
	scale := mean / overall
	subs := make([]Subchain, len(rel))
	for i, r := range rel {
		m := r.mul * scale
		// Symmetric two-state fast chain with dwell ~5 slots per state;
		// the stationary split is 50/50 so the subchain mean is m.
		sub := &Chain{
			P: [][]float64{
				{0.8, 0.2},
				{0.2, 0.8},
			},
			Rate: []float64{r.lo * m, r.hi * m},
		}
		subs[i] = Subchain{Chain: sub, Weight: r.weight}
	}
	return &MTS{Subchains: subs, Epsilon: epsilon}
}
