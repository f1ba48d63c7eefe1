package experiments

import (
	"context"
	"testing"
)

func TestLatencySweep(t *testing.T) {
	tr := StarWars(91, 4800)
	// Heuristic runs are deterministic, so a pool of workers reproduces
	// the serial rows exactly.
	rows := sameAtAnyProcs(t, func() ([]LatencyRow, error) {
		return Latency(context.Background(), tr, 600e3, 64e3, []int{0, 24, 96})
	})
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Occupancy pressure grows with delay (weak monotonicity: the largest
	// delay must be at least as bad as no delay).
	if rows[2].MaxOccupancyBits < rows[0].MaxOccupancyBits {
		t.Fatalf("96-slot delay occupancy %v below 0-delay %v",
			rows[2].MaxOccupancyBits, rows[0].MaxOccupancyBits)
	}
	if rows[0].DelayMs != 0 || rows[1].DelayMs != 1000 {
		t.Fatalf("delay ms: %+v", rows[:2])
	}
	if _, err := Latency(context.Background(), nil, 1, 1, nil); err == nil {
		t.Fatal("nil trace accepted")
	}
}

func TestChernoffValidation(t *testing.T) {
	tr := StarWars(92, 2400)
	sch, err := OptimalSchedule(tr, 300e3, 3e5, FeasibleLevels(tr, 300e3, 12))
	if err != nil {
		t.Fatal(err)
	}
	levels := FeasibleLevels(tr, 300e3, 12)
	// Per-cell RNGs make the measurement independent of sweep order, so a
	// pool of workers reproduces the serial rows exactly.
	rows := sameAtAnyProcs(t, func() ([]ChernoffRow, error) {
		return ChernoffValidation(context.Background(), sch, levels, []int{20, 100},
			[]float64{1.2, 1.6}, 4000, 9)
	})
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// Chernoff is an upper bound up to marginal-estimation and
		// sampling noise; allow a small slack factor.
		if r.Simulated > 3*r.Chernoff+0.01 {
			t.Fatalf("simulated %v far above Chernoff %v at %+v",
				r.Simulated, r.Chernoff, r)
		}
	}
	// Larger capacity at the same N must not raise either probability.
	if rows[1].Chernoff > rows[0].Chernoff || rows[1].Simulated > rows[0].Simulated {
		t.Fatalf("capacity monotonicity violated: %+v", rows[:2])
	}
	if _, err := ChernoffValidation(context.Background(), nil, levels, nil, nil, 10, 1); err == nil {
		t.Fatal("nil schedule accepted")
	}
	if _, err := ChernoffValidation(context.Background(), sch, levels, nil, nil, 0, 1); err == nil {
		t.Fatal("zero samples accepted")
	}
}
