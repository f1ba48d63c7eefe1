package experiments

import (
	"testing"

	"rcbr/internal/trace"
)

func TestSection2DilemmaShape(t *testing.T) {
	tr := StarWars(81, 9600) // 400 s
	rows, err := Section2(tr, []float64{1.05, 2, 5}, 300e3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// b*(r) non-increasing in r; policing loss and shaping delay too.
	for i := 1; i < len(rows); i++ {
		if rows[i].MinDepthBits > rows[i-1].MinDepthBits {
			t.Fatalf("b*(r) not non-increasing: %+v", rows)
		}
		if rows[i].PolicingLoss > rows[i-1].PolicingLoss+1e-12 {
			t.Fatalf("policing loss not non-increasing: %+v", rows)
		}
		if rows[i].ShapingDelaySec > rows[i-1].ShapingDelaySec+1e-9 {
			t.Fatalf("shaping delay not non-increasing: %+v", rows)
		}
	}
	// Near the mean, the dilemma bites: megabits of bucket, heavy loss,
	// seconds of delay.
	if rows[0].MinDepthBits < 1e6 {
		t.Fatalf("b*(1.05 mean) = %v, expected megabits", rows[0].MinDepthBits)
	}
	if rows[0].PolicingLoss < 1e-2 {
		t.Fatalf("policing loss at mean = %v, expected heavy", rows[0].PolicingLoss)
	}
	if rows[0].ShapingDelaySec < 1 {
		t.Fatalf("shaping delay at mean = %v, expected seconds", rows[0].ShapingDelaySec)
	}
	if _, err := Section2(nil, []float64{1}, 1); err == nil {
		t.Fatal("nil trace accepted")
	}
}

func TestDataPathComparison(t *testing.T) {
	tr := StarWars(82, 1200)
	res, err := DataPath(tr, 6, tr.MeanRate()*1.2, 0.8, 3)
	if err != nil {
		t.Fatal(err)
	}
	// CBR queues stay within a handful of cells per source.
	if res.CBRMaxQueue > res.Sources {
		t.Fatalf("CBR max queue %d exceeds source count %d", res.CBRMaxQueue, res.Sources)
	}
	// Frame bursts queue at least two orders of magnitude deeper.
	if res.QueueRatio < 100 {
		t.Fatalf("queue ratio = %v, want >= 100", res.QueueRatio)
	}
	if res.BurstMeanDelay <= res.CBRMeanDelay {
		t.Fatalf("burst delay %v not above CBR delay %v",
			res.BurstMeanDelay, res.CBRMeanDelay)
	}
	// A lone CBR flow below the link rate never finds a cell ahead of it.
	one, err := DataPath(tr, 1, tr.MeanRate()*1.2, 0.8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if one.CBRMaxQueue != 1 || one.CBRMeanDelay != 0 {
		t.Fatalf("lone CBR flow: max queue %d, mean delay %v; want 1 and 0", one.CBRMaxQueue, one.CBRMeanDelay)
	}
}

// TestCBRArrivalLawDoesNotDrift pins the drift-free arrival law: a flow at
// 0.1 cells per slot delivers exactly rate·slots cells over ten million
// slots, at most one per slot. A running sum of 0.1 per slot falls short by
// ~1.6e-4 over that horizon, a whole missing cell (and mistimed arrivals
// long before that). A phase offset shifts the timing, never the count.
func TestCBRArrivalLawDoesNotDrift(t *testing.T) {
	const slots = 10_000_000
	for _, phase := range []float64{0, 0.999} {
		var emitted int64
		for s := int64(0); s < slots; s++ {
			if target := cbrCells(phase, 0.1, s); target > emitted {
				if target != emitted+1 {
					t.Fatalf("phase %g: slot %d sent %d cells", phase, s, target-emitted)
				}
				emitted = target
			}
		}
		if emitted != 1_000_000 {
			t.Fatalf("phase %g: %d cells, want exactly 1000000", phase, emitted)
		}
	}
}

func TestDataPathValidation(t *testing.T) {
	tr := StarWars(83, 240)
	if _, err := DataPath(nil, 2, 1e5, 0.8, 1); err == nil {
		t.Error("nil trace accepted")
	}
	if _, err := DataPath(trace.New(nil, 24), 2, 1e5, 0.8, 1); err == nil {
		t.Error("empty trace accepted")
	}
	if _, err := DataPath(tr, 0, 1e5, 0.8, 1); err == nil {
		t.Error("zero sources accepted")
	}
	if _, err := DataPath(tr, 2, 1e5, 1.5, 1); err == nil {
		t.Error("utilization > 1 accepted")
	}
	if _, err := DataPath(tr, 1, 1, 0.5, 1); err == nil {
		t.Error("link under one cell per frame accepted")
	}
}
