package core

import (
	"math"
	"testing"
	"testing/quick"

	"rcbr/internal/queue"
	"rcbr/internal/stats"
	"rcbr/internal/trace"
)

func TestSourceBasicDrain(t *testing.T) {
	s := NewSource(100, 1, 10) // B=100, 1s slots, 10 b/s
	if lost := s.Step(25); lost != 0 {
		t.Fatalf("lost = %v", lost)
	}
	if q := s.Occupancy(); q != 15 {
		t.Fatalf("occupancy = %v, want 15", q)
	}
	if lost := s.Step(0); lost != 0 {
		t.Fatal("unexpected loss")
	}
	if q := s.Occupancy(); q != 5 {
		t.Fatalf("occupancy = %v, want 5", q)
	}
	s.Step(0)
	if q := s.Occupancy(); q != 0 {
		t.Fatalf("occupancy = %v, want 0 (no negative)", q)
	}
}

func TestSourceOverflow(t *testing.T) {
	s := NewSource(50, 1, 10)
	lost := s.Step(100) // after drain: 90, cap 50 -> 40 lost
	if lost != 40 {
		t.Fatalf("lost = %v, want 40", lost)
	}
	if s.LostBits() != 40 || s.Occupancy() != 50 {
		t.Fatalf("state: lost %v q %v", s.LostBits(), s.Occupancy())
	}
	if f := s.LossFraction(); f != 0.4 {
		t.Fatalf("LossFraction = %v", f)
	}
}

func TestSourceSetRate(t *testing.T) {
	s := NewSource(100, 1, 10)
	s.SetRate(10) // no change, no renegotiation
	if s.Renegotiations() != 0 {
		t.Fatal("same-rate SetRate counted as renegotiation")
	}
	s.SetRate(20)
	if s.Renegotiations() != 1 || s.Rate() != 20 {
		t.Fatalf("renegs=%d rate=%v", s.Renegotiations(), s.Rate())
	}
	s.Step(5)
	if q := s.Occupancy(); q != 0 {
		t.Fatalf("occupancy = %v after faster drain", q)
	}
}

func TestSourcePanics(t *testing.T) {
	for name, f := range map[string]func(){
		"zero buffer":      func() { NewSource(0, 1, 1) },
		"zero slot":        func() { NewSource(1, 0, 1) },
		"negative rate":    func() { NewSource(1, 1, -1) },
		"negative arrival": func() { NewSource(1, 1, 1).Step(-1) },
		"negative setrate": func() { NewSource(1, 1, 1).SetRate(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

func TestSourceAccounting(t *testing.T) {
	f := func(seed uint64, steps uint8) bool {
		r := stats.NewRNG(seed)
		s := NewSource(500, 0.5, 100)
		var drainedEstimate float64
		for i := 0; i < int(steps); i++ {
			if r.Float64() < 0.2 {
				s.SetRate(float64(r.Intn(300)))
			}
			before := s.Occupancy()
			a := r.Float64() * 300
			lost := s.Step(a)
			// Conservation per step: before + a = after + drained + lost.
			drained := before + a - s.Occupancy() - lost
			if drained < -1e-9 || drained > s.Rate()*0.5+1e-9 {
				return false
			}
			drainedEstimate += drained
			if s.Occupancy() < 0 || s.Occupancy() > s.Buffer()+1e-9 {
				return false
			}
		}
		_ = drainedEstimate
		return s.Slots() == int(steps) && s.ArrivedBits() >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSourceEmptyLossFraction(t *testing.T) {
	s := NewSource(10, 1, 1)
	if f := s.LossFraction(); f != 0 {
		t.Fatalf("LossFraction = %v before arrivals", f)
	}
	if s.SlotSeconds() != 1 {
		t.Fatalf("SlotSeconds = %v", s.SlotSeconds())
	}
}

func TestSourceMatchesScheduleRun(t *testing.T) {
	// Driving a Source with a schedule's rates must match RunSchedule.
	r := stats.NewRNG(11)
	arr := make([]float64, 300)
	bits := make([]int64, 300)
	for i := range arr {
		bits[i] = int64(r.Intn(2000))
		arr[i] = float64(bits[i])
	}
	rates := make([]float64, 300)
	for i := range rates {
		rates[i] = float64(100 + r.Intn(10)*100)
	}
	sch := FromRates(rates, 1)
	B := 1500.0

	src := NewSource(B, 1, rates[0])
	var lost float64
	for t2, a := range arr {
		src.SetRate(rates[t2])
		lost += src.Step(a)
	}
	res := sch.Run(trace.New(bits, 1), B)
	if math.Abs(lost-res.LostBits) > 1e-6 {
		t.Fatalf("source lost %v, queue lost %v", lost, res.LostBits)
	}
	if math.Abs(src.Occupancy()-res.FinalOccupancy) > 1e-6 {
		t.Fatalf("occupancy %v vs %v", src.Occupancy(), res.FinalOccupancy)
	}
}

// TestSourceMatchesRun holds Source to the offline queue model: stepped
// over the same arrivals at a constant rate, it must end at exactly the
// occupancy and loss queue.Run computes. Both step eq. (3) through
// queue.Step, so any rounding difference between them is a second copy of
// the recursion.
func TestSourceMatchesRun(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		r := stats.NewRNG(seed)
		B, slot := 1e3+r.Float64()*5e3, 0.04
		rate := 1e4 + r.Float64()*1e5
		arr := make([]float64, 500)
		s := NewSource(B, slot, rate)
		for i := range arr {
			arr[i] = r.Float64() * 8e3
			s.Step(arr[i])
		}
		want := queue.Run(arr, slot, rate, B)
		if s.Occupancy() != want.FinalOccupancy || s.LostBits() != want.LostBits {
			t.Fatalf("seed %d: Source occupancy %v lost %v, queue.Run %v lost %v",
				seed, s.Occupancy(), s.LostBits(), want.FinalOccupancy, want.LostBits)
		}
	}
}
