package admission

import (
	"math"
	"testing"

	"rcbr/internal/ld"
	"rcbr/internal/stats"
)

var testDist = ld.Dist{
	P: []float64{0.7, 0.2, 0.1},
	X: []float64{100e3, 300e3, 900e3},
}

func TestPerfectKnowledge(t *testing.T) {
	C := 10e6
	p, err := NewPerfectKnowledge(testDist, C, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	max := p.MaxCalls()
	if max <= 0 {
		t.Fatalf("MaxCalls = %d", max)
	}
	// Peak allocation would admit C/900k = 11 calls; Chernoff must admit
	// more (statistical gain) but less than C/mean = 50.
	if max <= int(C/900e3) {
		t.Fatalf("MaxCalls %d not above peak allocation", max)
	}
	if float64(max) >= C/testDist.Mean() {
		t.Fatalf("MaxCalls %d at or above mean allocation", max)
	}
	for i := 0; i < max; i++ {
		if !p.Admit(0, 100e3) {
			t.Fatalf("call %d rejected below MaxCalls", i)
		}
		p.OnAdmit(i, 0, 100e3)
	}
	if p.Admit(0, 100e3) {
		t.Fatal("admitted beyond MaxCalls")
	}
	p.OnDepart(0, 1, 100e3)
	if !p.Admit(1, 100e3) {
		t.Fatal("rejected after departure freed a slot")
	}
}

func TestPerfectKnowledgeValidation(t *testing.T) {
	if _, err := NewPerfectKnowledge(ld.Dist{}, 1e6, 1e-3); err == nil {
		t.Error("invalid dist accepted")
	}
	if _, err := NewPerfectKnowledge(testDist, 0, 1e-3); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := NewPerfectKnowledge(testDist, 1e6, 0); err == nil {
		t.Error("zero target accepted")
	}
}

func TestMemorylessEmptySystemAdmits(t *testing.T) {
	m, err := NewMemoryless([]float64{100e3, 300e3, 900e3}, 1e6, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Admit(0, 100e3) {
		t.Fatal("empty system must admit")
	}
}

func TestMemorylessUnderestimatesDuringQuietPeriods(t *testing.T) {
	// The paper's core criticism: if every present call happens to sit at a
	// low level right now, the snapshot estimator sees a benign
	// distribution and over-admits relative to perfect knowledge.
	levels := []float64{100e3, 900e3}
	C := 3e6
	m, err := NewMemoryless(levels, C, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	// 20 calls all currently at the low level.
	for i := 0; i < 20; i++ {
		if !m.Admit(0, 100e3) {
			t.Fatalf("snapshot-of-low-levels rejected call %d", i)
		}
		m.OnAdmit(i, 0, 100e3)
	}
	// Perfect knowledge with the true 50/50 distribution admits far fewer.
	truth := ld.Dist{P: []float64{0.5, 0.5}, X: levels}
	p, err := NewPerfectKnowledge(truth, C, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if p.MaxCalls() >= 20 {
		t.Fatalf("perfect MaxCalls = %d, expected < 20", p.MaxCalls())
	}
}

func TestMemorylessSeesCurrentLevels(t *testing.T) {
	levels := []float64{100e3, 900e3}
	C := 2e6
	m, err := NewMemoryless(levels, C, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	// Two calls at the high level: estimated dist is all-peak; the
	// Chernoff test with one more call needs 3*900k = 2.7e6 > C, so the
	// tail at C/3 per call is 1 > target: reject.
	m.OnAdmit(0, 0, 900e3)
	m.OnAdmit(1, 0, 900e3)
	if m.Admit(0, 900e3) {
		t.Fatal("all-peak snapshot should reject")
	}
	// Rate changes update the snapshot.
	m.OnRateChange(0, 1, 900e3, 100e3)
	m.OnRateChange(1, 1, 900e3, 100e3)
	if !m.Admit(1, 100e3) {
		t.Fatal("all-low snapshot should admit")
	}
}

func TestMemoryAccumulatesHistory(t *testing.T) {
	levels := []float64{100e3, 900e3}
	C := 3e6
	m, err := NewMemory(levels, C, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	// One call that spent 50 s at high and is now at low for 50 s: its
	// history is 50/50 even though the snapshot is all-low.
	m.OnAdmit(0, 0, 900e3)
	m.OnRateChange(0, 50, 900e3, 100e3)
	dist, ok := m.estimate(100)
	if !ok {
		t.Fatal("no estimate")
	}
	if dist.P[0] != 0.5 || dist.P[1] != 0.5 {
		t.Fatalf("history estimate = %v, want 50/50", dist.P)
	}
}

func TestMemoryRejectsWhatSnapshotAccepts(t *testing.T) {
	levels := []float64{100e3, 900e3}
	C := 3e6
	target := 1e-6
	mem, err := NewMemory(levels, C, target)
	if err != nil {
		t.Fatal(err)
	}
	ml, err := NewMemoryless(levels, C, target)
	if err != nil {
		t.Fatal(err)
	}
	// Six calls, each with a 50/50 high/low history, all low *right now*.
	for i := 0; i < 6; i++ {
		mem.OnAdmit(i, 0, 900e3)
		ml.OnAdmit(i, 0, 100e3) // snapshot only sees the current level
		mem.OnRateChange(i, 50, 900e3, 100e3)
	}
	now := 100.0
	if !ml.Admit(now, 100e3) {
		t.Fatal("memoryless should admit on the benign snapshot")
	}
	if mem.Admit(now, 100e3) {
		t.Fatal("memory should reject given the true 50/50 history")
	}
}

func TestMemoryDepartureDropsHistory(t *testing.T) {
	m, err := NewMemory([]float64{1, 2}, 100, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	m.OnAdmit(7, 0, 2)
	m.OnDepart(7, 10, 2)
	if _, ok := m.estimate(20); ok {
		t.Fatal("estimate should be empty after sole call departs")
	}
	if !m.Admit(20, 1) {
		t.Fatal("empty system must admit")
	}
}

func TestMemoryUnknownCallIgnored(t *testing.T) {
	m, err := NewMemory([]float64{1, 2}, 100, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	m.OnRateChange(99, 1, 1, 2) // must not panic
	m.OnDepart(99, 2, 2)
}

func TestConstructorsValidate(t *testing.T) {
	if _, err := NewMemoryless([]float64{1}, -1, 0.5); err == nil {
		t.Error("bad memoryless accepted")
	}
	for name, levels := range badLevels {
		if _, err := NewMemory(levels, 1, 0.5); err == nil {
			t.Errorf("NewMemory: levels %s %v accepted", name, levels)
		}
	}
	if _, err := NewMemory([]float64{1}, 1, 2); err == nil {
		t.Error("target > 1 accepted")
	}
	// NaN fails every comparison, and +Inf passes capacity > 0: each
	// constructor refuses both for the capacity, and NaN for the target.
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range [][2]float64{{1e6, nan}, {nan, 1e-3}, {inf, 1e-3}} {
		if _, err := NewPerfectKnowledge(testDist, c[0], c[1]); err == nil {
			t.Errorf("NewPerfectKnowledge: capacity %g target %g accepted", c[0], c[1])
		}
		if _, err := NewMemoryless([]float64{1, 2}, c[0], c[1]); err == nil {
			t.Errorf("NewMemoryless: capacity %g target %g accepted", c[0], c[1])
		}
		if _, err := NewMemory([]float64{1, 2}, c[0], c[1]); err == nil {
			t.Errorf("NewMemory: capacity %g target %g accepted", c[0], c[1])
		}
	}
}

func TestUnlimited(t *testing.T) {
	var u Unlimited
	if !u.Admit(0, 1e12) {
		t.Fatal("Unlimited rejected")
	}
	u.OnAdmit(0, 0, 1)
	u.OnRateChange(0, 1, 1, 2)
	u.OnDepart(0, 2, 2)
	if u.Name() != "unlimited" {
		t.Fatal("name")
	}
}

func TestNames(t *testing.T) {
	p, _ := NewPerfectKnowledge(testDist, 1e6, 1e-3)
	ml, _ := NewMemoryless([]float64{1, 2}, 1, 0.5)
	mem, _ := NewMemory([]float64{1, 2}, 1, 0.5)
	for _, c := range []Controller{p, ml, mem} {
		if c.Name() == "" {
			t.Fatalf("%T has empty name", c)
		}
	}
}

func TestChernoffAdmitMonotoneInCalls(t *testing.T) {
	// More calls in the system -> harder to admit the next one.
	dist := testDist
	C := 5e6
	target := 1e-3
	admitted := 0
	for n := 0; n < 100; n++ {
		if chernoffAdmit(dist, C, target, n) {
			admitted++
		} else {
			// Once rejection starts it must persist.
			for n2 := n; n2 < 100; n2++ {
				if chernoffAdmit(dist, C, target, n2) {
					t.Fatalf("admit non-monotone at n=%d", n2)
				}
			}
			break
		}
	}
	if admitted == 0 || admitted == 100 {
		t.Fatalf("degenerate admitted count %d", admitted)
	}
}

func TestLevelHistIntegration(t *testing.T) {
	// Memoryless snapshot probabilities track adds/removes exactly.
	levels := stats.UniformLevels(1e5, 1e6, 10)
	m, err := NewMemoryless(levels, 1e7, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	m.OnAdmit(1, 0, 1e5)
	m.OnAdmit(2, 0, 1e6)
	m.OnRateChange(1, 1, 1e5, 1e6)
	m.OnDepart(2, 2, 1e6)
	// One call left, at level 1e6.
	if m.calls != 1 {
		t.Fatalf("calls = %d", m.calls)
	}
	p := m.levels.Probabilities()
	if p[len(p)-1] != 1 {
		t.Fatalf("snapshot = %v", p)
	}
}
