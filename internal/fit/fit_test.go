package fit

import (
	"math"
	"testing"

	"rcbr/internal/ld"
	"rcbr/internal/queue"
	"rcbr/internal/trace"
)

func TestFitRecoversMean(t *testing.T) {
	tr := trace.SyntheticStarWarsFrames(101, 28800)
	m, err := Fit(tr, DefaultOptions(tr))
	if err != nil {
		t.Fatal(err)
	}
	meanSlot := tr.MeanRate() / tr.FPS // bits per slot
	got, err := m.MTS.MeanRate()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-meanSlot)/meanSlot > 0.05 {
		t.Fatalf("fitted mean %v, trace mean %v bits/slot", got, meanSlot)
	}
	// Class means ascend and shares sum to one.
	var share float64
	for i, s := range m.ClassShare {
		share += s
		if i > 0 && m.ClassMeans[i] <= m.ClassMeans[i-1] {
			t.Fatalf("class means not ascending: %v", m.ClassMeans)
		}
	}
	if math.Abs(share-1) > 1e-9 {
		t.Fatalf("shares sum to %v", share)
	}
	if len(m.Labels) != tr.Len() {
		t.Fatalf("labels %d != slots %d", len(m.Labels), tr.Len())
	}
}

func TestFitCapturesSlowTimeScale(t *testing.T) {
	tr := trace.SyntheticStarWarsFrames(102, 28800)
	m, err := Fit(tr, DefaultOptions(tr))
	if err != nil {
		t.Fatal(err)
	}
	// The generator's scenes last seconds; the fitted dwell must be well
	// above the GOP scale (12 slots) and below the trace length.
	if m.MeanDwellSlots < 24 {
		t.Fatalf("dwell %v slots: slow time scale not separated", m.MeanDwellSlots)
	}
	if m.MeanDwellSlots > float64(tr.Len())/4 {
		t.Fatalf("dwell %v slots: no class switching detected", m.MeanDwellSlots)
	}
	// The top class's mean should be several times the bottom's (the
	// multiple time-scale signature).
	k := len(m.ClassMeans)
	if m.ClassMeans[k-1] < 3*m.ClassMeans[0] {
		t.Fatalf("class spread too small: %v", m.ClassMeans)
	}
}

func TestFittedModelPredictsEquivalentBandwidth(t *testing.T) {
	// The payoff: eq. (9) on the fitted model should land in the right
	// regime for the real trace — the whole-stream EB at B=300kb is well
	// above the mean and a sizeable fraction of the measured zero-smoothing
	// CBR requirement.
	tr := trace.SyntheticStarWarsFrames(103, 28800)
	m, err := Fit(tr, DefaultOptions(tr))
	if err != nil {
		t.Fatal(err)
	}
	const B = 300e3
	bw, err := ld.MTSEffectiveBandwidth(m.MTS, B, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	ebRate := bw.Whole * tr.FPS // bits/slot -> bits/s
	measured := queue.MinRateForLoss(queue.Arrivals(tr), tr.SlotSeconds(), B, 1e-6)
	mean := tr.MeanRate()
	if ebRate < 1.5*mean {
		t.Fatalf("fitted EB %v too close to mean %v", ebRate, mean)
	}
	// Same regime as the measured requirement: within a factor of two.
	ratio := ebRate / measured
	if ratio < 0.5 || ratio > 2 {
		t.Fatalf("fitted EB %v vs measured c(B) %v: ratio %v outside [0.5, 2]",
			ebRate, measured, ratio)
	}
}

func TestFitValidation(t *testing.T) {
	tr := trace.SyntheticStarWarsFrames(104, 2400)
	if _, err := Fit(nil, Options{Classes: 2, WindowSlots: 1}); err == nil {
		t.Error("nil trace accepted")
	}
	if _, err := Fit(tr, Options{Classes: 1, WindowSlots: 1}); err == nil {
		t.Error("one class accepted")
	}
	if _, err := Fit(tr, Options{Classes: 2, WindowSlots: 0}); err == nil {
		t.Error("zero window accepted")
	}
	short := trace.New([]int64{1, 2, 3}, 24)
	if _, err := Fit(short, Options{Classes: 4, WindowSlots: 24}); err == nil {
		t.Error("too-short trace accepted")
	}
}

func TestFitConstantTraceFails(t *testing.T) {
	bits := make([]int64, 4800)
	for i := range bits {
		bits[i] = 1000
	}
	tr := trace.New(bits, 24)
	if _, err := Fit(tr, DefaultOptions(tr)); err == nil {
		t.Fatal("constant trace should collapse to one class and fail")
	}
}

func TestQuantileBounds(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	b := quantileBounds(xs, 4)
	if len(b) != 3 {
		t.Fatalf("bounds = %v", b)
	}
	for i, v := range []float64{1.5, 3.5, 5.5, 8} {
		want := classify(v, b)
		if want != i {
			t.Fatalf("classify(%v) = %d, want %d (bounds %v)", v, want, i, b)
		}
	}
}
