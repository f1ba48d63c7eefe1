package heuristic

import (
	"testing"

	"rcbr/internal/core"
	"rcbr/internal/metrics"
)

// metricParams returns tight thresholds so a short arrival pattern can cross
// both watermarks deterministically.
func metricParams(reg *metrics.Registry) Params {
	return Params{
		LowWater:    10e3,
		HighWater:   50e3,
		FlushSlots:  5,
		Granularity: 10e3,
		ARCoeff:     0,
		Metrics:     reg,
	}
}

func TestHeuristicMetricsCountTriggersAndFailures(t *testing.T) {
	reg := metrics.NewRegistry()
	// A network that never grants anything: every trigger is a failure.
	deny := NegotiatorFunc(func(current, _ float64) float64 { return current })
	src := core.NewSource(1e6, 1.0, 10e3)
	ctl, err := NewController(src, metricParams(reg), deny)
	if err != nil {
		t.Fatal(err)
	}

	var attempts, failures int
	for i := 0; i < 5; i++ {
		// 100 kb arrives per 1-second slot against a 10 kb/s drain: the
		// buffer blows through HighWater on the first step and stays there.
		_, a, f := ctl.Step(100e3)
		if a {
			attempts++
		}
		if f {
			failures++
		}
	}
	if attempts == 0 || failures != attempts {
		t.Fatalf("attempts=%d failures=%d, want equal and nonzero", attempts, failures)
	}

	s := reg.Snapshot()
	if got := s.Counters[MetricTriggers]; got != int64(attempts) {
		t.Fatalf("%s = %d, want %d", MetricTriggers, got, attempts)
	}
	if got := s.Counters[MetricFailures]; got != int64(failures) {
		t.Fatalf("%s = %d, want %d", MetricFailures, got, failures)
	}
	// The occupancy crossed HighWater exactly once (it never drained back).
	if got := s.Counters[MetricHighCrossings]; got != 1 {
		t.Fatalf("%s = %d, want 1", MetricHighCrossings, got)
	}
	if got := s.Counters[MetricLowCrossings]; got != 0 {
		t.Fatalf("%s = %d, want 0", MetricLowCrossings, got)
	}
}

func TestHeuristicMetricsLowWaterCrossing(t *testing.T) {
	reg := metrics.NewRegistry()
	src := core.NewSource(1e6, 1.0, 10e3)
	ctl, err := NewController(src, metricParams(reg), nil) // AlwaysGrant
	if err != nil {
		t.Fatal(err)
	}
	// Fill past HighWater, then starve the source so the granted higher rate
	// drains the buffer back below LowWater.
	for i := 0; i < 3; i++ {
		ctl.Step(100e3)
	}
	for i := 0; i < 50 && src.Occupancy() >= 10e3; i++ {
		ctl.Step(0)
	}
	if src.Occupancy() >= 10e3 {
		t.Fatalf("buffer did not drain: %v bits", src.Occupancy())
	}

	s := reg.Snapshot()
	if got := s.Counters[MetricHighCrossings]; got < 1 {
		t.Fatalf("%s = %d, want >= 1", MetricHighCrossings, got)
	}
	if got := s.Counters[MetricLowCrossings]; got < 1 {
		t.Fatalf("%s = %d, want >= 1", MetricLowCrossings, got)
	}
	if got := s.Counters[MetricFailures]; got != 0 {
		t.Fatalf("%s = %d under AlwaysGrant, want 0", MetricFailures, got)
	}
}

func TestHeuristicWithoutMetricsStillWorks(t *testing.T) {
	src := core.NewSource(1e6, 1.0, 10e3)
	p := metricParams(nil)
	ctl, err := NewController(src, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		ctl.Step(100e3) // must not panic with nil instruments
	}
}
