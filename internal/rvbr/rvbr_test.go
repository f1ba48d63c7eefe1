package rvbr

import (
	"math"
	"testing"

	"rcbr/internal/core"
	"rcbr/internal/shaper"
	"rcbr/internal/stats"
	"rcbr/internal/trace"
	"rcbr/internal/trellis"
)

func fixture(t *testing.T) (*trace.Trace, *core.Schedule) {
	t.Helper()
	tr := trace.SyntheticStarWarsFrames(111, 4800)
	sch, _, err := trellis.Optimize(tr, trellis.Options{
		Levels:         stats.UniformLevels(48e3, 5e6, 12),
		BufferBits:     300e3,
		BufferGridBits: 300e3 / 2048,
		Cost:           core.CostModel{Alpha: 1e6, Beta: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr, sch
}

func TestFromScheduleConformance(t *testing.T) {
	tr, sch := fixture(t)
	rv, err := FromSchedule(tr, sch, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if err := rv.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(rv.Segments) != len(sch.Segments) {
		t.Fatalf("segments %d vs %d", len(rv.Segments), len(sch.Segments))
	}
	// Every segment's traffic must be conformant to its descriptor.
	for i, seg := range rv.Segments {
		end := rv.Slots
		if i+1 < len(rv.Segments) {
			end = rv.Segments[i+1].StartSlot
		}
		sub := tr.Slice(seg.StartSlot, end)
		res := shaper.Police(sub, seg.Rate, seg.Depth)
		if res.DroppedBits > 1e-6 {
			t.Fatalf("segment %d drops %v bits under its own descriptor",
				i, res.DroppedBits)
		}
	}
}

func TestRVBRTradeoff(t *testing.T) {
	// The Section VIII tradeoff: RVBR reserves less rate than RCBR but
	// commits the network to buffering bursts; RCBR reserves more rate and
	// needs no network buffers.
	tr, sch := fixture(t)
	cmp, rv, err := Compare(tr, sch, 300e3, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.RVBRMeanRate > cmp.RCBRMeanRate {
		t.Fatalf("RVBR mean rate %v above RCBR %v", cmp.RVBRMeanRate, cmp.RCBRMeanRate)
	}
	if cmp.RateSavings <= 0 || cmp.RateSavings >= 1 {
		t.Fatalf("rate savings %v", cmp.RateSavings)
	}
	// And the price: network burst exposure of the same order as (or more
	// than) RCBR's private source buffer.
	if cmp.RVBRMaxNetworkBurst <= 0 {
		t.Fatalf("no burst exposure: %+v", cmp)
	}
	if rv.MaxDepth() != cmp.RVBRMaxNetworkBurst {
		t.Fatal("inconsistent max depth")
	}
	if cmp.RVBRMeanNetworkBurst > cmp.RVBRMaxNetworkBurst {
		t.Fatal("mean depth above max depth")
	}
}

func TestRateMarginShrinksDepth(t *testing.T) {
	tr, sch := fixture(t)
	_, tight, err := Compare(tr, sch, 300e3, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	_, slack, err := Compare(tr, sch, 300e3, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	if slack.MaxDepth() > tight.MaxDepth() {
		t.Fatalf("20%% rate margin should shrink depth: %v vs %v",
			slack.MaxDepth(), tight.MaxDepth())
	}
	if slack.MeanRate() <= tight.MeanRate() {
		t.Fatal("margin must raise the reserved rate")
	}
}

func TestValidation(t *testing.T) {
	tr, sch := fixture(t)
	for _, m := range []float64{0.5, math.NaN(), math.Inf(1)} {
		if _, _, err := Compare(tr, sch, 300e3, m); err == nil {
			t.Errorf("margin %g accepted", m)
		}
	}
	short := trace.New([]int64{1, 2}, 24)
	if _, err := FromSchedule(short, sch, 1); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := FromSchedule(tr, &core.Schedule{}, 1); err == nil {
		t.Error("invalid schedule accepted")
	}
	bad := []*Schedule{
		{},
		{Segments: []Segment{{StartSlot: 1}}, Slots: 10, SlotSeconds: 1},
		{Segments: []Segment{{Rate: -1}}, Slots: 10, SlotSeconds: 1},
		{Segments: []Segment{{}, {}}, Slots: 10, SlotSeconds: 1},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad schedule %d accepted", i)
		}
	}
}

func TestScheduleStats(t *testing.T) {
	s := &Schedule{
		Segments: []Segment{
			{StartSlot: 0, Rate: 100, Depth: 50},
			{StartSlot: 5, Rate: 300, Depth: 10},
		},
		Slots:       10,
		SlotSeconds: 1,
	}
	if m := s.MeanRate(); m != 200 {
		t.Fatalf("mean rate %v", m)
	}
	if d := s.MaxDepth(); d != 50 {
		t.Fatalf("max depth %v", d)
	}
	if d := s.MeanDepth(); d != 30 {
		t.Fatalf("mean depth %v", d)
	}
}
