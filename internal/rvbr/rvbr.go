// Package rvbr implements a renegotiated VBR service for comparison with
// RCBR. Section VIII of the paper positions RCBR as "the simplest possible
// renegotiated service"; the natural alternative renegotiates a full token
// bucket descriptor (rate r_i, depth b_i) per segment instead of a bare CBR
// rate. An RVBR source can reserve less rate than RCBR — its bucket admits
// bursts into the network — but every admitted burst must be absorbed by
// switch buffers, reintroducing exactly the shared-buffer/loss-of-protection
// costs RCBR's design avoids (Section II).
//
// FromSchedule derives an RVBR descriptor sequence aligned with an RCBR
// schedule's segments, so the two services carry identical traffic over
// identical renegotiation points and the comparison isolates the descriptor
// shape: CBR rate vs token bucket.
package rvbr

import (
	"fmt"
	"math"

	"rcbr/internal/core"
	"rcbr/internal/shaper"
	"rcbr/internal/trace"
)

// Segment is one renegotiated token-bucket descriptor: in force from
// StartSlot until the next segment.
type Segment struct {
	StartSlot int
	Rate      float64 // token rate, bits/second
	Depth     float64 // bucket depth, bits
}

// Schedule is a piecewise token-bucket reservation.
type Schedule struct {
	Segments    []Segment
	Slots       int
	SlotSeconds float64
}

// Validate reports the first structural problem, or nil.
func (s *Schedule) Validate() error {
	if s.SlotSeconds <= 0 || s.Slots <= 0 || len(s.Segments) == 0 {
		return fmt.Errorf("rvbr: empty or malformed schedule")
	}
	if s.Segments[0].StartSlot != 0 {
		return fmt.Errorf("rvbr: first segment starts at %d", s.Segments[0].StartSlot)
	}
	for i, seg := range s.Segments {
		if seg.Rate < 0 || seg.Depth < 0 {
			return fmt.Errorf("rvbr: segment %d negative descriptor", i)
		}
		if i > 0 && seg.StartSlot <= s.Segments[i-1].StartSlot {
			return fmt.Errorf("rvbr: segment %d out of order", i)
		}
	}
	return nil
}

// MeanRate returns the time-average token rate (the bandwidth an admission
// controller reserves).
func (s *Schedule) MeanRate() float64 {
	var sum float64
	for i, seg := range s.Segments {
		end := s.Slots
		if i+1 < len(s.Segments) {
			end = s.Segments[i+1].StartSlot
		}
		sum += seg.Rate * float64(end-seg.StartSlot)
	}
	return sum / float64(s.Slots)
}

// MaxDepth returns the largest bucket depth — the burst the network must be
// prepared to buffer at every hop (the loss-of-protection exposure).
func (s *Schedule) MaxDepth() float64 {
	var max float64
	for _, seg := range s.Segments {
		if seg.Depth > max {
			max = seg.Depth
		}
	}
	return max
}

// MeanDepth returns the time-average bucket depth.
func (s *Schedule) MeanDepth() float64 {
	var sum float64
	for i, seg := range s.Segments {
		end := s.Slots
		if i+1 < len(s.Segments) {
			end = s.Segments[i+1].StartSlot
		}
		sum += seg.Depth * float64(end-seg.StartSlot)
	}
	return sum / float64(s.Slots)
}

// FromSchedule derives the RVBR descriptor sequence carrying the trace over
// the same segment boundaries as the RCBR schedule: for each segment the
// token rate is the segment's own average arrival rate (scaled by
// rateMargin >= 1) and the depth is the minimal bucket making the segment's
// traffic conformant from a full bucket. The source buffer becomes network
// exposure: the per-segment depth is what switches must buffer.
func FromSchedule(tr *trace.Trace, rcbr *core.Schedule, rateMargin float64) (*Schedule, error) {
	if err := rcbr.Validate(); err != nil {
		return nil, err
	}
	if tr.Len() != rcbr.Slots {
		return nil, fmt.Errorf("rvbr: trace %d slots vs schedule %d", tr.Len(), rcbr.Slots)
	}
	if !(rateMargin >= 1) || math.IsInf(rateMargin, 1) {
		return nil, fmt.Errorf("rvbr: rate margin %g is not a finite number of at least 1", rateMargin)
	}
	out := &Schedule{Slots: rcbr.Slots, SlotSeconds: rcbr.SlotSeconds}
	for i, seg := range rcbr.Segments {
		end := rcbr.Slots
		if i+1 < len(rcbr.Segments) {
			end = rcbr.Segments[i+1].StartSlot
		}
		sub := tr.Slice(seg.StartSlot, end)
		rate := sub.MeanRate() * rateMargin
		depth := shaper.MinDepth(sub, rate)
		out.Segments = append(out.Segments, Segment{
			StartSlot: seg.StartSlot,
			Rate:      rate,
			Depth:     depth,
		})
	}
	return out, nil
}

// Comparison summarizes RCBR vs RVBR carrying the same trace over the same
// renegotiation points.
type Comparison struct {
	// RCBRMeanRate is the CBR reservation's time-average rate.
	RCBRMeanRate float64
	// RCBRSourceBuffer is the single per-source buffer RCBR needs (bits);
	// the network needs none.
	RCBRSourceBuffer float64
	// RVBRMeanRate is the token reservation's time-average rate.
	RVBRMeanRate float64
	// RVBRMaxNetworkBurst is the largest bucket depth: the per-hop buffer
	// the network must provision to honor the descriptor.
	RVBRMaxNetworkBurst float64
	// RVBRMeanNetworkBurst is the time-average committed burst exposure.
	RVBRMeanNetworkBurst float64
	// RateSavings is 1 - RVBR/RCBR mean rate: what the bucket buys.
	RateSavings float64
}

// Compare evaluates both services on the trace.
func Compare(tr *trace.Trace, rcbrSch *core.Schedule, sourceBuffer, rateMargin float64) (Comparison, *Schedule, error) {
	rv, err := FromSchedule(tr, rcbrSch, rateMargin)
	if err != nil {
		return Comparison{}, nil, err
	}
	c := Comparison{
		RCBRMeanRate:         rcbrSch.MeanRate(),
		RCBRSourceBuffer:     sourceBuffer,
		RVBRMeanRate:         rv.MeanRate(),
		RVBRMaxNetworkBurst:  rv.MaxDepth(),
		RVBRMeanNetworkBurst: rv.MeanDepth(),
	}
	if c.RCBRMeanRate > 0 {
		c.RateSavings = 1 - c.RVBRMeanRate/c.RCBRMeanRate
	}
	return c, rv, nil
}
