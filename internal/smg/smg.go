// Package smg measures the statistical multiplexing gain of the three
// service scenarios of the paper's Fig. 3 and regenerates Figs. 5 and 6:
//
//	(a) static CBR: each source has a private buffer B and a fixed rate;
//	    the required per-stream rate is independent of the number of
//	    sources N.
//	(b) unrestricted sharing: N sources share one buffer N*B drained at
//	    N*c — the maximum achievable multiplexing gain.
//	(c) RCBR: each source is smoothed into a stepwise-CBR stream by its
//	    private buffer B and renegotiation schedule; the multiplexer is
//	    bufferless with capacity N*c, and bits are lost at rate
//	    max(0, total demand - capacity) when renegotiations fail.
//
// For scenarios (b) and (c) the per-stream capacity c needed for a target
// bit-loss fraction is found by binary search; at every candidate capacity
// the loss is estimated over randomized phasings of the source trace until
// the paper's stopping rule holds (95% confidence half-width within 20% of
// the estimate), exactly as described in Section V-B.
package smg

import (
	"fmt"
	"math"
	"sort"

	"rcbr/internal/core"
	"rcbr/internal/queue"
	"rcbr/internal/stats"
	"rcbr/internal/trace"
)

// Config holds the shared experiment parameters.
type Config struct {
	// Trace is the per-source workload; sources are random cyclic shifts.
	Trace *trace.Trace
	// Schedule is the RCBR renegotiation schedule for the trace (scenario
	// c); typically the offline optimum from internal/trellis.
	Schedule *core.Schedule
	// BufferBits is the per-source buffer B.
	BufferBits float64
	// LossTarget is the acceptable fraction of bits lost (paper: 1e-6).
	LossTarget float64
	// MinReps and MaxReps bound the randomized-phasing replications per
	// capacity candidate; the CI stopping rule decides within the bounds.
	MinReps, MaxReps int
	// CIFrac is the stopping rule's relative half-width (paper: 0.2).
	CIFrac float64
	// Seed drives all phasing randomness.
	Seed uint64
}

// Validate reports the first problem with the configuration, or nil.
func (c *Config) Validate() error {
	switch {
	case c.Trace == nil || c.Trace.Len() == 0:
		return fmt.Errorf("smg: missing trace")
	case c.BufferBits <= 0:
		return fmt.Errorf("smg: buffer must be positive")
	case c.LossTarget <= 0 || c.LossTarget >= 1:
		return fmt.Errorf("smg: loss target %g outside (0,1)", c.LossTarget)
	case c.MinReps <= 0 || c.MaxReps < c.MinReps:
		return fmt.Errorf("smg: bad replication bounds %d..%d", c.MinReps, c.MaxReps)
	case c.CIFrac <= 0:
		return fmt.Errorf("smg: CIFrac must be positive")
	}
	return nil
}

// searchIters is the number of binary-search refinements of a capacity
// search: the bracket narrows 4096-fold.
const searchIters = 12

// SearchStats reports the work behind one capacity search.
type SearchStats struct {
	Simulations int     // loss-estimation runs performed
	FinalLoss   float64 // estimated loss fraction at the returned capacity
}

// search is the capacity search both multiplexed scenarios share: a
// bisection over the per-stream capacity whose every candidate is judged by
// replicating randomized phasings until Section V-B's stopping rule holds.
type search struct {
	cfg *Config
	// sample returns the loss fraction of phasing rep at per-stream
	// capacity c; phasings are generated on first use and reused.
	sample func(c float64, rep int) float64
	st     SearchStats
}

// lossAt estimates the loss fraction at per-stream capacity c: at least
// MinReps and at most MaxReps phasings, stopping once the confidence
// interval is within CIFrac of the mean or lies wholly below the target.
func (s *search) lossAt(c float64) float64 {
	cfg := s.cfg
	var acc stats.Accumulator
	for rep := 0; rep < cfg.MaxReps; rep++ {
		acc.Add(s.sample(c, rep))
		s.st.Simulations++
		if rep+1 >= cfg.MinReps &&
			(acc.Converged(cfg.CIFrac, cfg.MinReps) ||
				acc.UpperBelow(cfg.LossTarget, cfg.MinReps)) {
			break
		}
	}
	return acc.Mean()
}

// bisect narrows [lo, hi] searchIters times toward the smallest capacity
// meeting the loss target and returns hi with the search's stats.
func (s *search) bisect(lo, hi float64) (float64, SearchStats) {
	for iter := 0; iter < searchIters; iter++ {
		mid := (lo + hi) / 2
		if s.lossAt(mid) > s.cfg.LossTarget {
			lo = mid
		} else {
			hi = mid
		}
	}
	s.st.FinalLoss = s.lossAt(hi)
	return hi, s.st
}

// CBRRate returns scenario (a)'s per-stream rate: the minimum CBR rate
// draining a private buffer of B bits with bit-loss at most the target. It
// is N-independent (no multiplexing).
func CBRRate(tr *trace.Trace, bufferBits, lossTarget float64) float64 {
	return queue.MinRateForLoss(queue.Arrivals(tr), tr.SlotSeconds(), bufferBits, lossTarget)
}

// SharedRate returns scenario (b)'s per-stream capacity for n multiplexed
// sources: the minimum c such that n randomly phased copies of the trace
// through a shared buffer n*B at rate n*c lose at most the target fraction.
func SharedRate(cfg Config, n int) (float64, SearchStats, error) {
	if err := cfg.Validate(); err != nil {
		return 0, SearchStats{}, err
	}
	if n <= 0 {
		return 0, SearchStats{}, fmt.Errorf("smg: n must be positive, got %d", n)
	}
	rng := stats.NewRNG(cfg.Seed)
	slot := cfg.Trace.SlotSeconds()
	T := cfg.Trace.Len()

	// Pre-generate aggregate arrival vectors, one per phasing, reused
	// across all binary-search candidates.
	aggs := make([][]float64, 0, cfg.MaxReps)
	makeAgg := func() []float64 {
		agg := make([]float64, T)
		for s := 0; s < n; s++ {
			shift := rng.Intn(T)
			for t := 0; t < T; t++ {
				agg[t] += float64(cfg.Trace.FrameBits[(t+shift)%T])
			}
		}
		return agg
	}

	B := cfg.BufferBits * float64(n)
	cs := search{cfg: &cfg, sample: func(cPer float64, rep int) float64 {
		if rep >= len(aggs) {
			aggs = append(aggs, makeAgg())
		}
		return queue.RunCyclic(aggs[rep], slot, cPer*float64(n), B).LossFraction()
	}}
	hi := CBRRate(cfg.Trace, cfg.BufferBits, cfg.LossTarget)
	if cs.lossAt(hi) > cfg.LossTarget {
		hi = cfg.Trace.PeakFrameRate()
	}
	c, st := cs.bisect(cfg.Trace.MeanRate()*0.95, hi)
	return c, st, nil
}

// rateEvent is one point where a source's stepwise-CBR demand changes.
type rateEvent struct {
	timeSec float64
	delta   float64 // change in aggregate demand, bits/s
}

// RCBRRate returns scenario (c)'s per-stream capacity for n multiplexed
// RCBR sources following randomly shifted copies of cfg.Schedule through a
// bufferless multiplexer. The loss model is the paper's: when aggregate
// demand exceeds capacity, the excess rate is lost until demand recedes.
func RCBRRate(cfg Config, n int) (float64, SearchStats, error) {
	if err := cfg.Validate(); err != nil {
		return 0, SearchStats{}, err
	}
	if cfg.Schedule == nil {
		return 0, SearchStats{}, fmt.Errorf("smg: RCBRRate needs a schedule")
	}
	if n <= 0 {
		return 0, SearchStats{}, fmt.Errorf("smg: n must be positive, got %d", n)
	}
	rng := stats.NewRNG(cfg.Seed + 1)
	T := cfg.Schedule.Slots
	dur := cfg.Schedule.DurationSec()
	offered := float64(cfg.Trace.TotalBits()) * float64(n)

	// Pre-generate per-phasing event lists (merged and time-sorted), reused
	// across all capacity candidates; only the simulation's footnote-4
	// renegotiation events are simulated, never individual frames.
	phasings := make([][]rateEvent, 0, cfg.MaxReps)
	makePhasing := func() []rateEvent {
		var evs []rateEvent
		for s := 0; s < n; s++ {
			sh := cfg.Schedule.CyclicShift(rng.Intn(T))
			var prev float64
			for _, e := range sh.Events() {
				evs = append(evs, rateEvent{timeSec: e.TimeSec, delta: e.Rate - prev})
				prev = e.Rate
			}
		}
		sort.Slice(evs, func(i, j int) bool { return evs[i].timeSec < evs[j].timeSec })
		return evs
	}

	cs := search{cfg: &cfg, sample: func(cPer float64, rep int) float64 {
		if rep >= len(phasings) {
			phasings = append(phasings, makePhasing())
		}
		return excessIntegral(phasings[rep], cPer*float64(n), dur) / offered
	}}
	c, st := cs.bisect(cfg.Trace.MeanRate()*0.95, cfg.Schedule.PeakRate())
	return c, st, nil
}

// excessIntegral integrates max(0, demand(t) - capacity) over [0, dur] for a
// time-sorted event list, returning lost bits.
func excessIntegral(evs []rateEvent, capacity, dur float64) float64 {
	var demand, lost, prevT float64
	for _, e := range evs {
		if e.timeSec > prevT {
			if over := demand - capacity; over > 0 {
				lost += over * (e.timeSec - prevT)
			}
			prevT = e.timeSec
		}
		demand += e.delta
	}
	if over := demand - capacity; over > 0 && dur > prevT {
		lost += over * (dur - prevT)
	}
	return lost
}

// Point is one column of Fig. 6: the per-stream capacity of each scenario
// at a given number of multiplexed sources.
type Point struct {
	N      int
	CBR    float64 // scenario (a), N-independent
	Shared float64 // scenario (b)
	RCBR   float64 // scenario (c)
}

// AsymptoticRCBR returns the paper's asymptote for scenario (c): as N grows,
// the per-stream capacity approaches the schedule's mean rate, i.e. the
// trace mean divided by the bandwidth efficiency.
func AsymptoticRCBR(tr *trace.Trace, sch *core.Schedule) float64 {
	eff := sch.BandwidthEfficiency(tr)
	if eff == 0 {
		return math.Inf(1)
	}
	return tr.MeanRate() / eff
}
