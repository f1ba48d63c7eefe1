package experiments

import (
	"context"
	"fmt"

	"rcbr/internal/core"
	"rcbr/internal/heuristic"
	"rcbr/internal/ld"
	"rcbr/internal/stats"
	"rcbr/internal/trace"
)

// LatencyRow reports the online heuristic's performance at one signaling
// round-trip latency — the study Section III-C calls for ("We do not yet
// have analytical expressions or simulation results studying the effect of
// renegotiation delay on RCBR performance").
type LatencyRow struct {
	DelaySlots       int
	DelayMs          float64
	Efficiency       float64
	MaxOccupancyBits float64
	LostBits         float64
	RenegIntervalSec float64
}

// Latency sweeps signaling delays for the online heuristic over the trace.
// Each delay is an independent deterministic run, so the delays sweep
// concurrently with the results of a serial run.
func Latency(ctx context.Context, tr *trace.Trace, bufferBits, granularity float64,
	delays []int) ([]LatencyRow, error) {

	if tr == nil || tr.Len() == 0 {
		return nil, fmt.Errorf("experiments: missing trace")
	}
	return Sweep(ctx, len(delays),
		func(_ context.Context, i int) (LatencyRow, error) {
			d := delays[i]
			p := heuristic.DefaultParams(granularity)
			p.SignalDelaySlots = d
			res, err := heuristic.Run(tr, bufferBits, p, nil)
			if err != nil {
				return LatencyRow{}, err
			}
			return LatencyRow{
				DelaySlots:       d,
				DelayMs:          float64(d) * tr.SlotSeconds() * 1e3,
				Efficiency:       res.Schedule.BandwidthEfficiency(tr),
				MaxOccupancyBits: res.MaxOccupancy,
				LostBits:         res.LostBits,
				RenegIntervalSec: res.Schedule.MeanRenegIntervalSec(),
			}, nil
		})
}

// ChernoffRow compares the Chernoff estimate of eq. (12) against a direct
// Monte-Carlo measurement of the overload probability for n calls at one
// per-call capacity.
type ChernoffRow struct {
	N         int
	CPerMean  float64 // per-call capacity / mean rate
	Chernoff  float64 // exp(-n I(C/n))
	Simulated float64 // fraction of sampled instants with demand > C
}

// ChernoffValidation reproduces the verification the paper cites ([18]):
// for n independent calls, each a random cyclic shift of the schedule, it
// samples the instantaneous aggregate demand and compares the overload
// fraction to the Chernoff estimate on the schedule's rate marginal. The
// estimate should upper-bound the measurement while tracking its decay.
//
// Every (n, multiple) cell draws from its own RNG, derived by hashing the
// seed with the cell's grid position, so the measurement at one cell does
// not depend on how many cells precede it or run beside it.
func ChernoffValidation(ctx context.Context, sch *core.Schedule, levels []float64,
	ns []int, cMultiples []float64, samples int, seed uint64) ([]ChernoffRow, error) {

	if sch == nil {
		return nil, fmt.Errorf("experiments: missing schedule")
	}
	if samples <= 0 {
		return nil, fmt.Errorf("experiments: non-positive sample count")
	}
	desc := sch.Descriptor(levels)
	dist := ld.Dist{P: desc.Probabilities(), X: desc.Levels()}
	mean := sch.MeanRate()
	rates := sch.Rates()
	return Sweep(ctx, len(ns)*len(cMultiples),
		func(_ context.Context, cell int) (ChernoffRow, error) {
			n := ns[cell/len(cMultiples)]
			m := cMultiples[cell%len(cMultiples)]
			// SplitMix-hash (seed, cell) into a well-separated stream start.
			rng := stats.NewRNG(stats.NewRNG(seed + uint64(cell)).Uint64())
			cPer := m * mean
			C := cPer * float64(n)
			over := 0
			for s := 0; s < samples; s++ {
				var demand float64
				t := rng.Intn(len(rates))
				for k := 0; k < n; k++ {
					demand += rates[(t+rng.Intn(len(rates)))%len(rates)]
				}
				if demand > C {
					over++
				}
			}
			return ChernoffRow{
				N:         n,
				CPerMean:  m,
				Chernoff:  dist.ChernoffTail(cPer, n),
				Simulated: float64(over) / float64(samples),
			}, nil
		})
}
