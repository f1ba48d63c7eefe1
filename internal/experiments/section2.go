package experiments

import (
	"fmt"
	"math"

	"rcbr/internal/mux"
	"rcbr/internal/shaper"
	"rcbr/internal/stats"
	"rcbr/internal/trace"
)

// Section2Row quantifies the paper's Section II dilemma at one token rate:
// with a one-shot (r, b) descriptor, the source must choose between a huge
// bucket (loss of protection / switch buffering), heavy policing loss, or
// long shaping delay — and only rates near the sustained peak escape, at the
// cost of the statistical multiplexing gain.
type Section2Row struct {
	RateOverMean float64
	// MinDepthBits is b*(r): the bucket depth for lossless conformance.
	MinDepthBits float64
	// PolicingLoss is the bit-loss fraction when policing with the small
	// bucket instead (rcbrsim section2's -bucket, 300 kb by default).
	PolicingLoss float64
	// ShapingDelaySec is the worst-case delay when shaping with the same
	// small bucket.
	ShapingDelaySec float64
}

// Section2 evaluates the dilemma across token rates (multiples of the mean).
// The small bucket must be a positive finite number of bits.
func Section2(tr *trace.Trace, rateMultiples []float64, smallBucketBits float64) ([]Section2Row, error) {
	if tr == nil || tr.Len() == 0 {
		return nil, fmt.Errorf("experiments: missing trace")
	}
	if !(smallBucketBits > 0) || math.IsInf(smallBucketBits, 0) {
		return nil, fmt.Errorf("experiments: -bucket must be a positive finite number of bits, got %g", smallBucketBits)
	}
	mean := tr.MeanRate()
	rows := make([]Section2Row, len(rateMultiples))
	for i, m := range rateMultiples {
		r := m * mean
		rows[i] = Section2Row{
			RateOverMean:    m,
			MinDepthBits:    shaper.MinDepth(tr, r),
			PolicingLoss:    shaper.Police(tr, r, smallBucketBits).LossFraction(),
			ShapingDelaySec: shaper.Shape(tr, r, smallBucketBits).MaxDelaySec,
		}
	}
	return rows, nil
}

// DataPathResult compares cell-level buffering for smoothed RCBR output vs
// raw VBR frame bursts on one multiplexer (Section III-A's small-buffer
// claim).
type DataPathResult struct {
	Sources        int
	LinkCellRate   float64
	CBRMaxQueue    int
	CBRMeanDelay   float64 // cell times
	BurstMaxQueue  int
	BurstMeanDelay float64
	QueueRatio     float64
}

// DataPath runs the comparison for n phase-shifted copies of the trace,
// each smoothed to perSourceRate bits/second on the CBR side.
func DataPath(tr *trace.Trace, n int, perSourceRate, cellPayloadBits, utilization float64, seed uint64) (DataPathResult, error) {
	if tr == nil || tr.Len() == 0 || n <= 0 {
		return DataPathResult{}, fmt.Errorf("experiments: invalid data-path arguments")
	}
	if !(utilization > 0 && utilization < 1) {
		return DataPathResult{}, fmt.Errorf("experiments: utilization %g outside (0,1)", utilization)
	}
	linkCellRate := float64(n) * perSourceRate / utilization / cellPayloadBits
	shifts := make([]int, n)
	rates := make([]float64, n)
	rng := stats.NewRNG(seed)
	for i := range shifts {
		shifts[i] = rng.Intn(tr.Len())
		rates[i] = perSourceRate
	}
	const hugeBuffer = 1 << 20
	cbr := mux.RunCBR(mux.CBRFlowsForRates(rates, cellPayloadBits), linkCellRate,
		hugeBuffer, tr.Duration())
	vbr := mux.RunFrameBursts(tr, shifts, linkCellRate, hugeBuffer, cellPayloadBits)
	res := DataPathResult{
		Sources:        n,
		LinkCellRate:   linkCellRate,
		CBRMaxQueue:    cbr.MaxQueueCells,
		CBRMeanDelay:   cbr.MeanDelayCells(),
		BurstMaxQueue:  vbr.MaxQueueCells,
		BurstMeanDelay: vbr.MeanDelayCells(),
	}
	if cbr.MaxQueueCells > 0 {
		res.QueueRatio = float64(vbr.MaxQueueCells) / float64(cbr.MaxQueueCells)
	}
	return res, nil
}
