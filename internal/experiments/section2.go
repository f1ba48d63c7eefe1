package experiments

import (
	"fmt"
	"math"

	"rcbr/internal/cell"
	"rcbr/internal/datapath"
	"rcbr/internal/shaper"
	"rcbr/internal/stats"
	"rcbr/internal/switchfab"
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
// raw VBR frame bursts on one FIFO output port (Section III-A's small-buffer
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
// each smoothed to perSourceRate bits/second on the CBR side, through a
// datapath.Forwarder egress port (runFIFO). A burst is a frame's
// ceil(bits/384) cells, back to back, at the frame boundary.
func DataPath(tr *trace.Trace, n int, perSourceRate, utilization float64, seed uint64) (DataPathResult, error) {
	if tr == nil || tr.Len() == 0 || n <= 0 {
		return DataPathResult{}, fmt.Errorf("experiments: invalid data-path arguments")
	}
	if !(utilization > 0 && utilization < 1) {
		return DataPathResult{}, fmt.Errorf("experiments: utilization %g outside (0,1)", utilization)
	}
	linkCellRate := float64(n) * perSourceRate / utilization / datapath.CellPayloadBits
	slotsPerFrame := linkCellRate / tr.FPS
	if !(slotsPerFrame >= 1) {
		return DataPathResult{}, fmt.Errorf("experiments: link of %g cells/s is slower than one cell per frame", linkCellRate)
	}
	shifts := make([]int, n)
	rng := stats.NewRNG(seed)
	for i := range shifts {
		shifts[i] = rng.Intn(tr.Len())
	}
	// Flow i sends rate cells per slot at phase i/(n+1): 0 or 1 a slot.
	rate := perSourceRate / datapath.CellPayloadBits / linkCellRate
	res := DataPathResult{Sources: n, LinkCellRate: linkCellRate}
	var err error
	res.CBRMaxQueue, res.CBRMeanDelay, err = runFIFO(n, linkCellRate, int64(tr.Duration()*linkCellRate), func(t int64, cells []int) {
		for i := range cells {
			phase := float64(i) / float64(n+1)
			cells[i] = int(cbrCells(phase, rate, t) - cbrCells(phase, rate, t-1))
		}
	})
	if err != nil {
		return DataPathResult{}, err
	}
	frame := -1
	res.BurstMaxQueue, res.BurstMeanDelay, err = runFIFO(n, linkCellRate, int64(float64(tr.Len())*slotsPerFrame), func(t int64, cells []int) {
		clear(cells)
		if f := int(float64(t) / slotsPerFrame); f > frame {
			frame = f
			for i, sh := range shifts {
				cells[i] = int(math.Ceil(float64(tr.FrameBits[(f+sh)%tr.Len()]) / datapath.CellPayloadBits))
			}
		}
	})
	if err != nil {
		return DataPathResult{}, err
	}
	if res.CBRMaxQueue > 0 {
		res.QueueRatio = float64(res.BurstMaxQueue) / float64(res.CBRMaxQueue)
	}
	return res, nil
}

// cbrCells is the drift-free CBR arrival law: a flow of rate cells per slot
// and phase in [0, 1) has sent floor(phase + rate·(t+1)) cells by the end
// of slot t, one rounding per evaluation (a running sum of rate drifts).
func cbrCells(phase, rate float64, t int64) int64 {
	return int64(phase + rate*float64(t+1))
}

// runFIFO drives one egress port of a datapath.Forwarder in virtual slot
// time: slots slots of a link serving linkCellRate cells/second. At slot t,
// arrivals sets how many cells each of vcs VCs sends; a cell samples the
// queue, is injected and forwarded at once; then the slot's maximum queue
// is taken and one cell transmitted. It returns that maximum and the mean
// queue seen on arrival (cell times). Rings of MaxRingCells and link-rate
// shapers as deep measure the FIFO alone: a cell not forwarded is an error.
func runFIFO(vcs int, linkCellRate float64, slots int64, arrivals func(t int64, cells []int)) (maxQueue int, meanDelay float64, err error) {
	f := datapath.New(datapath.WithRingCells(datapath.MaxRingCells), datapath.WithDepthCells(datapath.MaxRingCells))
	in, err := f.AddPort(0)
	if err != nil {
		return 0, 0, err
	}
	out, err := f.AddPort(1)
	if err != nil {
		return 0, 0, err
	}
	vcCells := make([]datapath.Cell, vcs)
	for i := range vcCells {
		id := switchfab.VCID(i)
		if err := f.AddVC(id, out.ID(), linkCellRate*datapath.CellPayloadBits); err != nil {
			return 0, 0, err
		}
		if err := cell.PutData(&vcCells[i], cell.Header{VPI: id.VPI(), VCI: id.VCI()}, nil); err != nil {
			return 0, 0, err
		}
	}
	cells := make([]int, vcs)
	var arrived, sumQueue int64
	for t := int64(0); t < slots; t++ {
		arrivals(t, cells)
		for i, k := range cells {
			for ; k > 0; k-- {
				sumQueue += int64(out.OutLen())
				if !f.Inject(in, &vcCells[i]) {
					return 0, 0, fmt.Errorf("experiments: ingress ring refused a cell at slot %d", t)
				}
				f.Forward(int64(float64(t) * 1e9 / linkCellRate))
				arrived++
			}
		}
		maxQueue = max(maxQueue, out.OutLen())
		f.Transmit(out, 1)
	}
	if fwd := in.Stats().Forwarded; fwd != arrived {
		return 0, 0, fmt.Errorf("experiments: forwarder forwarded %d of %d cells", fwd, arrived)
	}
	if arrived > 0 {
		meanDelay = float64(sumQueue) / float64(arrived)
	}
	return maxQueue, meanDelay, nil
}
