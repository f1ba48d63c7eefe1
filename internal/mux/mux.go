// Package mux simulates a cell-level FIFO multiplexer, the data plane of
// Section III-A: "because traffic entering the network is smooth, internal
// buffers can be small and packet scheduling need only be first-in
// first-out". RCBR output is a superposition of CBR cell streams, whose
// FIFO queue stays within a few cells per source; the same bits delivered
// as raw VBR frame bursts need orders of magnitude more buffering. RunCBR
// and RunFrameBursts make this comparison measurable.
//
// Time is discretized to one cell service slot (1/link cell rate); every
// tick serves at most one cell.
package mux

import (
	"fmt"
	"math"

	"rcbr/internal/trace"
)

// Flow is one CBR cell stream entering the multiplexer.
type Flow struct {
	// CellsPerSec is the flow's rate in cells/second.
	CellsPerSec float64
	// Phase in [0, 1) staggers the flow's first cell.
	Phase float64
}

// Result summarizes a multiplexer run.
type Result struct {
	Ticks         int64
	ArrivedCells  int64
	ServedCells   int64
	LostCells     int64
	MaxQueueCells int
	// SumQueueOnArrival accumulates the queue length seen by each arriving
	// cell; divided by arrivals it estimates the mean cell delay in cell
	// times (by Little-style sampling).
	SumQueueOnArrival int64
}

// MeanDelayCells returns the average queue length seen on arrival, an
// estimate of the mean cell delay in units of cell service times.
func (r Result) MeanDelayCells() float64 {
	if r.ArrivedCells == 0 {
		return 0
	}
	return float64(r.SumQueueOnArrival) / float64(r.ArrivedCells)
}

// RunCBR multiplexes CBR flows onto a link of linkCellRate cells/second with
// a buffer of bufferCells, for the given duration in seconds. It panics on
// invalid arguments or a flow faster than the link.
func RunCBR(flows []Flow, linkCellRate float64, bufferCells int, durationSec float64) Result {
	if linkCellRate <= 0 || bufferCells < 0 || durationSec <= 0 {
		panic("mux: invalid RunCBR arguments")
	}
	phases := make([]float64, len(flows))
	rates := make([]float64, len(flows))
	emitted := make([]int64, len(flows))
	for i, f := range flows {
		if f.CellsPerSec < 0 || f.CellsPerSec > linkCellRate {
			panic(fmt.Sprintf("mux: flow %d rate %g outside [0, link %g]",
				i, f.CellsPerSec, linkCellRate))
		}
		phases[i] = math.Mod(math.Abs(f.Phase), 1)
		rates[i] = f.CellsPerSec / linkCellRate // cells per tick
	}
	ticks := int64(durationSec * linkCellRate)
	var res Result
	res.Ticks = ticks
	queue := 0
	for t := int64(0); t < ticks; t++ {
		for i := range rates {
			// Drift-free arrival law: by the end of tick t the flow has
			// emitted floor(phase + rate*(t+1)) cells. One rounding per
			// evaluation — unlike a running credits[i] += rates[i] sum,
			// whose error grows with t and skews arrival timing for
			// non-dyadic rates (summing 0.1 ten million times is short by
			// a whole cell).
			if target := int64(phases[i] + rates[i]*float64(t+1)); target > emitted[i] {
				emitted[i] = target
				res.ArrivedCells++
				res.SumQueueOnArrival += int64(queue)
				if queue >= bufferCells {
					res.LostCells++
				} else {
					queue++
				}
			}
		}
		if queue > res.MaxQueueCells {
			res.MaxQueueCells = queue
		}
		if queue > 0 {
			queue--
			res.ServedCells++
		}
	}
	return res
}

// RunFrameBursts multiplexes n phase-shifted copies of a frame trace onto
// the link, each frame arriving as a back-to-back burst of
// ceil(frameBits/cellPayloadBits) cells at its frame boundary — the
// unsmoothed VBR data path RCBR replaces. Shifts gives each copy's offset
// in frames; it must have length n.
func RunFrameBursts(tr *trace.Trace, shifts []int, linkCellRate float64,
	bufferCells int, cellPayloadBits float64) Result {

	if linkCellRate <= 0 || bufferCells < 0 || cellPayloadBits <= 0 {
		panic("mux: invalid RunFrameBursts arguments")
	}
	if tr.Len() == 0 {
		return Result{}
	}
	ticksPerFrame := linkCellRate / tr.FPS
	if ticksPerFrame < 1 {
		panic("mux: link slower than one cell per frame")
	}
	total := int64(float64(tr.Len()) * ticksPerFrame)
	var res Result
	res.Ticks = total
	queue := 0
	frame := -1
	for t := int64(0); t < total; t++ {
		if f := int(float64(t) / ticksPerFrame); f > frame {
			frame = f
			// All copies' frames burst in at the frame boundary.
			for _, sh := range shifts {
				bits := float64(tr.FrameBits[(frame+sh)%tr.Len()])
				cells := int(math.Ceil(bits / cellPayloadBits))
				for c := 0; c < cells; c++ {
					res.ArrivedCells++
					res.SumQueueOnArrival += int64(queue)
					if queue >= bufferCells {
						res.LostCells++
					} else {
						queue++
					}
				}
			}
		}
		if queue > res.MaxQueueCells {
			res.MaxQueueCells = queue
		}
		if queue > 0 {
			queue--
			res.ServedCells++
		}
	}
	return res
}

// CBRFlowsForRates builds one CBR flow per rate — callers typically pass
// each source's current RCBR rate. Rates are in bits/second;
// cellPayloadBits converts to cells/second. Phases spread uniformly.
func CBRFlowsForRates(rates []float64, cellPayloadBits float64) []Flow {
	flows := make([]Flow, len(rates))
	for i, r := range rates {
		flows[i] = Flow{
			CellsPerSec: r / cellPayloadBits,
			Phase:       float64(i) / float64(len(rates)+1),
		}
	}
	return flows
}
