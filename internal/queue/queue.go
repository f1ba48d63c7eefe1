// Package queue implements the slotted fluid-queue model the paper uses for
// all three service scenarios (Fig. 3): data arriving per slot into a finite
// buffer drained at a constant or piecewise-constant rate, with bits lost on
// overflow. It also provides the binary searches behind the (c, B) curve of
// Fig. 5 and the per-stream capacity searches of Fig. 6.
//
// The queue recursion is the paper's eq. (3): with arrivals a_t and service
// s_t bits in slot t, the occupancy evolves as
//
//	q_t = clamp(q_{t-1} + a_t - s_t, 0, B)
//
// and any excess above B is counted as lost.
package queue

import (
	"fmt"
	"math"

	"rcbr/internal/trace"
)

// Result summarizes one queue run.
type Result struct {
	ArrivedBits    float64
	ServedBits     float64
	LostBits       float64
	MaxOccupancy   float64 // bits
	FinalOccupancy float64 // bits
	// MaxDelaySlots is the largest virtual delay observed, in slots: the
	// time data arriving at the worst moment waits before departure,
	// measured by occupancy divided by the current service rate.
	MaxDelaySlots float64
}

// LossFraction returns LostBits/ArrivedBits, or 0 for an empty run.
func (r Result) LossFraction() float64 {
	if r.ArrivedBits == 0 {
		return 0
	}
	return r.LostBits / r.ArrivedBits
}

// Step is eq. (3) for one slot: a buffer of B bits holding q bits receives
// a bits and offers s bits of service. It returns the next occupancy and
// the bits lost above B. Every model in the repository that steps a finite
// buffer slot by slot steps it here.
func Step(q, a, s, B float64) (next, lost float64) {
	q += a - s
	if q < 0 {
		q = 0
	}
	if q > B {
		return B, q - B
	}
	return q, 0
}

// meter accumulates the Result of one measured pass. It is a value the
// loops reassign, not a pointer target, so slot inlines and the sums stay
// in registers.
type meter struct {
	arrived, lost, maxQ, maxDelay float64
}

// slot steps eq. (3) from q with a bits arriving and s bits of service and
// records the slot. It returns the updated meter and the next occupancy.
// The virtual delay q/s is +Inf for a backlog with no service and NaN
// (never a maximum) for an empty buffer with none.
func (m meter) slot(q, a, s, B float64) (meter, float64) {
	q, l := Step(q, a, s, B)
	m.arrived += a
	m.lost += l
	if q > m.maxQ {
		m.maxQ = q
	}
	if d := q / s; d > m.maxDelay {
		m.maxDelay = d
	}
	return m, q
}

// result is the pass's Result ending at occupancy q, with every bit neither
// lost nor still queued counted as served.
func (m meter) result(q float64) Result {
	return Result{
		ArrivedBits:    m.arrived,
		ServedBits:     m.arrived - m.lost - q,
		LostBits:       m.lost,
		MaxOccupancy:   m.maxQ,
		FinalOccupancy: q,
		MaxDelaySlots:  m.maxDelay,
	}
}

// Run simulates a finite buffer of B bits receiving arrivals[t] bits in slot
// t and drained at serviceRate (bits/second) with slots of slotSec seconds.
// It panics if slotSec, B or serviceRate is negative.
func Run(arrivals []float64, slotSec, serviceRate, B float64) Result {
	if slotSec <= 0 || B < 0 || serviceRate < 0 {
		panic("queue: invalid Run arguments")
	}
	perSlot := serviceRate * slotSec
	var m meter
	var q float64
	for _, a := range arrivals {
		m, q = m.slot(q, a, perSlot, B)
	}
	return m.result(q)
}

// RunSchedule is like Run but with a per-slot service rate rates[t]
// (bits/second). rates must be at least as long as arrivals, and no rate
// may be negative.
func RunSchedule(arrivals []float64, slotSec float64, rates []float64, B float64) Result {
	if slotSec <= 0 || B < 0 {
		panic("queue: invalid RunSchedule arguments")
	}
	if len(rates) < len(arrivals) {
		panic(fmt.Sprintf("queue: %d rates for %d arrival slots", len(rates), len(arrivals)))
	}
	var m meter
	var q float64
	for t, a := range arrivals {
		m, q = m.slot(q, a, rates[t]*slotSec, B)
	}
	return m.result(q)
}

// RunCyclic approximates the steady-state loss of a periodic source: warm-up
// passes play the arrival vector through the queue until the end-of-pass
// occupancy reaches a fixpoint (it is monotone non-decreasing from an empty
// start and bounded by B, so it converges; a saturated buffer is itself the
// fixpoint), then one final pass is measured. Without this, a service rate
// below the source mean looks loss-free on a single finite pass because the
// backlog hides in the buffer instead of overflowing. The measured pass
// counts every arrived bit it does not lose as served: in steady state a
// pass ends at the occupancy it began with.
func RunCyclic(arrivals []float64, slotSec, serviceRate, B float64) Result {
	if slotSec <= 0 || B < 0 || serviceRate < 0 {
		panic("queue: invalid RunCyclic arguments")
	}
	perSlot := serviceRate * slotSec
	var q float64
	const maxWarm = 32
	prev := -1.0
	for pass := 0; pass < maxWarm && q != prev; pass++ {
		prev = q
		for _, a := range arrivals {
			q, _ = Step(q, a, perSlot, B)
		}
	}
	var m meter
	for _, a := range arrivals {
		m, q = m.slot(q, a, perSlot, B)
	}
	r := m.result(q)
	r.ServedBits = r.ArrivedBits - r.LostBits
	return r
}

// Arrivals converts a trace into a per-slot arrival vector in bits.
func Arrivals(tr *trace.Trace) []float64 {
	out := make([]float64, tr.Len())
	for i, b := range tr.FrameBits {
		out[i] = float64(b)
	}
	return out
}

// MinRateForLoss returns the smallest CBR service rate (bits/second) such
// that the steady-state fraction of bits lost from a buffer of B bits is at
// most target (cyclic semantics: the trace repeats, see RunCyclic). The
// search runs between 0 and the peak slot rate, where the loss is zero.
func MinRateForLoss(arrivals []float64, slotSec, B, target float64) float64 {
	if len(arrivals) == 0 {
		return 0
	}
	var peak float64
	for _, a := range arrivals {
		if a > peak {
			peak = a
		}
	}
	hi := peak / slotSec // no loss possible at or above the peak slot rate
	// No rate below the long-term mean can meet a loss target in steady
	// state, so the mean is the search floor.
	var total float64
	for _, a := range arrivals {
		total += a
	}
	lo := total / (slotSec * float64(len(arrivals)))
	if lo > hi {
		lo = hi
	}
	lossAt := func(c float64) float64 {
		return RunCyclic(arrivals, slotSec, c, B).LossFraction()
	}
	if lossAt(lo) <= target {
		return lo
	}
	if lossAt(hi) > target {
		// B == 0 and fractional bits edge; nudge up.
		hi *= 1 + 1e-9
	}
	for iter := 0; iter < 60; iter++ {
		mid := (lo + hi) / 2
		if lossAt(mid) > target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// CBPoint is one point of the Fig. 5 (c, B) curve.
type CBPoint struct {
	BufferBits float64
	Rate       float64 // min CBR rate for the loss target, bits/s
}

// CBCurve computes the (c, B) curve of Fig. 5: for each buffer size, the
// minimum CBR service rate keeping the bit-loss fraction at or below target.
func CBCurve(tr *trace.Trace, buffers []float64, target float64) []CBPoint {
	arr := Arrivals(tr)
	slot := tr.SlotSeconds()
	out := make([]CBPoint, len(buffers))
	for i, b := range buffers {
		out[i] = CBPoint{BufferBits: b, Rate: MinRateForLoss(arr, slot, b, target)}
	}
	return out
}

// LogSpace returns n values logarithmically spaced between lo and hi
// inclusive. It panics unless 0 < lo <= hi and n >= 2.
func LogSpace(lo, hi float64, n int) []float64 {
	if lo <= 0 || hi < lo || n < 2 {
		panic("queue: LogSpace invalid arguments")
	}
	out := make([]float64, n)
	ratio := math.Log(hi / lo)
	for i := range out {
		out[i] = lo * math.Exp(ratio*float64(i)/float64(n-1))
	}
	return out
}
