package datapath

import (
	"testing"

	"rcbr/internal/switchfab"
)

// cbrFlow is one CBR cell stream: by the end of tick t it has sent
// floor(phase + rate·(t+1)) cells, rate in cells per tick.
type cbrFlow struct{ rate, phase float64 }

// fifoResult is what a run of the FIFO measured.
type fifoResult struct {
	arrived, served, lost int64
	maxQueue              int
	// sumQueue adds up the queue length each arriving cell found.
	sumQueue int64
}

// fifoModel is the reference the forwarder is checked against: a
// sequential FIFO counter with a finite buffer. Each tick every flow's
// arrival, in flow order, sees the queue and joins it or is lost when
// the buffer is full; then the tick's queue maximum is taken and one cell
// is served.
func fifoModel(flows []cbrFlow, bufferCells int, ticks int64) fifoResult {
	var res fifoResult
	emitted := make([]int64, len(flows))
	queue := 0
	for t := int64(0); t < ticks; t++ {
		for i, fl := range flows {
			if target := int64(fl.phase + fl.rate*float64(t+1)); target > emitted[i] {
				emitted[i] = target
				res.arrived++
				res.sumQueue += int64(queue)
				if queue >= bufferCells {
					res.lost++
				} else {
					queue++
				}
			}
		}
		res.maxQueue = max(res.maxQueue, queue)
		if queue > 0 {
			queue--
			res.served++
		}
	}
	return res
}

// TestOccupancyMatchesFIFOModel cross-validates the real data path against
// fifoModel on an identical CBR flow set: same arrival law, same buffer,
// same one-cell-per-tick service. Every aggregate — arrivals, served,
// losses, max occupancy, and the queue-seen-on-arrival sum — must agree
// exactly. The flow set deliberately overloads the link so the egress FIFO
// both fills (loss) and drains.
func TestOccupancyMatchesFIFOModel(t *testing.T) {
	const (
		bufferCells = 8 // power of two: the ring capacity is exact
		ticks       = 50_000
	)
	flows := []cbrFlow{
		{0.25, 0},
		{0.25, 0.2},
		{0.21, 0.4},
		{0.25, 0.6},
		{0.19, 0.8}, // total 1.15 cells per tick: 15% overload
	}
	want := fifoModel(flows, bufferCells, ticks)

	// The real thing: one ingress port, one egress port whose ring is the
	// modelled FIFO. Shapers are configured non-binding (the flows already
	// conform by construction) so the only cell-dropping mechanism is the
	// egress ring overflowing, like the model's full buffer.
	f := New(WithRingCells(bufferCells), withBurst(1), WithDepthCells(64))
	in, err := f.AddPort(0)
	if err != nil {
		t.Fatal(err)
	}
	out, err := f.AddPort(1)
	if err != nil {
		t.Fatal(err)
	}
	cells := make([]Cell, len(flows))
	for i := range flows {
		id := switchfab.MakeVCID(0, uint16(100+i))
		if err := f.AddVC(id, 1, 1e12); err != nil {
			t.Fatal(err)
		}
		cells[i] = mkCell(t, id, uint64(i))
	}

	const tickNanos = 1_000_000 // a 1000 cells/s link
	emitted := make([]int64, len(flows))
	var got fifoResult
	for tick := int64(0); tick < ticks; tick++ {
		now := tick * tickNanos
		for i, fl := range flows {
			target := int64(fl.phase + fl.rate*float64(tick+1))
			if target <= emitted[i] {
				continue
			}
			emitted[i] = target
			// One cell through the switch: sample the FIFO the way the
			// model samples queue-on-arrival, then forward immediately.
			q := out.OutLen()
			if !f.Inject(in, &cells[i]) {
				t.Fatalf("tick %d: ingress ring refused a cell", tick)
			}
			if n := f.Forward(now); n != 1 {
				t.Fatalf("tick %d: Forward moved %d cells", tick, n)
			}
			got.arrived++
			got.sumQueue += int64(q)
		}
		got.maxQueue = max(got.maxQueue, out.OutLen())
		got.served += int64(f.Transmit(out, 1))
	}
	ps := in.Stats()
	got.lost = ps.Overflow
	if ps.Policed != 0 || ps.BadHeader != 0 || ps.Unroutable != 0 {
		t.Fatalf("unexpected drops: %+v", ps)
	}
	if ps.Arrived != got.arrived {
		t.Fatalf("port arrived %d != injected %d", ps.Arrived, got.arrived)
	}

	if got != want {
		t.Fatalf("data path disagrees with the FIFO model:\n got %+v\nwant %+v", got, want)
	}
	// And the cross-check the paper cares about: the overloaded FIFO really
	// did fill and really did drop.
	if want.lost == 0 || want.maxQueue != bufferCells {
		t.Fatalf("flow set no longer exercises loss: %+v", want)
	}
}
