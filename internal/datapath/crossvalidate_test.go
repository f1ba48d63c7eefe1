package datapath

import (
	"testing"

	"rcbr/internal/mux"
	"rcbr/internal/switchfab"
)

// TestOccupancyMatchesMuxSimulation cross-validates the real data path
// against the internal/mux FIFO simulation on an identical CBR flow set:
// same arrival law (mux's drift-free floor formula), same buffer, same
// one-cell-per-tick service. Every aggregate — arrivals, served, losses,
// max occupancy, and the queue-seen-on-arrival sum — must agree exactly.
// The flow set deliberately overloads the link so the egress FIFO both
// fills (loss) and drains.
func TestOccupancyMatchesMuxSimulation(t *testing.T) {
	const (
		linkCellRate = 1000.0
		bufferCells  = 8 // power of two: the ring capacity is exact
		durationSec  = 50.0
	)
	flows := []mux.Flow{
		{CellsPerSec: 250, Phase: 0},
		{CellsPerSec: 250, Phase: 0.2},
		{CellsPerSec: 210, Phase: 0.4},
		{CellsPerSec: 250, Phase: 0.6},
		{CellsPerSec: 190, Phase: 0.8}, // total 1150 cells/s: 15% overload
	}
	want := mux.RunCBR(flows, linkCellRate, bufferCells, durationSec)

	// The real thing: one ingress port, one egress port whose ring is the
	// simulated FIFO. Shapers are configured non-binding (the flows already
	// conform by construction) so the only cell-dropping mechanism is the
	// egress ring overflowing, exactly like mux's bufferCells check.
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

	const ticks = int64(durationSec * linkCellRate)
	const tickNanos = int64(1e9 / linkCellRate)
	emitted := make([]int64, len(flows))
	var got mux.Result
	got.Ticks = ticks
	for tick := int64(0); tick < ticks; tick++ {
		now := tick * tickNanos
		for i := range flows {
			target := int64(flows[i].Phase + flows[i].CellsPerSec/linkCellRate*float64(tick+1))
			if target <= emitted[i] {
				continue
			}
			emitted[i] = target
			// One cell through the switch: sample the FIFO the way mux
			// samples queue-on-arrival, then forward immediately.
			q := out.OutLen()
			if !f.Inject(in, &cells[i]) {
				t.Fatalf("tick %d: ingress ring refused a cell", tick)
			}
			if n := f.Forward(now); n != 1 {
				t.Fatalf("tick %d: Forward moved %d cells", tick, n)
			}
			got.ArrivedCells++
			got.SumQueueOnArrival += int64(q)
		}
		if q := out.OutLen(); q > got.MaxQueueCells {
			got.MaxQueueCells = q
		}
		got.ServedCells += int64(f.Transmit(out, 1))
	}
	ps := in.Stats()
	got.LostCells = ps.Overflow
	if ps.Policed != 0 || ps.BadHeader != 0 || ps.Unroutable != 0 {
		t.Fatalf("unexpected drops: %+v", ps)
	}
	if ps.Arrived != got.ArrivedCells {
		t.Fatalf("port arrived %d != driver count %d", ps.Arrived, got.ArrivedCells)
	}

	if got != want {
		t.Fatalf("data path disagrees with mux simulation:\n got %+v\nwant %+v", got, want)
	}
	// And the cross-check the paper cares about: the overloaded FIFO really
	// did fill and really did drop.
	if want.LostCells == 0 || want.MaxQueueCells != bufferCells {
		t.Fatalf("flow set no longer exercises loss: %+v", want)
	}
}
