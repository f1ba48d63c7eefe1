package mesh

import (
	"math"
	"math/rand"
	"testing"

	"rcbr/internal/datapath"
	"rcbr/internal/switchfab"
)

// buildCellChain returns a 3-hop relay (delays 2, 3, 5 slots) with one VC
// at the given rate on every hop, plus the per-hop forwarders.
func buildCellChain(t *testing.T, id switchfab.VCID, rateBits float64, slotNanos int64) (*CellPath, []*datapath.Forwarder) {
	t.Helper()
	delays := []int64{2, 3, 5}
	var fws []*datapath.Forwarder
	var hops []CellHop
	for _, d := range delays {
		fw := datapath.New()
		if _, err := fw.AddPort(0); err != nil {
			t.Fatal(err)
		}
		if _, err := fw.AddPort(1); err != nil {
			t.Fatal(err)
		}
		if err := fw.AddVC(id, 1, rateBits); err != nil {
			t.Fatal(err)
		}
		fws = append(fws, fw)
		hops = append(hops, CellHop{FW: fw, In: 0, Out: 1, DelaySlots: d})
	}
	cp, err := NewCellPath(hops, slotNanos)
	if err != nil {
		t.Fatal(err)
	}
	return cp, fws
}

// TestCellPathDelay: a conforming CBR flow through three hops arrives in
// full, every cell delayed by exactly the propagation total plus one
// store-and-forward slot per intermediate hop — measured, not modeled.
func TestCellPathDelay(t *testing.T) {
	const (
		slotNanos = int64(1e6) // 1000 slots/sec line rate
		period    = 4          // one cell every 4 slots = 250 cells/s
	)
	id := switchfab.MakeVCID(0, 7)
	rate := 250 * datapath.CellPayloadBits
	cp, _ := buildCellChain(t, id, rate, slotNanos)

	slot := int64(0)
	for ; slot < 4000; slot++ {
		if slot%period == 0 {
			if !cp.InjectStamped(id, slot) {
				t.Fatalf("slot %d: inject refused", slot)
			}
		}
		cp.Step(slot)
	}
	for ; slot < 4100; slot++ { // drain the pipeline
		cp.Step(slot)
	}
	s := cp.Stats()
	if s.Injected != 1000 || s.Delivered != 1000 || s.LinkDrops != 0 {
		t.Fatalf("stats %+v, want 1000 delivered of 1000", s)
	}
	if cp.InFlight() != 0 {
		t.Fatalf("%d cells stuck on links", cp.InFlight())
	}
	// Propagation 2+3+5 plus one forwarding slot at each hop after the
	// first: 12 slots, for every single cell.
	const wantDelay = 12
	if s.MaxDelaySlots != wantDelay || s.MeanDelaySlots() != wantDelay {
		t.Fatalf("delay mean %.2f max %d, want exactly %d",
			s.MeanDelaySlots(), s.MaxDelaySlots, wantDelay)
	}
}

// TestCellPathLossAtThrottledHop: halving-and-worse the middle hop's
// granted rate turns the overload into real policed drops at that hop, and
// every injected cell is still accounted for across the whole path.
func TestCellPathLossAtThrottledHop(t *testing.T) {
	const slotNanos = int64(1e6)
	id := switchfab.MakeVCID(0, 9)
	rate := 250 * datapath.CellPayloadBits
	cp, fws := buildCellChain(t, id, rate, slotNanos)

	// The middle hop now grants a fifth of the offered rate.
	if err := fws[1].SetVCRate(id, rate/5); err != nil {
		t.Fatal(err)
	}
	slot := int64(0)
	for ; slot < 8000; slot++ {
		if slot%4 == 0 {
			cp.InjectStamped(id, slot)
		}
		cp.Step(slot)
	}
	for ; slot < 8100; slot++ {
		cp.Step(slot)
	}
	s := cp.Stats()
	vs, ok := fws[1].VCStats(id)
	if !ok {
		t.Fatal("vc missing at hop 1")
	}
	if vs.Policed == 0 {
		t.Fatalf("throttled hop policed nothing: %+v", vs)
	}
	if s.Delivered >= s.Injected {
		t.Fatalf("no end-to-end loss despite throttled hop: %+v", s)
	}

	// Path-wide conservation: injected cells are delivered, dropped on a
	// link, dropped at some hop, queued in some ring, or in flight.
	var dropped, queued int64
	for k := 0; k < 3; k++ {
		in, out := cp.Hop(k)
		ps := in.Stats()
		if got := ps.BadHeader + ps.Unroutable + ps.Policed + ps.Overflow + ps.Forwarded; got+int64(ps.InQueued) != ps.Arrived {
			t.Fatalf("hop %d ingress conservation: %+v", k, ps)
		}
		dropped += ps.BadHeader + ps.Unroutable + ps.Policed + ps.Overflow
		queued += int64(ps.InQueued)
		os := out.Stats()
		if os.Enqueued != os.Transmitted+int64(os.OutQueued) {
			t.Fatalf("hop %d egress conservation: %+v", k, os)
		}
		queued += int64(os.OutQueued)
	}
	total := s.Delivered + s.LinkDrops + dropped + queued + int64(cp.InFlight())
	if total != s.Injected {
		t.Fatalf("path conservation: injected %d, accounted %d (%+v)", s.Injected, total, s)
	}
}

func TestNewCellPathValidation(t *testing.T) {
	fw := datapath.New()
	fw.AddPort(0)
	if _, err := NewCellPath(nil, 1); err == nil {
		t.Fatal("empty path accepted")
	}
	if _, err := NewCellPath([]CellHop{{FW: fw, In: 0, Out: 1}}, 0); err == nil {
		t.Fatal("zero slotNanos accepted")
	}
	if _, err := NewCellPath([]CellHop{{FW: fw, In: 0, Out: 1}}, 1); err == nil {
		t.Fatal("unregistered egress port accepted")
	}
	if _, err := NewCellPath([]CellHop{{FW: nil, In: 0, Out: 0}}, 1); err == nil {
		t.Fatal("nil forwarder accepted")
	}
	if _, err := NewCellPath([]CellHop{{FW: fw, In: 0, Out: 0, DelaySlots: -1}}, 1); err == nil {
		t.Fatal("negative delay accepted")
	}
	// The delay line is allocated up front: a delay past the bound is an
	// error, not a 600 GB make.
	for _, d := range []int64{MaxLinkDelaySlots + 1, 1e10, math.MaxInt64} {
		if _, err := NewCellPath([]CellHop{{FW: fw, In: 0, Out: 0, DelaySlots: d}}, 1); err == nil {
			t.Fatalf("delay of %d slots accepted", d)
		}
	}
}

// TestDelayLineStaysFixedUnderFullLoad is the regression test for the
// delay line that grew without bound: with a cell on every slot a link was
// never empty, so the line (which only reset when it emptied) appended one
// timedCell per cell forever. Over a million full-load slots no line may
// ever hold more than the DelaySlots+1 cells its link can have in flight or
// leave the capacity it was built with, every cell must be delivered at the
// exact pipeline delay, and a Step must allocate nothing.
func TestDelayLineStaysFixedUnderFullLoad(t *testing.T) {
	const slotNanos = int64(1e6)
	id := switchfab.MakeVCID(0, 7)
	cp, _ := buildCellChain(t, id, 1e12, slotNanos)
	caps := make([]int, len(cp.lines))
	for k := range cp.lines {
		caps[k] = cap(cp.lines[k].q)
		if want := int(cp.hops[k].DelaySlots) + 1; caps[k] != want {
			t.Fatalf("line %d built with %d slots, want DelaySlots+1 = %d", k, caps[k], want)
		}
	}
	slots := int64(1_000_000)
	if testing.Short() {
		slots = 50_000
	}
	slot := int64(0)
	for ; slot < slots; slot++ {
		if !cp.InjectStamped(id, slot) {
			t.Fatalf("slot %d: inject refused", slot)
		}
		cp.Step(slot)
		for k := range cp.lines {
			if got, max := cp.lines[k].inFlight(), int(cp.hops[k].DelaySlots)+1; got > max {
				t.Fatalf("slot %d: %d cells in flight on line %d, which carries %d", slot, got, k, max)
			}
		}
	}
	for k := range cp.lines {
		if got := cap(cp.lines[k].q); got != caps[k] {
			t.Fatalf("line %d grew from %d to %d slots", k, caps[k], got)
		}
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		cp.InjectStamped(id, slot)
		cp.Step(slot)
		slot++
	}); allocs != 0 {
		t.Fatalf("Step allocates %.1f times per slot at full load, want 0", allocs)
	}
	for end := slot + 100; slot < end; slot++ {
		cp.Step(slot)
	}
	s := cp.Stats()
	if s.Delivered != s.Injected || s.LinkDrops != 0 || cp.InFlight() != 0 {
		t.Fatalf("stats %+v, %d in flight: want every cell delivered", s, cp.InFlight())
	}
	if s.MaxDelaySlots != 12 || s.MeanDelaySlots() != 12 {
		t.Fatalf("delay mean %.2f max %d, want exactly 12", s.MeanDelaySlots(), s.MaxDelaySlots)
	}
}

// TestStepRepeatedSlotHoldsTheLink: Step called again for the same slot
// must not put a second cell on a link that carries one cell per slot; the
// cell waits in the egress ring and nothing is lost.
func TestStepRepeatedSlotHoldsTheLink(t *testing.T) {
	id := switchfab.MakeVCID(0, 7)
	cp, _ := buildCellChain(t, id, 1e12, 1e6)
	const cells = 20 // inside the shaper depth: no clock runs between them
	for i := 0; i < cells; i++ {
		if !cp.InjectStamped(id, 0) {
			t.Fatal("inject refused")
		}
		cp.Step(0)
	}
	if got, max := cp.lines[0].inFlight(), cap(cp.lines[0].q); got > max {
		t.Fatalf("%d cells on a link that holds %d", got, max)
	}
	for slot := int64(1); slot < 200; slot++ {
		cp.Step(slot)
	}
	if s := cp.Stats(); s.Delivered != cells || s.LinkDrops != 0 {
		t.Fatalf("stats %+v, want all %d delivered", s, cells)
	}
}

// cellPathGolden is what one TestCellPathGolden script leaves behind: the
// relay's counters and, per hop, the ingress then the egress port's.
type cellPathGolden struct {
	stats CellPathStats
	hops  [3][2]datapath.PortStats
}

// runCellPathGoldenScript drives the golden script over three hops of the
// given link delay. Four VCs of a seeded on/off source offer about a cell
// per slot between them, in bursts of up to four. The first hop grants each
// the whole line behind 8-cell rings, so its egress FIFO overflows and a
// ten-cell clump every 501st slot is partly dropped on the wire; the second
// grants an eighth of the line each and polices; the third has a shallow
// bucket and does not route the last VC. Every 97th slot is stepped twice
// with an injection in between: a full line must hold the link.
func runCellPathGoldenScript(t *testing.T, delaySlots int64) cellPathGolden {
	t.Helper()
	const (
		slots     = 20_000
		slotNanos = 2726
		vcs       = 4
	)
	line := datapath.CellPayloadBits / (slotNanos * 1e-9)
	ids := make([]switchfab.VCID, vcs)
	for i := range ids {
		ids[i] = switchfab.MakeVCID(uint8(i), uint16(40+i))
	}
	var hops []CellHop
	for k := 0; k < 3; k++ {
		opts, rate, routed := []datapath.Option(nil), line/8, ids
		switch k {
		case 0:
			opts, rate = append(opts, datapath.WithRingCells(8)), line
		case 2:
			opts, routed = append(opts, datapath.WithDepthCells(4)), ids[:vcs-1]
		}
		fw := datapath.New(opts...)
		for port := 0; port < 2; port++ {
			if _, err := fw.AddPort(port); err != nil {
				t.Fatal(err)
			}
		}
		for _, id := range routed {
			if err := fw.AddVC(id, 1, rate); err != nil {
				t.Fatal(err)
			}
		}
		hops = append(hops, CellHop{FW: fw, In: 0, Out: 1, DelaySlots: delaySlots})
	}
	cp, err := NewCellPath(hops, slotNanos)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1995))
	on := make([]bool, vcs)
	for slot := int64(0); slot < slots; slot++ {
		for i, id := range ids {
			if rng.Intn(64) == 0 {
				on[i] = !on[i]
			}
			if on[i] && rng.Intn(2) == 0 {
				cp.InjectStamped(id, slot)
			}
		}
		if slot%501 == 500 {
			for i := 0; i < 10; i++ {
				cp.InjectStamped(ids[1], slot)
			}
		}
		cp.Step(slot)
		if slot%97 == 0 {
			cp.InjectStamped(ids[0], slot)
			cp.Step(slot)
		}
	}
	got := cellPathGolden{stats: cp.Stats()}
	for k := range got.hops {
		in, out := cp.Hop(k)
		got.hops[k] = [2]datapath.PortStats{in.Stats(), out.Stats()}
	}
	return got
}

// TestCellPathGolden pins the relay's slot semantics to the cell: the same
// script must leave exactly the counters it left at 6164ee5, the commit
// before the one-cell sweep's ledger was trimmed (captured there), on every
// link delay — wire drops, overflow, policing, unroutable cells, what is
// still queued and the delay sums included.
func TestCellPathGolden(t *testing.T) {
	for d, want := range cellPathGoldens {
		if got := runCellPathGoldenScript(t, d); got != want {
			t.Errorf("DelaySlots %d:\n got %+v\nwant %+v", d, got, want)
		}
	}
}

var cellPathGoldens = map[int64]cellPathGolden{
	0: {
		stats: CellPathStats{Injected: 20401, Delivered: 4883, LinkDrops: 129, SumDelaySlots: 29697, MaxDelaySlots: 9},
		hops: [3][2]datapath.PortStats{
			{{Arrived: 20272, Unroutable: 0, Policed: 0, Overflow: 3811, Forwarded: 16461, InQueued: 0}, {Enqueued: 16461, Transmitted: 16457, OutQueued: 4}},
			{{Arrived: 16457, Unroutable: 0, Policed: 6644, Overflow: 0, Forwarded: 9812, InQueued: 1}, {Enqueued: 9812, Transmitted: 9812, OutQueued: 0}},
			{{Arrived: 9812, Unroutable: 2439, Policed: 2489, Overflow: 0, Forwarded: 4883, InQueued: 1}, {Enqueued: 4883, Transmitted: 4883, OutQueued: 0}},
		},
	},
	1: {
		stats: CellPathStats{Injected: 20401, Delivered: 4882, LinkDrops: 129, SumDelaySlots: 44900, MaxDelaySlots: 13},
		hops: [3][2]datapath.PortStats{
			{{Arrived: 20272, Unroutable: 0, Policed: 0, Overflow: 3921, Forwarded: 16351, InQueued: 0}, {Enqueued: 16351, Transmitted: 16346, OutQueued: 5}},
			{{Arrived: 16345, Unroutable: 0, Policed: 6544, Overflow: 0, Forwarded: 9800, InQueued: 1}, {Enqueued: 9800, Transmitted: 9800, OutQueued: 0}},
			{{Arrived: 9799, Unroutable: 2430, Policed: 2487, Overflow: 0, Forwarded: 4882, InQueued: 0}, {Enqueued: 4882, Transmitted: 4882, OutQueued: 0}},
		},
	},
	2: {
		stats: CellPathStats{Injected: 20401, Delivered: 4882, LinkDrops: 129, SumDelaySlots: 59544, MaxDelaySlots: 16},
		hops: [3][2]datapath.PortStats{
			{{Arrived: 20272, Unroutable: 0, Policed: 0, Overflow: 3921, Forwarded: 16351, InQueued: 0}, {Enqueued: 16351, Transmitted: 16346, OutQueued: 5}},
			{{Arrived: 16344, Unroutable: 0, Policed: 6544, Overflow: 0, Forwarded: 9799, InQueued: 1}, {Enqueued: 9799, Transmitted: 9799, OutQueued: 0}},
			{{Arrived: 9798, Unroutable: 2429, Policed: 2486, Overflow: 0, Forwarded: 4882, InQueued: 1}, {Enqueued: 4882, Transmitted: 4882, OutQueued: 0}},
		},
	},
	5: {
		stats: CellPathStats{Injected: 20401, Delivered: 4880, LinkDrops: 129, SumDelaySlots: 103433, MaxDelaySlots: 25},
		hops: [3][2]datapath.PortStats{
			{{Arrived: 20272, Unroutable: 0, Policed: 0, Overflow: 3921, Forwarded: 16351, InQueued: 0}, {Enqueued: 16351, Transmitted: 16346, OutQueued: 5}},
			{{Arrived: 16341, Unroutable: 0, Policed: 6543, Overflow: 0, Forwarded: 9797, InQueued: 1}, {Enqueued: 9797, Transmitted: 9797, OutQueued: 0}},
			{{Arrived: 9792, Unroutable: 2424, Policed: 2486, Overflow: 0, Forwarded: 4881, InQueued: 1}, {Enqueued: 4881, Transmitted: 4881, OutQueued: 0}},
		},
	},
}
