package mesh

import (
	"encoding/binary"
	"fmt"

	"rcbr/internal/cell"
	"rcbr/internal/datapath"
	"rcbr/internal/switchfab"
)

// Cell relay: the data-plane companion to the mesh's control plane. Where
// Path renegotiates rates hop by hop, a CellPath carries actual 53-byte
// cells through a chain of datapath.Forwarder switches joined by
// fixed-delay links, so end-to-end loss and delay are *measured* — every
// cell lost is a counted policing/overflow drop at a specific hop, and
// every delivered cell reports how many slots it spent in flight.
//
// Time is virtual and slotted: one slot is one cell service time at the
// path's line rate. Step(slot) advances the whole path one slot — each
// hop's forwarder runs one sweep, each egress transmits up to one cell
// onto its outbound link, and each link delivers cells whose propagation
// delay has elapsed to the next hop (or the sink). A CellPath is
// single-goroutine by construction: the caller's loop is every ingress
// ring's producer and every egress ring's consumer, which satisfies the
// ring contracts of every hop on the path.

// MaxLinkDelaySlots bounds a hop's DelaySlots. A link's delay line is a
// fixed ring of DelaySlots+1 in-flight cells (64 bytes each) allocated when
// the path is built, so the delay is a memory request: the bound keeps the
// largest line at 64 MB — at 155 Mb/s cell times, 2.8 s of propagation —
// and turns anything larger into an error instead of an out-of-memory kill.
const MaxLinkDelaySlots = 1 << 20

// CellHop is one switch on a cell path: cells enter the forwarder on
// ingress port In, leave on egress port Out, and the link out of Out has
// DelaySlots of propagation delay, at most MaxLinkDelaySlots.
type CellHop struct {
	FW         *datapath.Forwarder
	In, Out    int
	DelaySlots int64
}

// CellPathStats summarizes a relay run.
type CellPathStats struct {
	Injected  int64
	Delivered int64
	// LinkDrops counts cells that arrived at a hop whose ingress ring was
	// full — drops on the wire, attributed to no VC.
	LinkDrops int64
	// SumDelaySlots accumulates per-delivered-cell end-to-end delay;
	// divide by Delivered for the mean. Delay includes propagation on
	// every link and queueing in every ring.
	SumDelaySlots int64
	MaxDelaySlots int64
}

// MeanDelaySlots returns the average end-to-end delay of delivered cells.
func (s CellPathStats) MeanDelaySlots() float64 {
	if s.Delivered == 0 {
		return 0
	}
	return float64(s.SumDelaySlots) / float64(s.Delivered)
}

// timedCell is a cell in flight on a link, due for delivery at a slot.
type timedCell struct {
	due int64
	c   datapath.Cell
}

// delayLine is the FIFO of cells in flight on one link, ordered by due slot
// (pushes carry nondecreasing due times): a fixed ring, sized once for the
// link. A link carries one cell per slot and holds each for delaySlots, so
// delaySlots+1 slots hold everything it can have in flight; Step transmits
// onto a line only while it has room, so the relay never grows it.
type delayLine struct {
	q          []timedCell
	head, tail uint64 // cells [head, tail) are in flight
}

func newDelayLine(delaySlots int64) delayLine {
	return delayLine{q: make([]timedCell, delaySlots+1)}
}

func (l *delayLine) full() bool { return l.tail-l.head == uint64(len(l.q)) }

func (l *delayLine) push(due int64, c *datapath.Cell) {
	tc := &l.q[l.tail%uint64(len(l.q))]
	tc.due, tc.c = due, *c
	l.tail++
}

// pop returns the oldest cell if it is due; the pointer aliases the line's
// slot and is valid until the next push.
func (l *delayLine) pop(now int64) *datapath.Cell {
	if l.head == l.tail {
		return nil
	}
	tc := &l.q[l.head%uint64(len(l.q))]
	if tc.due > now {
		return nil
	}
	l.head++
	return &tc.c
}

func (l *delayLine) inFlight() int { return int(l.tail - l.head) }

// CellPath is a chain of forwarders relaying cells from a source to a
// sink. Build one with NewCellPath, inject with InjectStamped, drive with
// Step.
type CellPath struct {
	hops     []CellHop
	inPorts  []*datapath.Port
	outPorts []*datapath.Port
	// lines[k] is the link out of hop k; the last line delivers to the
	// sink.
	lines     []delayLine
	slotNanos int64
	stats     CellPathStats
	scratch   datapath.Cell
}

// NewCellPath assembles a relay over the given hops. slotNanos is the real
// duration of one slot (one cell time at line rate), which scales the
// forwarders' shaper clocks; it must be positive. Every hop's ports must
// already exist on its forwarder, and its DelaySlots lie in
// [0, MaxLinkDelaySlots].
func NewCellPath(hops []CellHop, slotNanos int64) (*CellPath, error) {
	if len(hops) == 0 {
		return nil, fmt.Errorf("mesh: empty cell path")
	}
	if slotNanos <= 0 {
		return nil, fmt.Errorf("mesh: slotNanos %d must be positive", slotNanos)
	}
	cp := &CellPath{hops: hops, slotNanos: slotNanos}
	for i, h := range hops {
		if h.FW == nil {
			return nil, fmt.Errorf("mesh: hop %d has no forwarder", i)
		}
		if h.DelaySlots < 0 || h.DelaySlots > MaxLinkDelaySlots {
			return nil, fmt.Errorf("mesh: hop %d delay %d slots outside [0, %d]", i, h.DelaySlots, MaxLinkDelaySlots)
		}
		in := h.FW.Port(h.In)
		out := h.FW.Port(h.Out)
		if in == nil || out == nil {
			return nil, fmt.Errorf("mesh: hop %d ports (%d, %d) not registered", i, h.In, h.Out)
		}
		cp.inPorts = append(cp.inPorts, in)
		cp.outPorts = append(cp.outPorts, out)
		cp.lines = append(cp.lines, newDelayLine(h.DelaySlots))
	}
	return cp, nil
}

// InjectStamped offers one cell for VC id to the first hop at the given
// slot, stamping the slot into the payload so delivery can measure
// end-to-end delay. It reports false when the first hop's ingress ring is
// full (counted as a link drop).
func (cp *CellPath) InjectStamped(id switchfab.VCID, slot int64) bool {
	var payload [8]byte
	binary.BigEndian.PutUint64(payload[:], uint64(slot))
	h := cell.Header{VPI: id.VPI(), VCI: id.VCI()}
	if err := cell.PutData(&cp.scratch, h, payload[:]); err != nil {
		// Only reachable with a malformed header, which MakeVCID cannot
		// produce; treat as a drop rather than panicking the harness.
		cp.stats.LinkDrops++
		return false
	}
	cp.stats.Injected++
	if !cp.hops[0].FW.Inject(cp.inPorts[0], &cp.scratch) {
		cp.stats.LinkDrops++
		return false
	}
	return true
}

// Step advances the path one slot: forward at every hop, transmit one cell
// per hop onto its link, deliver due cells to the next hop or the sink.
// Slots must be fed in nondecreasing order.
func (cp *CellPath) Step(slot int64) {
	now := slot * cp.slotNanos
	for k := range cp.hops {
		cp.hops[k].FW.Forward(now)
		// A full line means this slot already carried its cell (Step was
		// called again for the same slot): the next cell waits in the
		// egress ring, as it would behind a busy link.
		if line := &cp.lines[k]; !line.full() {
			due := slot + cp.hops[k].DelaySlots
			cp.hops[k].FW.TransmitTo(cp.outPorts[k], 1, func(c *datapath.Cell) {
				line.push(due, c)
			})
		}
	}
	// Deliver: line k feeds hop k+1; the last line is the sink.
	for k := range cp.lines {
		for {
			c := cp.lines[k].pop(slot)
			if c == nil {
				break
			}
			if k+1 < len(cp.hops) {
				if !cp.hops[k+1].FW.Inject(cp.inPorts[k+1], c) {
					cp.stats.LinkDrops++
				}
				continue
			}
			cp.stats.Delivered++
			// The stamp is read off what ParseData would accept: a header
			// whose HEC holds on a data cell (PTI, c[3] bits 1-3, below 4).
			if _, ok := cell.VCID(c[:]); ok && c[3]>>1&4 == 0 {
				d := slot - int64(binary.BigEndian.Uint64(c[cell.HeaderSize:]))
				cp.stats.SumDelaySlots += d
				if d > cp.stats.MaxDelaySlots {
					cp.stats.MaxDelaySlots = d
				}
			}
		}
	}
}

// InFlight returns the number of cells currently on links (not in rings).
func (cp *CellPath) InFlight() int {
	n := 0
	for k := range cp.lines {
		n += cp.lines[k].inFlight()
	}
	return n
}

// Stats returns the relay's counters so far.
func (cp *CellPath) Stats() CellPathStats { return cp.stats }

// Hop returns hop k's ingress and egress port handles, for per-hop stats.
func (cp *CellPath) Hop(k int) (in, out *datapath.Port) {
	return cp.inPorts[k], cp.outPorts[k]
}
