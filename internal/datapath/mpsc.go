package datapath

import "sync/atomic"

// MPSCRing is a multi-producer/single-consumer ring of cells with
// power-of-two capacity: any number of goroutines may Push concurrently,
// exactly one goroutine may Peek/Advance. Like the SPSC Ring it never takes
// a lock (TestLockRulesInSource's never-ring rule covers this type too).
//
// The forwarder does not use it. It was the egress ring of the multi-core
// forwarder until an egress port became an SPSC Ring (DESIGN §14): an
// output FIFO owes its VCs per-VC order only, so nothing
// needs the total order across producers that this ring pays a CAS and two
// sequence stores per cell to keep. The type stays for one caller: the
// benchmark driver's datapath.mpsc_ns probe (bench/probes.go) builds against
// NewMPSCRing, and the benchmark may not change in the same PR as the code
// it measures. It goes when that probe does.
//
// The design is the bounded-queue-with-slot-sequences scheme (Vyukov):
// each slot carries a sequence number, initialized to its index. A
// producer claims slot positions with a CAS on head, writes the cell, and
// publishes by storing seq = pos+1; the consumer at tail position pos
// waits for seq == pos+1, reads the cell, and releases the slot for the
// next lap by storing seq = pos+capacity. The sequence store is the
// happens-before edge in both directions (Go's sync/atomic is sequentially
// consistent, stronger than the release/acquire pair needed), so a
// consumer that observes the published sequence observes the 53 bytes
// written before it, and a producer that observes a released slot may
// freely overwrite it.
//
// Ordering guarantee: cells pushed by ONE producer goroutine dequeue in
// that producer's push order (its CAS claims strictly increasing
// positions). Cells from different producers interleave arbitrarily.
//
// A producer that claims a slot and stalls before publishing delays the
// consumer at that slot (cells behind it wait); the window is a handful of
// instructions and contains no blocking operation, so the delay is bounded
// by a scheduler quantum, not by I/O.
type MPSCRing struct {
	slots []mpscSlot
	mask  uint64
	_     [64]byte
	// head is the producers' claim cursor, advanced by CAS.
	head atomic.Uint64
	_    [64]byte
	// tail is the consumer's cursor; stored by the consumer only.
	tail atomic.Uint64
	_    [64]byte
}

// mpscSlot is one ring slot: the published-sequence word and the cell. The
// pair is deliberately unpadded — producers touching neighboring slots
// share a line, but each slot is touched by exactly one producer per lap
// and the 53-byte cell pushes slots near line size anyway.
type mpscSlot struct {
	seq atomic.Uint64
	c   Cell
}

// NewMPSCRing returns a ring holding at least capacity cells, rounded up
// to a power of two (minimum 2).
func NewMPSCRing(capacity int) *MPSCRing {
	n := 2
	for n < capacity {
		n <<= 1
	}
	r := &MPSCRing{slots: make([]mpscSlot, n), mask: uint64(n - 1)}
	for i := range r.slots {
		r.slots[i].seq.Store(uint64(i))
	}
	return r
}

// Capacity returns the number of slots.
func (r *MPSCRing) Capacity() int { return len(r.slots) }

// Len returns the number of cells currently queued (including slots
// claimed but not yet published). Same discipline as Ring.Len: tail is
// loaded before head so the difference cannot go negative under a racing
// wrap, and the result is clamped to [0, Capacity].
func (r *MPSCRing) Len() int {
	tail := r.tail.Load()
	head := r.head.Load()
	n := int64(head - tail)
	if n < 0 {
		return 0
	}
	if n > int64(len(r.slots)) {
		return len(r.slots)
	}
	return int(n)
}

// Pushed returns how many cells the ring has accepted since it was made
// (the producers' claim cursor, so like Len it includes slots claimed but
// not yet published) and Popped how many its consumer has released. They
// are the egress port's enqueued and transmitted ledgers.
func (r *MPSCRing) Pushed() int64 { return int64(r.head.Load()) }
func (r *MPSCRing) Popped() int64 { return int64(r.tail.Load()) }

// Push copies c into the ring, returning false (writing nothing) when the
// ring is full. Safe from any number of goroutines.
func (r *MPSCRing) Push(c *Cell) bool {
	for {
		pos := r.head.Load()
		slot := &r.slots[pos&r.mask]
		switch d := int64(slot.seq.Load() - pos); {
		case d == 0:
			// Slot is free this lap; claim it.
			if r.head.CompareAndSwap(pos, pos+1) {
				slot.c = *c
				slot.seq.Store(pos + 1)
				return true
			}
		case d < 0:
			// The consumer has not released the slot from the previous
			// lap: the ring is full.
			return false
		default:
			// Another producer claimed pos first; reload head and retry.
		}
	}
}

// Peek returns a pointer to the oldest published cell, or nil when the
// ring is empty (or the oldest slot is claimed but not yet published).
// The pointer aliases the slot and is valid until Advance. Consumer side
// only.
func (r *MPSCRing) Peek() *Cell {
	pos := r.tail.Load()
	slot := &r.slots[pos&r.mask]
	if slot.seq.Load() != pos+1 {
		return nil
	}
	return &slot.c
}

// Advance consumes the cell last returned by Peek, releasing its slot to
// the producers for the next lap. Consumer side only; calling it without a
// successful Peek corrupts the ring.
func (r *MPSCRing) Advance() {
	pos := r.tail.Load()
	r.slots[pos&r.mask].seq.Store(pos + uint64(len(r.slots)))
	r.tail.Store(pos + 1)
}
