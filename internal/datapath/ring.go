package datapath

import (
	"sync/atomic"

	"rcbr/internal/cell"
)

// Cell is one fixed-size 53-byte ATM cell as it sits in a ring slot. Rings
// store cells by value: a Push copies the cell into the slot and a Peek
// hands out a pointer into the slot, so the steady-state path moves exactly
// 53 bytes per hop and never allocates.
type Cell = [cell.Size]byte

// Ring is a single-producer/single-consumer ring of cells with power-of-two
// capacity. Exactly one goroutine may call the producer methods (Push) and
// exactly one the consumer methods (Peek, Advance); under that contract no
// method takes a lock — by design and by lint (the lockorder analyzer
// rejects any mutex guarded by a ring type).
//
// The memory-ordering argument: head is advanced by the producer only
// after the slot write, and Go's sync/atomic operations are sequentially
// consistent (stronger than the release/acquire pair this needs), so a
// consumer that loads head and sees slot i published also sees the 53
// bytes written to it. Symmetrically tail is advanced by the consumer only
// after it is done reading the slot, so a producer that sees tail past i
// may freely overwrite it. Each side also keeps a local cache of the
// other's index (cachedTail, cachedHead) and refreshes it only when the
// cached value implies full/empty — in steady state a Push or Peek touches
// one cache line of indices, not two.
//
// The index fields are padded onto separate cache lines so the producer's
// head publications do not invalidate the consumer's tail line and vice
// versa (false sharing would serialize the two sides through the coherence
// protocol even though they never logically conflict).
type Ring struct {
	buf  []Cell
	mask uint64
	_    [64]byte
	// head is the producer's publication cursor: cells [tail, head) are
	// readable. cachedTail is producer-private.
	head       atomic.Uint64
	cachedTail uint64
	_          [64]byte
	// tail is the consumer's publication cursor. cachedHead is
	// consumer-private.
	tail       atomic.Uint64
	cachedHead uint64
	_          [64]byte
}

// NewRing returns a ring holding at least capacity cells, rounded up to a
// power of two (minimum 2) so index wrapping is a mask, not a divide.
func NewRing(capacity int) *Ring {
	n := 2
	for n < capacity {
		n <<= 1
	}
	return &Ring{buf: make([]Cell, n), mask: uint64(n - 1)}
}

// Capacity returns the number of slots.
func (r *Ring) Capacity() int { return len(r.buf) }

// Len returns the number of cells currently queued. It is exact when the
// ring is quiescent and a consistent snapshot bound otherwise. The loads
// are ordered tail before head: loading head first can observe a head from
// before a consumer advance and a tail from after it, making the difference
// wrap negative. With tail loaded first the head observed afterwards is
// always at least the tail observed, so the difference stays meaningful;
// the clamps keep even a pathological interleaving inside [0, Capacity].
func (r *Ring) Len() int {
	tail := r.tail.Load()
	head := r.head.Load()
	n := int64(head - tail)
	if n < 0 {
		return 0
	}
	if n > int64(len(r.buf)) {
		return len(r.buf)
	}
	return int(n)
}

// Pushed returns how many cells the ring has accepted since it was made:
// the producer's cursor counts exactly the successful Pushes, so the port
// ledger reads it instead of keeping a second counter.
func (r *Ring) Pushed() int64 { return int64(r.head.Load()) }

// Push copies c into the ring, returning false (dropping nothing, writing
// nothing) when the ring is full. Producer side only.
//
//rcbr:zeroalloc
func (r *Ring) Push(c *Cell) bool {
	head := r.head.Load()
	if head-r.cachedTail >= uint64(len(r.buf)) {
		r.cachedTail = r.tail.Load()
		if head-r.cachedTail >= uint64(len(r.buf)) {
			return false
		}
	}
	r.buf[head&r.mask] = *c
	r.head.Store(head + 1)
	return true
}

// Peek returns a pointer to the oldest queued cell, or nil when the ring is
// empty. The pointer aliases the slot and is valid until Advance. Consumer
// side only.
//
//rcbr:zeroalloc
func (r *Ring) Peek() *Cell {
	tail := r.tail.Load()
	if tail == r.cachedHead {
		r.cachedHead = r.head.Load()
		if tail == r.cachedHead {
			return nil
		}
	}
	return &r.buf[tail&r.mask]
}

// Advance consumes the cell last returned by Peek, releasing its slot to
// the producer. Consumer side only; calling it without a successful Peek
// corrupts the ring.
//
//rcbr:zeroalloc
func (r *Ring) Advance() {
	r.tail.Store(r.tail.Load() + 1)
}
