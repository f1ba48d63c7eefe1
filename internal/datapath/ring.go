package datapath

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"rcbr/internal/cell"
)

// Cell is one fixed-size 53-byte ATM cell as it sits in a ring slot. Rings
// store cells by value: a Push copies the cell into the slot and a Peek
// hands out a pointer into the slot, so the steady-state path moves exactly
// 53 bytes per hop and never allocates.
type Cell = [cell.Size]byte

// MaxRingCells bounds a ring's capacity. Storage grows with occupancy, so a
// capacity is a promise made under load rather than memory taken up front:
// the bound keeps the largest ring at 53 MiB of slots when full and turns
// anything larger into an error (AddPort) or a panic (NewRing) instead of an
// out-of-memory kill.
const MaxRingCells = 1 << 20

// Ring is a single-producer/single-consumer ring of cells with power-of-two
// capacity. Exactly one goroutine may call the producer methods (Push,
// Stage, Publish) and exactly one the consumer methods (Peek, Advance,
// Ready, At, Release); under that contract no method takes a lock — by
// design and by test (TestLockRulesInSource, in the repository root, fails
// on a ring-named struct that declares a mutex).
//
// Capacity is the drop threshold: a ring holding that many cells refuses
// the next. Storage follows occupancy instead: a ring starts with
// min(capacity, DefaultBurst) slots, and when the producer finds them all in
// use and the ring below capacity it doubles them, copying the cells still
// queued. Storage never shrinks, so a ring's backing is the next power of
// two at or above its high-water mark, and never less than DefaultBurst
// slots — the few cells per VC the paper's smooth traffic needs, not the
// capacity an overflow experiment asks for.
//
// Each side has a per-cell form and a burst form over the same cursors. On
// amd64 every atomic store is a locked instruction (XCHG), so what a ring
// costs is its cursor stores; the burst forms pay one per burst instead of
// one per cell. The producer Stages cells into free slots — visible to
// nobody — and Publishes them all with a single head store; the consumer
// learns how many cells are Ready with a single head load, reads them in
// place through At, and Releases them all with a single tail store. Push is
// Stage and Publish of one cell, Peek and Advance are At(0) and Release(1),
// so the two forms mix freely.
//
// The memory-ordering argument: head is stored by the producer only after
// the slot writes of everything it publishes — one cell or a whole burst —
// and Go's sync/atomic operations are sequentially consistent (stronger
// than the release/acquire pair this needs), so a consumer that loads head
// and sees slots up to i published also sees the 53 bytes written to each.
// Symmetrically tail is stored by the consumer only after it is done
// reading every slot it releases, so a producer that sees tail past i may
// freely overwrite it. Each side also keeps a local cache of the other's
// index (cachedTail, cachedHead) and refreshes it only when the cached
// value implies full/empty — in steady state a Stage or Ready touches one
// cache line of indices, not two.
//
// The backing extends the argument by one pointer. Each side indexes its
// own copy of the slots (buf for the producer, view for the consumer). A
// growing producer fills the new backing with every cell from its cached
// tail on — the consumer's tail can only be later, so that covers every
// cell the consumer may still read — and stores the backing pointer before
// its next head store; the consumer reloads the pointer right after every
// head load. So the backing a consumer holds always has the cells below the
// head it holds, and the old backing it may still be reading is never
// written again.
//
// The index fields are padded onto separate cache lines so the producer's
// head publications do not invalidate the consumer's tail line and vice
// versa (false sharing would serialize the two sides through the coherence
// protocol even though they never logically conflict).
type Ring struct {
	capacity uint64
	// backing is the producer's current slots, published for the consumer;
	// stored only by a growing producer, loaded by the consumer with head.
	backing atomic.Pointer[[]Cell]
	_       [64]byte
	// head is the producer's publication cursor: cells [tail, head) are
	// readable. staged is the producer's write cursor, producer-private:
	// cells [head, staged) are written but not yet published. cachedTail
	// and buf, the producer's slots, are producer-private too.
	head       atomic.Uint64
	staged     uint64
	cachedTail uint64
	buf        []Cell
	_          [64]byte
	// tail is the consumer's publication cursor. cachedHead and view, the
	// backing loaded with it, are consumer-private; viewOf is the pointer
	// view was copied from, so that an unchanged backing costs a compare,
	// not a copy, on every head load.
	tail       atomic.Uint64
	cachedHead uint64
	view       []Cell
	viewOf     *[]Cell
	_          [64]byte
}

// NewRing returns a ring holding at least capacity cells, rounded up to a
// power of two (minimum 2) so index wrapping is a mask, not a divide. It
// panics if capacity exceeds MaxRingCells.
func NewRing(capacity int) *Ring {
	if capacity > MaxRingCells {
		panic(fmt.Sprintf("datapath: ring of %d cells exceeds MaxRingCells %d", capacity, MaxRingCells))
	}
	n := 1 << bits.Len(uint(max(capacity, 2)-1))
	buf := make([]Cell, min(n, DefaultBurst))
	r := &Ring{capacity: uint64(n), buf: buf, view: buf, viewOf: &buf}
	r.backing.Store(&buf)
	return r
}

// Capacity returns the number of cells the ring holds before it refuses one.
func (r *Ring) Capacity() int { return int(r.capacity) }

// Len returns the number of published cells currently queued; staged cells
// do not count until Publish. It is exact when the ring is quiescent and a
// consistent snapshot bound otherwise. The loads are ordered tail before
// head: loading head first can observe a head from before a consumer
// advance and a tail from after it, making the difference wrap negative.
// With tail loaded first the head observed afterwards is always at least
// the tail observed, so the difference stays meaningful; the clamps keep
// even a pathological interleaving inside [0, Capacity].
func (r *Ring) Len() int {
	tail := r.tail.Load()
	head := r.head.Load()
	n := int64(head - tail)
	if n < 0 {
		return 0
	}
	if n > int64(r.capacity) {
		return int(r.capacity)
	}
	return int(n)
}

// Pushed returns how many cells the ring has published since it was made:
// the producer's cursor counts exactly the successful Pushes and published
// Stages, so the port ledger reads it instead of keeping a second counter.
func (r *Ring) Pushed() int64 { return int64(r.head.Load()) }

// Popped returns how many cells the consumer has released since the ring
// was made: the consumer's cursor, read by the port ledger like Pushed.
func (r *Ring) Popped() int64 { return int64(r.tail.Load()) }

// Stage copies c into the next free slot without publishing it, returning
// false (writing nothing) when the ring is full; staged cells occupy slots
// but stay invisible to the consumer, Len and Pushed until Publish.
// Producer side only.
func (r *Ring) Stage(c *Cell) bool { return r.stageFast(c) || r.stageSlow(c) }

// stageFast is Stage into the current backing when the cached tail shows a
// free slot, and false otherwise. It makes no call, so it stays within the
// inlining budget: the per-cell callers (Push, the forwarder's egress stage)
// call it directly and fall back to stageSlow, and TestRingFastPathInlined
// in the repository root holds the compiler to it.
func (r *Ring) stageFast(c *Cell) bool {
	at := r.staged
	if at-r.cachedTail >= uint64(len(r.buf)) {
		return false
	}
	r.buf[at&uint64(len(r.buf)-1)] = *c
	r.staged = at + 1
	return true
}

// stageSlow is Stage when the cached tail shows the backing full: it
// refreshes the tail and, if the backing is still full but the ring below
// capacity, grows the backing first.
func (r *Ring) stageSlow(c *Cell) bool {
	at := r.staged
	r.cachedTail = r.tail.Load()
	if used := at - r.cachedTail; used >= uint64(len(r.buf)) {
		if used >= r.capacity {
			return false
		}
		r.grow()
	}
	r.buf[at&uint64(len(r.buf)-1)] = *c
	r.staged = at + 1
	return true
}

// grow doubles the producer's backing, copying the cells from its cached
// tail up to staged, and publishes it (see the Ring comment).
func (r *Ring) grow() {
	old, buf := r.buf, make([]Cell, 2*len(r.buf))
	for i := r.cachedTail; i != r.staged; i++ {
		buf[i&uint64(len(buf)-1)] = old[i&uint64(len(old)-1)]
	}
	r.buf = buf
	r.backing.Store(&buf)
}

// Staged reports whether the ring holds staged cells awaiting Publish.
// Producer side only.
func (r *Ring) Staged() bool { return r.staged != r.head.Load() }

// Publish makes every staged cell visible to the consumer with one store
// of head. Producer side only.
func (r *Ring) Publish() { r.head.Store(r.staged) }

// Push copies c into the ring and publishes it — together with anything
// staged before it, which keeps FIFO order — returning false (dropping
// nothing, writing nothing) when the ring is full. Producer side only.
func (r *Ring) Push(c *Cell) bool {
	if !r.stageFast(c) && !r.stageSlow(c) {
		return false
	}
	r.Publish()
	return true
}

// Ready returns how many published cells wait to be read, up to max,
// refreshing the consumer's view of head — and with it of the backing —
// only when its cached view cannot satisfy max. Cells 0..n-1 are then
// readable through At until Release. Consumer side only.
func (r *Ring) Ready(max int) int {
	tail := r.tail.Load()
	if r.cachedHead-tail < uint64(max) {
		r.cachedHead = r.head.Load()
		if b := r.backing.Load(); b != r.viewOf {
			r.viewOf, r.view = b, *b
		}
	}
	return int(min(r.cachedHead-tail, uint64(max)))
}

// At returns a pointer to the i-th oldest queued cell, 0 <= i < the count
// Ready last returned. The pointer aliases the slot and is valid until the
// slot is Released. Consumer side only.
func (r *Ring) At(i int) *Cell {
	return &r.view[(r.tail.Load()+uint64(i))&uint64(len(r.view)-1)]
}

// Release consumes the n oldest queued cells with one store of tail,
// handing their slots back to the producer; n must not exceed the count
// Ready last returned. Consumer side only.
func (r *Ring) Release(n int) {
	r.tail.Store(r.tail.Load() + uint64(n))
}

// Peek returns a pointer to the oldest queued cell, or nil when the ring is
// empty. The pointer aliases the slot and is valid until Advance. Consumer
// side only.
func (r *Ring) Peek() *Cell {
	if r.Ready(1) == 0 {
		return nil
	}
	return r.At(0)
}

// Advance consumes the cell last returned by Peek, releasing its slot to
// the producer. Consumer side only; calling it without a successful Peek
// corrupts the ring.
func (r *Ring) Advance() { r.Release(1) }
