// Package vctable is the switch's one VC table type, with one instance per
// plane: the control plane (switchfab, VC → port and reserved rate) and the
// cell path (datapath, VC → egress port and shaper) each index their per-VC
// state through a Table of their own, keyed the same way, so the two planes'
// entries for one VC are found by one id. A setup on a switch with a data
// plane publishes into both.
package vctable

import (
	"errors"
	"sync"
	"sync/atomic"
)

// Put's errors are built once — callers add the id in their own notation —
// so a refused Put allocates nothing.
var (
	errWide   = errors.New("vc id is wider than 24 bits")
	errExists = errors.New("vc exists")
)

// page is one 256-way level of the table. Slots are published with atomic
// stores and read with atomic loads; live counts the occupied slots and
// belongs to the writers (guarded by Table.mu), who unpublish a page when
// it empties.
type page[T any] struct {
	slots [256]atomic.Pointer[T]
	live  int
}

// Table routes a 24-bit VC identifier (VPI in bits 16-23, VCI in bits 0-15)
// to its entry by direct indexing, as ATM hardware does: the VPI, the VCI's
// high byte and its low byte each select a slot in a 256-way page — three
// dependent loads, no hash and no lock. Pages are allocated when their
// first VC arrives and dropped when their last one leaves, so memory
// follows the VCs that exist: ~8 bytes of slot per VC when VCIs are dense,
// two 2 KB pages for an isolated one. The zero Table is empty and ready.
//
// Readers (Get, Range) take no lock. Writers (Put, Remove) serialise on mu
// and make every change visible with one atomic store: Put fills the pages
// it had to create before linking the topmost of them in, Remove clears the
// entry's slot before unlinking an emptied page. Nothing is ever reused, so
// retirement is the garbage collector's: a reader that loaded a page or an
// entry just before it was unlinked finishes on memory that stays valid and
// that no later Put will touch.
//
// Lock order: mu is a leaf. Nothing in this package calls out of it while
// holding mu, so a caller may Put or Remove under any lock of its own (the
// switch does so under a port mutex) without creating an ordering edge.
// TestLockRulesInSource (repository root) holds the caller's half: a
// switchfab function locks one mutex itself.
type Table[T any] struct {
	root page[page[page[T]]]
	mu   sync.Mutex
	n    atomic.Int64
}

// Get returns id's entry, or nil. An id wider than 24 bits names no VC.
func (t *Table[T]) Get(id uint32) *T {
	if id>>24 != 0 {
		return nil
	}
	mid := t.root.slots[uint8(id>>16)].Load()
	if mid == nil {
		return nil
	}
	leaf := mid.slots[uint8(id>>8)].Load()
	if leaf == nil {
		return nil
	}
	return leaf.slots[uint8(id)].Load()
}

// Put publishes e under id; it fails when id is taken or wider than 24
// bits.
func (t *Table[T]) Put(id uint32, e *T) error {
	if id>>24 != 0 {
		return errWide
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	top := &t.root.slots[uint8(id>>16)]
	mid := top.Load()
	if mid == nil {
		mid = new(page[page[T]])
	}
	leaf := mid.slots[uint8(id>>8)].Load()
	if leaf == nil {
		leaf = new(page[T])
	}
	slot := &leaf.slots[uint8(id)]
	if slot.Load() != nil {
		return errExists
	}
	// Bottom-up, so whichever store comes last is the one that makes e
	// reachable.
	slot.Store(e)
	if leaf.live++; leaf.live == 1 {
		mid.slots[uint8(id>>8)].Store(leaf)
		if mid.live++; mid.live == 1 {
			top.Store(mid)
		}
	}
	t.n.Add(1)
	return nil
}

// Remove unpublishes and returns id's entry, or nil.
func (t *Table[T]) Remove(id uint32) *T {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.Get(id)
	if e == nil {
		return nil
	}
	// e was found and writers are excluded, so its pages are linked.
	top := &t.root.slots[uint8(id>>16)]
	mid := top.Load()
	leaf := mid.slots[uint8(id>>8)].Load()
	leaf.slots[uint8(id)].Store(nil)
	if leaf.live--; leaf.live == 0 {
		mid.slots[uint8(id>>8)].Store(nil)
		if mid.live--; mid.live == 0 {
			top.Store(nil)
		}
	}
	t.n.Add(-1)
	return e
}

// Len returns the number of entries.
func (t *Table[T]) Len() int { return int(t.n.Load()) }

// Range calls fn for every entry in ascending id order — (VPI, VCI) order —
// until fn returns false. It takes no lock: an entry put or removed while
// the walk is under way may or may not be visited, every other entry is
// visited exactly once.
func (t *Table[T]) Range(fn func(id uint32, e *T) bool) {
	for i := range t.root.slots {
		mid := t.root.slots[i].Load()
		if mid == nil {
			continue
		}
		for j := range mid.slots {
			leaf := mid.slots[j].Load()
			if leaf == nil {
				continue
			}
			for k := range leaf.slots {
				if e := leaf.slots[k].Load(); e != nil && !fn(uint32(i)<<16|uint32(j)<<8|uint32(k), e) {
					return
				}
			}
		}
	}
}
