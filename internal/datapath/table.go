package datapath

import (
	"fmt"
	"sync"
	"sync/atomic"

	"rcbr/internal/switchfab"
)

// page is one 256-way level of the VC table. Slots are published with
// atomic stores and read with atomic loads; live counts the occupied slots
// and belongs to the writers (guarded by vcTable.mu), who unpublish a page
// when it empties.
type page[T any] struct {
	slots [256]atomic.Pointer[T]
	live  int
}

// vcTable routes a 24-bit VCID to its entry by direct indexing, as ATM
// hardware does: the VPI, the VCI's high byte and its low byte each select
// a slot in a 256-way page — three dependent loads, no hash and no lock.
// Pages are allocated when their first VC arrives and dropped when their
// last one leaves, so memory follows the VCs that exist: ~8 bytes of slot
// per VC when VCIs are dense, two 2 KB pages for an isolated one.
//
// Readers (get) take no lock. Writers (put, remove) serialise on mu and
// make every change visible with one atomic store: put fills the pages it
// had to create before linking the topmost of them in, remove clears the
// entry's slot before unlinking an emptied page. Nothing is ever reused, so
// retirement is the garbage collector's: a reader that loaded a page or an
// entry just before it was unlinked finishes on memory that stays valid and
// that no later put will touch.
type vcTable struct {
	root page[page[page[vcEntry]]]
	mu   sync.Mutex
	n    atomic.Int64 // entries, for VCCount
}

// get returns id's entry, or nil. An id wider than 24 bits names no VC.
//
//rcbr:zeroalloc
func (t *vcTable) get(id switchfab.VCID) *vcEntry {
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

// put publishes e under id; it fails when id is taken or wider than 24
// bits.
func (t *vcTable) put(id switchfab.VCID, e *vcEntry) error {
	if id>>24 != 0 {
		return fmt.Errorf("datapath: vc id %#x is wider than 24 bits", uint32(id))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	top := &t.root.slots[uint8(id>>16)]
	mid := top.Load()
	if mid == nil {
		mid = new(page[page[vcEntry]])
	}
	leaf := mid.slots[uint8(id>>8)].Load()
	if leaf == nil {
		leaf = new(page[vcEntry])
	}
	slot := &leaf.slots[uint8(id)]
	if slot.Load() != nil {
		return fmt.Errorf("datapath: vc %s exists", id)
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

// remove unpublishes and returns id's entry, or nil.
func (t *vcTable) remove(id switchfab.VCID) *vcEntry {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.get(id)
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
