package netproto

import (
	"context"
	"time"

	"rcbr/internal/cell"
)

// This file is the client's RM coalescing. With WithBatchWindow(d),
// Renegotiate calls enqueue their sequenced delta here instead of sending a
// datagram each; the window's entries are flushed as one RM frame of one
// cell per entry when d elapses, when MaxRMBatch entries accumulate, or when
// a second renegotiation arrives for a VC already in the window (a frame's
// cells must be distinct VCs so reply cells can be matched back).
//
// Correctness relies on two properties of the switch. The cells are
// sequenced deltas, so the whole frame is retransmitted unchanged on
// timeout and a replayed cell is dropped by the duplicate filter and
// answered with the absolute rate. And any entry the frame cannot resolve —
// a missing reply cell, an error reply — falls back to the per-VC resync
// path, which carries the absolute target rate and needs nothing from the
// coalesced attempt. Coalescing therefore never changes outcomes, only
// datagram count.

// batchEntry is one caller's renegotiation waiting in the window.
type batchEntry struct {
	vpi    uint8
	vci    uint16
	m      cell.RM
	target float64 // absolute rate, for the fallback path
	done   chan batchOutcome
}

// batchOutcome is what the flusher delivers to a waiting caller: the
// backward RM message, or fallback=true when the caller must renegotiate
// individually.
type batchOutcome struct {
	m        cell.RM
	fallback bool
}

// renegotiateBatched enqueues the delta and waits for the window's flush to
// deliver the backward message, falling back to an individual resync when
// the batch path cannot resolve this VC.
func (c *Client) renegotiateBatched(ctx context.Context, vci uint16, target float64, m cell.RM) (float64, bool, error) {
	done := make(chan batchOutcome, 1)
	c.enqueueBatch(batchEntry{vci: vci, m: m, target: target, done: done})
	select {
	case out := <-done:
		if out.fallback {
			c.ins.batchFallbacks.Inc()
			return c.Resync(ctx, vci, target)
		}
		return out.m.ER, !out.m.Deny, nil
	case <-ctx.Done():
		return 0, false, ctx.Err()
	}
}

// enqueueBatch adds an entry to the window, starting the flush timer on the
// first entry and flushing early on a full window or a duplicate VC.
func (c *Client) enqueueBatch(e batchEntry) {
	c.bmu.Lock()
	for _, p := range c.bpend {
		if p.vpi == e.vpi && p.vci == e.vci {
			// The window already renegotiates this VC; flush it so each
			// batch keeps distinct VCs and replies match unambiguously.
			pend := c.takeBatchLocked()
			c.bmu.Unlock()
			go c.flushBatch(pend)
			c.bmu.Lock()
			break
		}
	}
	c.bpend = append(c.bpend, e)
	if len(c.bpend) == 1 {
		c.btimer = time.AfterFunc(c.batchWindow, c.flushTimer)
	}
	if len(c.bpend) >= MaxRMBatch {
		pend := c.takeBatchLocked()
		c.bmu.Unlock()
		go c.flushBatch(pend)
		return
	}
	c.bmu.Unlock()
}

// takeBatchLocked detaches the window's entries and stops its timer. The
// caller must hold bmu.
func (c *Client) takeBatchLocked() []batchEntry {
	pend := c.bpend
	c.bpend = nil
	if c.btimer != nil {
		c.btimer.Stop()
		c.btimer = nil
	}
	return pend
}

// flushTimer is the AfterFunc body: the window elapsed.
func (c *Client) flushTimer() {
	c.bmu.Lock()
	pend := c.takeBatchLocked()
	c.bmu.Unlock()
	if len(pend) > 0 {
		c.flushBatch(pend)
	}
}

// flushBatch sends one coalesced RM frame and delivers every entry's
// outcome exactly once. It runs outside any lock. The frame retransmits
// unchanged across attempts (see the file comment for why that is safe);
// flushing is not bound to any one caller's context — each caller's wait
// is, which is where cancellation belongs.
func (c *Client) flushBatch(entries []batchEntry) {
	c.ins.batches.Inc()
	c.ins.batchCells.Add(int64(len(entries)))
	id := c.newID()
	bufp := pktPool.Get().(*[]byte)
	defer pktPool.Put(bufp)
	f, err := c.roundTrip(context.Background(), id, len(entries), func(int) ([]byte, error) {
		pkt := appendHeader((*bufp)[:0], TypeRM, id)
		for _, e := range entries {
			var err error
			if pkt, err = appendRMCell(pkt, cell.Header{VPI: e.vpi, VCI: e.vci}, e.m); err != nil {
				return nil, err
			}
		}
		return pkt, nil
	})
	// A timeout, a socket error or an error reply resolves nothing, and what
	// a reply does not resolve — a cell left out, a cell that fails its
	// checks — resolves individually.
	var cells []byte
	if err == nil && f.Type == TypeRMReply {
		if _, err := rmCells(f.Payload); err == nil {
			cells = f.Payload
		}
	}
	var resolved [MaxRMBatch]bool // the window flushes at MaxRMBatch entries
	for ; len(cells) > 0; cells = cells[cell.Size:] {
		h, m, err := DecodeRM(cells[:cell.Size])
		if err != nil {
			break
		}
		for j, e := range entries {
			if !resolved[j] && e.vpi == h.VPI && e.vci == h.VCI {
				e.done <- batchOutcome{m: m}
				resolved[j] = true
				break
			}
		}
	}
	for j, e := range entries {
		if !resolved[j] {
			e.done <- batchOutcome{fallback: true}
		}
	}
}
