package mesh

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"rcbr/internal/metrics"
	"rcbr/internal/switchfab"
)

// RateError reports an end-to-end rate request the path could not grant in
// full, carrying the bottleneck hop and the counter-offer the path settled
// at (Offered equals the old rate on a flat denial). It unwraps to
// switchfab.ErrCapacity, so errors.Is(err, switchfab.ErrCapacity) holds.
type RateError struct {
	// Hop and HopName identify the bottleneck: the hop whose grant bound
	// the end-to-end minimum.
	Hop     int
	HopName string
	// Requested is the rate the caller asked for; Offered is the rate now
	// in force along the whole path.
	Requested float64
	Offered   float64
}

// Error implements error.
func (e *RateError) Error() string {
	if e.Offered > 0 {
		return fmt.Sprintf("mesh: hop %d (%s) bound the path to %g of the requested %g bit/s",
			e.Hop, e.HopName, e.Offered, e.Requested)
	}
	return fmt.Sprintf("mesh: hop %d (%s) denied %g bit/s", e.Hop, e.HopName, e.Requested)
}

// Unwrap ties the error to the capacity sentinel.
func (e *RateError) Unwrap() error { return switchfab.ErrCapacity }

// errDenied stops a renegotiation's walk at a hop with no headroom for the
// increase; Renegotiate turns it into a *RateError.
var errDenied = errors.New("mesh: no headroom")

// Path is an established multi-hop RCBR connection. Create with
// Mesh.SetupPath. Renegotiate and Teardown serialize against each other
// per path; distinct paths proceed concurrently.
type Path struct {
	m    *Mesh
	id   switchfab.VCID
	hops []Hop

	// sem serializes the path's multi-hop transactions. It is a channel,
	// not a mutex, because a transaction spans propagation waits and hop
	// I/O that no lock may be held across (see the package comment).
	sem chan struct{}

	// rmu guards rate and down; it is only ever held around field access,
	// never across hop I/O.
	rmu  sync.Mutex
	rate float64
	down bool
}

// SetupPath establishes the VC on every hop at the initial rate, hop by
// hop downstream. On a mid-path failure (denial, error, or per-hop
// timeout) the hops already reserved are unwound and the error is
// returned; an admission denial satisfies errors.Is(err,
// switchfab.ErrCapacity) via the hop's own error.
func (m *Mesh) SetupPath(ctx context.Context, id switchfab.VCID, hops []Hop, rate float64) (*Path, error) {
	if len(hops) == 0 {
		return nil, fmt.Errorf("mesh: empty path")
	}
	n, err := m.walk(ctx, id, hops, 0, rate, func(hctx context.Context, i int) error {
		return hops[i].node.tr.Setup(hctx, id, hops[i].port, rate)
	})
	fail := metrics.Event{Kind: metrics.EventPathSetupFail, VPI: id.VPI(), VCI: id.VCI(), Requested: rate}
	if err != nil {
		fail.Port, fail.Hop = hops[n].port, hops[n].Name()
		err = fmt.Errorf("mesh: setup %s at hop %d (%s): %w", id, n, hops[n].Name(), err)
	} else if err = m.wait(ctx, signalDelay(hops)); err != nil {
		// Every hop reserved, but the backward confirmation never reached
		// the source: unwind them all.
		err = fmt.Errorf("mesh: setup %s: confirmation lost: %w", id, err)
	}
	if err != nil {
		m.emit(fail)
		m.unwind(ctx, id, hops[:n], func(dctx context.Context, j int) {
			_ = hops[j].node.tr.Teardown(dctx, id)
		})
		return nil, err
	}
	m.emit(metrics.Event{Kind: metrics.EventPathSetup, VPI: id.VPI(), VCI: id.VCI(), Rate: rate})
	return &Path{
		m:    m,
		id:   id,
		hops: append([]Hop(nil), hops...),
		sem:  make(chan struct{}, 1),
		rate: rate,
	}, nil
}

// walk runs op at each hop in turn, downstream: each hop's share runs under
// the hop budget, first waiting out the link into the hop, then calling op.
// It stops at the first hop that fails and returns that hop's index and
// error, having recorded a hop timeout when a deadline or cancellation
// caused the failure; it returns len(hops) when every hop succeeded. rate
// and requested are the timeout event's rate fields.
func (m *Mesh) walk(ctx context.Context, id switchfab.VCID, hops []Hop, rate, requested float64, op func(hctx context.Context, i int) error) (int, error) {
	for i, h := range hops {
		hctx, cancel := m.hopBudget(ctx)
		var err error
		if i > 0 {
			err = m.wait(hctx, hops[i-1].delay) // expired in flight: the request never reached hop i
		}
		if err == nil {
			err = op(hctx, i)
		}
		cancel()
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
				m.emit(metrics.Event{
					Kind: metrics.EventHopTimeout, VPI: id.VPI(), VCI: id.VCI(),
					Port: h.port, Rate: rate, Requested: requested, Hop: h.Name(),
				})
			}
			return i, err
		}
	}
	return len(hops), nil
}

// unwind compensates the hops a failed transaction already changed, deepest
// first, by calling undo for each under a detached context: the unwind must
// proceed even when the caller's context is what failed the transaction.
func (m *Mesh) unwind(ctx context.Context, id switchfab.VCID, done []Hop, undo func(dctx context.Context, j int)) {
	for j := len(done) - 1; j >= 0; j-- {
		dctx, cancel := m.detached(ctx)
		undo(dctx, j)
		cancel()
		m.emit(metrics.Event{
			Kind: metrics.EventHopRollback, VPI: id.VPI(), VCI: id.VCI(),
			Port: done[j].port, Hop: done[j].Name(),
		})
	}
}

// signalDelay returns the one-way signaling delay from the source to the
// last hop: the sum of the link delays between consecutive hops (the last
// hop's egress link carries data to the destination, not signaling).
func signalDelay(hops []Hop) time.Duration {
	var d time.Duration
	for i := 0; i+1 < len(hops); i++ {
		d += hops[i].delay
	}
	return d
}

// VCID returns the path's circuit identifier.
func (p *Path) VCID() switchfab.VCID { return p.id }

// Hops returns the number of hops.
func (p *Path) Hops() int { return len(p.hops) }

// RTT returns the nominal signaling round-trip time of the path: twice
// the one-way delay to the farthest hop. It reports the unscaled figure
// even under WithDelayScale, so virtual-time simulations can convert it
// into slot counts.
func (p *Path) RTT() time.Duration { return 2 * signalDelay(p.hops) }

// Rate returns the rate currently reserved on every hop.
func (p *Path) Rate() float64 {
	p.rmu.Lock()
	defer p.rmu.Unlock()
	return p.rate
}

func (p *Path) setRate(r float64) {
	p.rmu.Lock()
	p.rate = r
	p.rmu.Unlock()
}

// acquire takes the path's transaction slot, or fails with ctx's error.
func (p *Path) acquire(ctx context.Context) error {
	select {
	case p.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (p *Path) release() { <-p.sem }

// Renegotiate requests a new end-to-end rate and returns the rate in
// force afterward. The request is processed hop by hop downstream with a
// shrinking minimum, exactly the paper's end-to-end semantics: every hop
// grants the most it can toward the smallest rate any upstream hop
// allowed, and after the forward pass the hops that granted more than the
// final minimum are settled back down to it, so no hop holds more than
// the path uses.
//
// A full grant returns (target, nil). A partial settlement — the path
// moved, but a bottleneck hop bound it below target — returns the settled
// rate and a *RateError carrying the counter-offer. A flat denial (some
// hop had no headroom at all) rolls every upstream grant back to the old
// rate and returns (old, *RateError). Decreases settle in full at every
// hop and cannot fail. On a per-hop timeout the hops already raised are
// rolled back under detached contexts and the context error is returned.
func (p *Path) Renegotiate(ctx context.Context, target float64) (float64, error) {
	if target < 0 {
		return p.Rate(), fmt.Errorf("mesh: %w: %g", switchfab.ErrInvalidRate, target)
	}
	if err := p.acquire(ctx); err != nil {
		return p.Rate(), err
	}
	defer p.release()
	if p.isDown() {
		return 0, ErrPathDown
	}
	cur := p.Rate()
	if target == cur {
		return cur, nil
	}
	m := p.m
	m.renegs.Inc()
	// granted[i] is the rate hop i holds for the VC once the walk has passed
	// it; want is the smallest rate any hop so far allowed.
	granted := make([]float64, len(p.hops))
	want, minHop := target, 0
	n, err := m.walk(ctx, p.id, p.hops, cur, target, func(hctx context.Context, i int) error {
		g, _, err := p.hops[i].node.tr.RenegotiateBest(hctx, p.id, cur, want)
		if err != nil {
			return err
		}
		granted[i] = g
		if g < want {
			want, minHop = g, i
		}
		if target > cur && want <= cur {
			// Zero headroom at this hop (which therefore still holds cur):
			// the end-to-end increase fails and every upstream grant
			// unwinds (Section III-A.1, end to end).
			return errDenied
		}
		return nil
	})
	// Rolling back an increase is a decrease and cannot fail; re-raising
	// after a failed decrease is best-effort (the headroom was ours a
	// moment ago).
	rollback := func(dctx context.Context, j int) {
		_, _, _ = p.hops[j].node.tr.RenegotiateBest(dctx, p.id, granted[j], cur)
	}
	if err != nil {
		m.unwind(ctx, p.id, p.hops[:n], rollback)
		h := p.hops[n]
		if !errors.Is(err, errDenied) {
			return cur, fmt.Errorf("mesh: renegotiate %s at hop %d (%s): %w", p.id, n, h.Name(), err)
		}
		m.emit(metrics.Event{
			Kind: metrics.EventPathDeny, VPI: p.id.VPI(), VCI: p.id.VCI(),
			Port: h.port, Rate: cur, Requested: target, Hop: h.Name(),
		})
		return cur, &RateError{Hop: n, HopName: h.Name(), Requested: target, Offered: cur}
	}
	// Backward settle: hops that granted more than the path minimum give
	// the excess back (a decrease, which cannot fail), so the reservation
	// at every hop equals the end-to-end rate.
	for i, g := range granted {
		if g > want {
			dctx, cancel := m.detached(ctx)
			_, _, _ = p.hops[i].node.tr.RenegotiateBest(dctx, p.id, g, want)
			cancel()
			granted[i] = want
		}
	}
	// The reply's propagation only delays when the source learns of a
	// decrease, never whether it holds; a lost increase reply is
	// compensated by rolling the whole path back to the old rate.
	if err := m.wait(ctx, signalDelay(p.hops)); err != nil && target > cur {
		m.unwind(ctx, p.id, p.hops, rollback)
		return cur, fmt.Errorf("mesh: renegotiate %s: reply lost: %w", p.id, err)
	}
	p.setRate(want)
	if want == target {
		m.emit(metrics.Event{Kind: metrics.EventPathGrant, VPI: p.id.VPI(), VCI: p.id.VCI(), Rate: want})
		return want, nil
	}
	m.emit(metrics.Event{
		Kind: metrics.EventPathPartial, VPI: p.id.VPI(), VCI: p.id.VCI(),
		Rate: want, Requested: target, Hop: p.hops[minHop].Name(),
	})
	return want, &RateError{
		Hop: minHop, HopName: p.hops[minHop].Name(), Requested: target, Offered: want,
	}
}

// Teardown releases the VC on every hop. It attempts every hop even after
// an error and reports the first one; each hop runs under its own bounded
// detached context, so a dead caller context or one wedged hop cannot
// leave reservations behind on the hops after it. Teardown is idempotent:
// a second call returns nil without touching the hops.
func (p *Path) Teardown(ctx context.Context) error {
	if err := p.acquire(ctx); err != nil {
		return err
	}
	defer p.release()
	if p.isDown() {
		return nil
	}
	m := p.m
	var first error
	for i, h := range p.hops {
		dctx, cancel := m.detached(ctx)
		err := h.node.tr.Teardown(dctx, p.id)
		cancel()
		if err != nil && first == nil {
			first = fmt.Errorf("mesh: teardown %s at hop %d (%s): %w", p.id, i, h.Name(), err)
		}
	}
	p.markDown()
	m.emit(metrics.Event{
		Kind: metrics.EventPathTeardown, VPI: p.id.VPI(), VCI: p.id.VCI(),
	})
	return first
}

func (p *Path) isDown() bool {
	p.rmu.Lock()
	defer p.rmu.Unlock()
	return p.down
}

func (p *Path) markDown() {
	p.rmu.Lock()
	p.down = true
	p.rate = 0
	p.rmu.Unlock()
}
