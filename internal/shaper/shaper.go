// Package shaper implements the one-shot traffic descriptors RCBR argues
// against (Section II of the paper): the token (leaky) bucket behind ATM VBR
// and Integrated-Services guaranteed service. A source is described once, at
// setup, by a token rate r and bucket depth b; traffic conforming to (r, b)
// may enter the network, excess is shaped (delayed) or policed (dropped).
//
// The package provides the bucket itself, conformance checking, shaping and
// policing of frame traces, and the empirical burstiness curve b*(r) — the
// minimal bucket depth making a trace conformant at token rate r — which
// quantifies the paper's Section II dilemma: for multiple time-scale traffic
// the curve stays enormous until r approaches the sustained peak, so any
// one-shot (r, b) choice sacrifices either multiplexing gain (large r),
// protection/buffering (large b), or data (policing losses).
package shaper

import (
	"fmt"
	"math"

	"rcbr/internal/trace"
)

// TokenBucket is a token bucket with rate (tokens/second, 1 token = 1 bit)
// and depth (bits). The zero value is unusable; construct with New. The
// bucket starts full, per the usual convention.
type TokenBucket struct {
	rate   float64
	depth  float64
	tokens float64
}

// New returns a full token bucket. It panics if rate or depth is negative.
func New(rate, depth float64) *TokenBucket {
	if rate < 0 || depth < 0 {
		panic("shaper: negative rate or depth")
	}
	return &TokenBucket{rate: rate, depth: depth, tokens: depth}
}

// Rate returns the token rate in bits/second.
func (tb *TokenBucket) Rate() float64 { return tb.rate }

// SetRate retargets the token rate in place. The current token level is
// kept — the bucket is not refilled — so after a renegotiation the VC
// spends whatever credit it had already earned at the old rate and then
// accrues at the new one. It panics on a negative or NaN rate; +Inf is
// likewise rejected, matching the fabric's notion of a valid rate.
func (tb *TokenBucket) SetRate(rate float64) {
	if rate < 0 || math.IsNaN(rate) || math.IsInf(rate, 1) {
		panic("shaper: invalid rate")
	}
	tb.rate = rate
}

// Depth returns the bucket depth in bits.
func (tb *TokenBucket) Depth() float64 { return tb.depth }

// Tokens returns the current token level in bits.
func (tb *TokenBucket) Tokens() float64 { return tb.tokens }

// Refill is the bucket's refill step as a pure function: the token level
// after dt seconds at rate, capped at depth. It is the one definition of
// that arithmetic — Tick calls it, and so does the cell path, which keeps a
// VC's tokens in its table entry instead of in a TokenBucket. The cap is a
// compare rather than math.Min: for the finite non-negative operands every
// caller validates the two agree bit for bit (TestRefillIsMin), and Min's
// NaN and signed-zero handling is not free on a per-cell path.
func Refill(tokens, rate, dt, depth float64) float64 {
	if t := tokens + rate*dt; t < depth {
		return t
	}
	return depth
}

// Tick adds dt seconds worth of tokens, capped at the depth.
func (tb *TokenBucket) Tick(dt float64) {
	if dt < 0 {
		panic("shaper: negative tick")
	}
	tb.tokens = Refill(tb.tokens, tb.rate, dt, tb.depth)
}

// Take consumes bits of tokens; it returns false (consuming nothing) if the
// bucket does not hold enough.
func (tb *TokenBucket) Take(bits float64) bool {
	if bits < 0 {
		panic("shaper: negative take")
	}
	if bits > tb.tokens {
		return false
	}
	tb.tokens -= bits
	return true
}

// TakeUpTo consumes at most bits, returning the amount actually taken.
func (tb *TokenBucket) TakeUpTo(bits float64) float64 {
	if bits < 0 {
		panic("shaper: negative take")
	}
	got := math.Min(bits, tb.tokens)
	tb.tokens -= got
	return got
}

// PoliceResult summarizes policing a trace against a descriptor.
type PoliceResult struct {
	ArrivedBits float64
	PassedBits  float64
	DroppedBits float64
}

// LossFraction returns DroppedBits/ArrivedBits, or 0 for an empty trace.
func (r PoliceResult) LossFraction() float64 {
	if r.ArrivedBits == 0 {
		return 0
	}
	return r.DroppedBits / r.ArrivedBits
}

// Police runs a trace through a policer: each frame passes to the extent
// tokens are available and the remainder is dropped (the "large data loss
// rate" horn of the Section II dilemma). Fluid semantics: partial frames
// pass.
func Police(tr *trace.Trace, rate, depth float64) PoliceResult {
	tb := New(rate, depth)
	slot := tr.SlotSeconds()
	var res PoliceResult
	for _, fb := range tr.FrameBits {
		tb.Tick(slot)
		bits := float64(fb)
		res.ArrivedBits += bits
		got := tb.TakeUpTo(bits)
		res.PassedBits += got
		res.DroppedBits += bits - got
	}
	return res
}

// ShapeResult summarizes shaping a trace against a descriptor.
type ShapeResult struct {
	ArrivedBits    float64
	MaxBacklogBits float64 // largest shaping-buffer occupancy
	MaxDelaySec    float64 // worst virtual delay through the shaper
	FinalBacklog   float64
}

// Shape runs a trace through a shaper: non-conformant data waits in an
// unbounded shaping buffer (the "large buffers and delays" horn). Output
// within a slot is limited by available tokens; the shaper drains backlog
// first.
func Shape(tr *trace.Trace, rate, depth float64) ShapeResult {
	tb := New(rate, depth)
	slot := tr.SlotSeconds()
	var res ShapeResult
	var backlog float64
	for _, fb := range tr.FrameBits {
		tb.Tick(slot)
		res.ArrivedBits += float64(fb)
		backlog += float64(fb)
		backlog -= tb.TakeUpTo(backlog)
		if backlog > res.MaxBacklogBits {
			res.MaxBacklogBits = backlog
		}
		if rate > 0 {
			if d := backlog / rate; d > res.MaxDelaySec {
				res.MaxDelaySec = d
			}
		} else if backlog > 0 {
			res.MaxDelaySec = math.Inf(1)
		}
	}
	res.FinalBacklog = backlog
	return res
}

// MinDepth returns the empirical burstiness curve value b*(r): the minimal
// bucket depth at token rate r for which the whole trace is conformant
// (policing drops nothing). With token capping, this is the running maximum
// of the deficit process D_t = max(0, D_{t-1} - r*slot) + a_t — equivalently
// the largest of A(s..t] - r*(t-s)*slot over all intervals, the classical
// (sigma, rho) characterization.
func MinDepth(tr *trace.Trace, rate float64) float64 {
	if rate < 0 {
		panic("shaper: negative rate")
	}
	perSlot := rate * tr.SlotSeconds()
	var deficit, need float64
	for _, fb := range tr.FrameBits {
		deficit -= perSlot
		if deficit < 0 {
			deficit = 0
		}
		deficit += float64(fb)
		if deficit > need {
			need = deficit
		}
	}
	return need
}

// Validate reports the first problem with a descriptor, or nil.
func Validate(rate, depth float64) error {
	if rate < 0 || math.IsNaN(rate) {
		return fmt.Errorf("shaper: invalid rate %g", rate)
	}
	if depth < 0 || math.IsNaN(depth) {
		return fmt.Errorf("shaper: invalid depth %g", depth)
	}
	return nil
}
