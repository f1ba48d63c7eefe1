// Package heuristic implements the causal online renegotiation schedule of
// Section IV-B of the RCBR paper: an AR(1) estimator of the source rate plus
// a buffer-flush term drives threshold-triggered renegotiations on a rate
// grid of granularity Delta.
//
// The decision rule is the paper's eq. (8): with buffer occupancy b, low and
// high thresholds B_l and B_h, current rate c and candidate rate
// u = ceil(est/Delta)*Delta, a renegotiation is requested when
//
//	(b > B_h and u > c)  or  (b < B_l and u < c).
//
// The estimate est is the predictor's smoothed source rate plus b/T, the
// bandwidth needed to flush the current buffer within the time constant T
// (eq. 6), giving fast reaction to sudden buffer buildups.
//
// Prediction is pluggable: AR1 is the paper's estimator; GOP is the paper's
// suggested future-work improvement that predicts over whole groups of
// pictures to avoid chasing the I/B/P frame-size oscillation.
package heuristic

import (
	"fmt"
	"math"

	"rcbr/internal/core"
	"rcbr/internal/metrics"
	"rcbr/internal/trace"
)

// Metric names exposed by the heuristic controller when Params.Metrics is
// set.
const (
	MetricTriggers      = "heuristic.renegotiation_triggers"
	MetricFailures      = "heuristic.renegotiation_failures"
	MetricHighCrossings = "heuristic.highwater_crossings"
	MetricLowCrossings  = "heuristic.lowwater_crossings"
)

// Predictor produces a smoothed estimate of the source rate from per-slot
// rate observations. Implementations are stateful and not safe for
// concurrent use.
type Predictor interface {
	// Observe records the source rate during the latest slot (bits/second)
	// and returns the updated estimate.
	Observe(rate float64) float64
}

// AR1 is the paper's first-order autoregressive rate estimator:
// est <- Coeff*est + (1-Coeff)*rate. The zero value estimates from the first
// observation directly.
type AR1 struct {
	// Coeff is the autoregression coefficient in [0, 1); larger values
	// smooth more and react more slowly.
	Coeff float64

	est  float64
	init bool
}

// Observe implements Predictor.
func (p *AR1) Observe(rate float64) float64 {
	if !p.init {
		p.init = true
		p.est = rate
		return p.est
	}
	p.est = p.Coeff*p.est + (1-p.Coeff)*rate
	return p.est
}

// GOP is a group-of-pictures-aware predictor: it averages observations over
// a sliding window of Len slots (one GOP) before AR(1) smoothing, so the
// deterministic I/B/P size oscillation within a GOP does not masquerade as
// rate change. This is the predictor structure the paper points to as future
// work ("taking into account the inherent frame structure of MPEG encoded
// video").
type GOP struct {
	// Len is the GOP length in slots; 12 for the IBBPBBPBBPBB pattern.
	Len int
	// Coeff is the AR(1) coefficient applied to the GOP-mean rate.
	Coeff float64

	win  []float64
	next int
	sum  float64
	n    int
	est  float64
	init bool
}

// Observe implements Predictor.
func (p *GOP) Observe(rate float64) float64 {
	if p.Len <= 0 {
		p.Len = 12
	}
	if p.win == nil {
		p.win = make([]float64, p.Len)
	}
	if p.n < p.Len {
		p.n++
	} else {
		p.sum -= p.win[p.next]
	}
	p.win[p.next] = rate
	p.sum += rate
	p.next = (p.next + 1) % p.Len
	mean := p.sum / float64(p.n)
	if !p.init {
		p.init = true
		p.est = mean
		return p.est
	}
	p.est = p.Coeff*p.est + (1-p.Coeff)*mean
	return p.est
}

// Negotiator is the network side of a renegotiation: given the current and
// requested rates it returns the granted rate. A grant equal to the current
// rate is a renegotiation failure in the RCBR sense — the source keeps the
// bandwidth it already has (Section III-A.1).
type Negotiator interface {
	Negotiate(current, requested float64) float64
}

// AlwaysGrant is a Negotiator that accepts every request: the single-source
// regime of Section IV.
type AlwaysGrant struct{}

// Negotiate implements Negotiator.
func (AlwaysGrant) Negotiate(_, requested float64) float64 { return requested }

// NegotiatorFunc adapts a function to the Negotiator interface.
type NegotiatorFunc func(current, requested float64) float64

// Negotiate implements Negotiator.
func (f NegotiatorFunc) Negotiate(current, requested float64) float64 {
	return f(current, requested)
}

// Params holds the tuning knobs of the heuristic with the paper's Fig. 2
// values as documented defaults.
type Params struct {
	// LowWater (B_l) and HighWater (B_h) are the buffer thresholds in bits
	// (paper: 10 kb and 150 kb).
	LowWater, HighWater float64
	// FlushSlots is the time constant T in slots within which the buffer
	// content should be flushable (paper: 5 frames).
	FlushSlots float64
	// Granularity is the bandwidth allocation granularity Delta in
	// bits/second (paper: varied from 25 kb/s to 400 kb/s).
	Granularity float64
	// ARCoeff is the AR(1) coefficient used when Predictor is nil.
	ARCoeff float64
	// InitialRate is the rate negotiated at call setup; zero means one
	// granularity step.
	InitialRate float64
	// MaxRate, when positive, caps requests (e.g. at the link rate).
	MaxRate float64
	// Predictor overrides the default AR1{Coeff: ARCoeff}.
	Predictor Predictor
	// DisableFlushTerm drops the b/T term from the estimate; used by the
	// ablation tests and benchmarks.
	DisableFlushTerm bool
	// GrantTolerance is the relative shortfall below the requested rate
	// still counted as a full grant. Signaling paths that quantize rates on
	// the wire (the 16-bit RM-cell encoding loses up to ~0.4%) need a
	// small tolerance to avoid counting every grant as a failure; zero
	// demands exact grants.
	GrantTolerance float64
	// SignalDelaySlots models round-trip renegotiation latency: a granted
	// rate takes effect this many slots after the request. Section III-C
	// predicts that online performance degrades with latency because the
	// source must predict further ahead; the paper leaves the
	// quantification to future work, which the latency experiment in
	// cmd/rcbrsim supplies. While a request is in flight no further
	// request is issued (one outstanding renegotiation per source).
	SignalDelaySlots int
	// Metrics, when non-nil, receives the controller's renegotiation
	// trigger/failure counters and buffer threshold-crossing counters. The
	// rate and occupancy themselves are the Source's (Rate, Occupancy): a
	// registry shared by several controllers would hold whichever stepped
	// last.
	Metrics *metrics.Registry
}

// DefaultParams returns the paper's Fig. 2 heuristic parameters with the
// given granularity.
func DefaultParams(granularity float64) Params {
	return Params{
		LowWater:    10e3,
		HighWater:   150e3,
		FlushSlots:  5,
		Granularity: granularity,
		ARCoeff:     0.9,
	}
}

// Validate reports the first problem with the parameters, or nil.
func (p Params) Validate() error {
	switch {
	case !(p.Granularity > 0):
		return fmt.Errorf("heuristic: granularity must be positive, got %g", p.Granularity)
	case !(p.LowWater >= 0 && p.HighWater >= 0):
		return fmt.Errorf("heuristic: negative buffer threshold")
	case !(p.LowWater < p.HighWater):
		return fmt.Errorf("heuristic: LowWater %g must be below HighWater %g",
			p.LowWater, p.HighWater)
	case !(p.FlushSlots > 0):
		return fmt.Errorf("heuristic: FlushSlots must be positive, got %g", p.FlushSlots)
	case !(p.ARCoeff >= 0 && p.ARCoeff < 1):
		return fmt.Errorf("heuristic: ARCoeff %g outside [0,1)", p.ARCoeff)
	case !(p.InitialRate >= 0):
		return fmt.Errorf("heuristic: negative initial rate")
	case !(p.MaxRate >= 0):
		return fmt.Errorf("heuristic: negative max rate")
	case !(p.GrantTolerance >= 0 && p.GrantTolerance < 1):
		return fmt.Errorf("heuristic: grant tolerance %g outside [0,1)", p.GrantTolerance)
	case p.SignalDelaySlots < 0:
		return fmt.Errorf("heuristic: negative signaling delay")
	}
	return nil
}

// Result reports one heuristic run.
type Result struct {
	// Schedule is the sequence of rates actually in force (granted).
	Schedule *core.Schedule
	// Attempts counts renegotiation requests sent; Failures counts those
	// the network did not grant in full.
	Attempts, Failures int
	// LostBits is the data lost to source-buffer overflow.
	LostBits float64
	// MaxOccupancy is the largest buffer occupancy seen, in bits.
	MaxOccupancy float64
}

// instruments caches the controller's registry handles; every field is a
// nil-safe no-op when Params.Metrics is unset.
type instruments struct {
	triggers  *metrics.Counter
	failures  *metrics.Counter
	highCross *metrics.Counter
	lowCross  *metrics.Counter
}

// Controller runs the heuristic online against a Source. Use Run for the
// common trace-driven case.
type Controller struct {
	params Params
	pred   Predictor
	net    Negotiator
	src    *core.Source
	ins    instruments

	// prevOcc is the previous slot's buffer occupancy, for edge-triggered
	// threshold-crossing counters.
	prevOcc float64

	// In-flight renegotiation under SignalDelaySlots: the granted rate and
	// the slot countdown until it takes effect (-1 when idle).
	pendingRate  float64
	pendingSlots int
}

// NewController validates the parameters and binds the heuristic to a source
// and a negotiator. A nil negotiator means AlwaysGrant.
func NewController(src *core.Source, p Params, net Negotiator) (*Controller, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if net == nil {
		net = AlwaysGrant{}
	}
	pred := p.Predictor
	if pred == nil {
		pred = &AR1{Coeff: p.ARCoeff}
	}
	c := &Controller{params: p, pred: pred, net: net, src: src, pendingSlots: -1}
	if reg := p.Metrics; reg != nil {
		c.ins = instruments{
			triggers:  reg.Counter(MetricTriggers),
			failures:  reg.Counter(MetricFailures),
			highCross: reg.Counter(MetricHighCrossings),
			lowCross:  reg.Counter(MetricLowCrossings),
		}
	}
	return c, nil
}

// Step feeds one slot of arrivals through the source and applies the
// renegotiation rule. It returns the rate in force for the *next* slot and
// whether a renegotiation was attempted and failed.
func (c *Controller) Step(arrivalBits float64) (rate float64, attempted, failed bool) {
	// A grant in flight takes effect when its delay expires.
	if c.pendingSlots >= 0 {
		if c.pendingSlots == 0 {
			c.src.SetRate(c.pendingRate)
			c.pendingSlots = -1
		} else {
			c.pendingSlots--
		}
	}
	c.src.Step(arrivalBits)
	x := arrivalBits / c.src.SlotSeconds()
	est := c.pred.Observe(x)
	b := c.src.Occupancy()
	// Edge-triggered threshold crossings: count entries into the high and
	// low regions, not dwell time there.
	if b > c.params.HighWater && c.prevOcc <= c.params.HighWater {
		c.ins.highCross.Inc()
	}
	if b < c.params.LowWater && c.prevOcc >= c.params.LowWater {
		c.ins.lowCross.Inc()
	}
	c.prevOcc = b
	if !c.params.DisableFlushTerm {
		est += b / (c.params.FlushSlots * c.src.SlotSeconds())
	}
	u := c.quantize(est)
	cur := c.src.Rate()
	// Compare on the quantized grid: a grant returned through a lossy wire
	// encoding sits just below its grid point, and comparing raw rates
	// would re-trigger a request every slot.
	curQ := c.quantize(cur)
	inFlight := c.pendingSlots >= 0
	if !inFlight &&
		((b > c.params.HighWater && u > curQ) || (b < c.params.LowWater && u < curQ)) {
		attempted = true
		c.ins.triggers.Inc()
		granted := c.net.Negotiate(cur, u)
		if granted < u*(1-c.params.GrantTolerance) {
			failed = true
			c.ins.failures.Inc()
		}
		if granted >= 0 {
			if c.params.SignalDelaySlots == 0 {
				c.src.SetRate(granted)
			} else {
				c.pendingRate = granted
				c.pendingSlots = c.params.SignalDelaySlots - 1
			}
		}
	}
	return c.src.Rate(), attempted, failed
}

// quantize snaps est up to the granularity grid, honoring MaxRate.
func (c *Controller) quantize(est float64) float64 {
	if est <= 0 {
		return 0
	}
	u := math.Ceil(est/c.params.Granularity-1e-12) * c.params.Granularity
	if c.params.MaxRate > 0 && u > c.params.MaxRate {
		u = c.params.MaxRate
	}
	return u
}

// Run drives the whole trace through the heuristic with a fresh source of
// buffer B bits and returns the realized schedule and statistics.
func Run(tr *trace.Trace, B float64, p Params, net Negotiator) (Result, error) {
	if tr.Len() == 0 {
		return Result{}, fmt.Errorf("heuristic: empty trace")
	}
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	if !(B > 0) {
		return Result{}, fmt.Errorf("heuristic: buffer must be positive, got %g", B)
	}
	initial := p.InitialRate
	if initial == 0 {
		initial = p.Granularity
	}
	src := core.NewSource(B, tr.SlotSeconds(), initial)
	ctl, err := NewController(src, p, net)
	if err != nil {
		return Result{}, err
	}
	var res Result
	rates := make([]float64, tr.Len())
	for t := 0; t < tr.Len(); t++ {
		// The rate in force during slot t is the one negotiated before it.
		rates[t] = src.Rate()
		_, attempted, failed := ctl.Step(float64(tr.FrameBits[t]))
		if attempted {
			res.Attempts++
		}
		if failed {
			res.Failures++
		}
		if src.Occupancy() > res.MaxOccupancy {
			res.MaxOccupancy = src.Occupancy()
		}
	}
	res.LostBits = src.LostBits()
	res.Schedule = core.FromRates(rates, tr.SlotSeconds())
	return res, nil
}
