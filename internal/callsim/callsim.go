// Package callsim runs the call-level admission-control experiments of
// Section VI of the RCBR paper: calls arrive as a Poisson process, each call
// is a randomly shifted copy of an RCBR renegotiation schedule, an admission
// controller decides entry, and the link grants or denies each renegotiation
// against its capacity. The simulator is event-driven over renegotiation
// events only — never individual frames — which is the efficiency trick of
// the paper's footnote 4.
//
// Measurements follow the paper: each interval of one schedule duration is a
// batch yielding one sample of the renegotiation failure probability and the
// link utilization; batches accumulate until the 95% confidence half-width
// is within a set fraction of the estimate, or until the failure upper bound
// is confidently below the QoS target.
package callsim

import (
	"cmp"
	"fmt"
	"slices"

	"rcbr/internal/admission"
	"rcbr/internal/core"
	"rcbr/internal/sim"
	"rcbr/internal/stats"
)

// Config parameterizes one experiment.
type Config struct {
	// Schedule is the per-call RCBR schedule template; every call is a
	// random cyclic shift of it.
	Schedule *core.Schedule
	// Schedules optionally supplies a heterogeneous call mix: each arrival
	// picks one template uniformly at random (real links carry different
	// movies, not shifted copies of one). When set, Schedule may be nil;
	// the measurement batch length is the longest template's duration.
	Schedules []*core.Schedule
	// Capacity is the link capacity in bits/second.
	Capacity float64
	// ArrivalRate is the Poisson call arrival rate in calls/second.
	ArrivalRate float64
	// Controller is the admission scheme under test.
	Controller admission.Controller
	// TargetFailure is the QoS target used for early stopping (a batch run
	// may stop once the failure estimate is confidently below it).
	TargetFailure float64
	// MinBatches and MaxBatches bound the measurement batches.
	MinBatches, MaxBatches int
	// CIFrac is the stopping rule's relative confidence half-width
	// (paper: 0.2).
	CIFrac float64
	// JumpRate models user interactivity (Section VI: "fast forward,
	// pause, etc."): each call seeks to a uniformly random position of its
	// schedule at this Poisson rate (jumps/second), immediately
	// renegotiating to the rate at the new position. Zero disables it. The
	// stationary per-call rate marginal is unchanged, but the a priori
	// trajectory descriptor no longer matches the call's behaviour.
	JumpRate float64
	// Seed drives arrivals, phasings and jumps.
	Seed uint64
}

// Validate reports the first problem with the configuration, or nil.
func (c *Config) Validate() error {
	switch {
	case c.Schedule == nil && len(c.Schedules) == 0:
		return fmt.Errorf("callsim: missing schedule")
	case !(c.Capacity > 0):
		return fmt.Errorf("callsim: capacity must be positive")
	case !(c.ArrivalRate > 0):
		return fmt.Errorf("callsim: arrival rate must be positive")
	case c.Controller == nil:
		return fmt.Errorf("callsim: missing controller")
	case c.MinBatches <= 0 || c.MaxBatches < c.MinBatches:
		return fmt.Errorf("callsim: bad batch bounds %d..%d", c.MinBatches, c.MaxBatches)
	case !(c.CIFrac > 0):
		return fmt.Errorf("callsim: CIFrac must be positive")
	case !(c.TargetFailure >= 0 && c.TargetFailure < 1):
		return fmt.Errorf("callsim: target failure %g outside [0,1)", c.TargetFailure)
	case !(c.JumpRate >= 0):
		return fmt.Errorf("callsim: negative jump rate")
	}
	for i, s := range c.templates() {
		if err := s.Validate(); err != nil {
			return fmt.Errorf("callsim: schedule %d: %w", i, err)
		}
	}
	return nil
}

// templates returns the call-template set.
func (c *Config) templates() []*core.Schedule {
	if len(c.Schedules) > 0 {
		return c.Schedules
	}
	return []*core.Schedule{c.Schedule}
}

// batchDurationSec returns the measurement batch length: the longest
// template's duration.
func (c *Config) batchDurationSec() float64 {
	var max float64
	for _, s := range c.templates() {
		if d := s.DurationSec(); d > max {
			max = d
		}
	}
	return max
}

// Result reports one experiment.
type Result struct {
	// FailureProb is the mean per-batch renegotiation failure probability
	// (failed requests / requests), with its 95% CI half-width.
	FailureProb, FailureCI float64
	// Utilization is the mean fraction of link capacity reserved.
	Utilization, UtilizationCI float64
	// BlockingProb is the fraction of arrivals not admitted.
	BlockingProb float64
	// Batches is the number of measurement batches used.
	Batches int
	// Attempts and Failures count renegotiation requests over all
	// measurement batches; UpAttempts counts rate increases only.
	Attempts, Failures, UpAttempts int64
	// Arrivals and Blocked count calls over the measurement period.
	Arrivals, Blocked int64
	// ConfidentBelowTarget reports that sampling stopped because the
	// failure probability's CI upper bound fell below TargetFailure.
	ConfidentBelowTarget bool
	// MeanCalls is the time-average number of calls in the system.
	MeanCalls float64
}

// call is one active call's state.
type call struct {
	id     int
	rate   float64      // currently reserved rate
	events []core.Event // renegotiation events, relative to base
	next   int          // index of the event after the one pending
	base   float64      // arrival time, or the time of the last jump
	gen    int          // bumped by a jump and by departure: older events are stale
	tmpl   *core.Schedule
}

// Event kinds on the runner's queue.
const (
	evArrive = iota
	evReneg
	evJump
	evDepart
)

// event is one scheduled occurrence. A renegotiation or a jump carries its
// call's gen at scheduling and is dropped if the gen has moved on; a
// departure happens once per call and is never stale.
type event struct {
	c    *call // nil for an arrival
	gen  int
	kind uint8
}

// runner holds the mutable simulation state.
type runner struct {
	cfg    Config
	q      sim.Queue[event]
	rng    *stats.RNG
	nextID int
	active int     // calls in the system
	R      float64 // total reserved rate

	// integrators
	lastT    float64
	rateInt  float64 // integral of R dt
	callsInt float64 // integral of #calls dt
	attempts int64
	failures int64
	upAtt    int64
	arrivals int64
	blocked  int64
}

// warmupBatches is the number of initial batches Run discards: the first
// batch starts from an empty link.
const warmupBatches = 1

// Run executes the experiment.
func Run(cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	cfg.Schedules = cfg.templates() // an arrival picks from it without allocating
	r := &runner{cfg: cfg, rng: stats.NewRNG(cfg.Seed)}
	r.scheduleArrival()

	batchDur := cfg.batchDurationSec()
	var res Result
	var failAcc, utilAcc, callsAcc stats.Accumulator

	totalBatches := warmupBatches + cfg.MaxBatches
	for b := 0; b < totalBatches; b++ {
		// Snapshot counters, run one batch, and diff.
		a0, f0, u0 := r.attempts, r.failures, r.upAtt
		arr0, bl0 := r.arrivals, r.blocked
		ri0, ci0 := r.rateInt, r.callsInt

		horizon := float64(b+1) * batchDur
		for r.q.Len() > 0 && r.q.Next() <= horizon {
			r.handle(r.q.Pop())
		}
		r.flushIntegrals(horizon)

		if b < warmupBatches {
			continue
		}
		att := r.attempts - a0
		fail := r.failures - f0
		var failSample float64
		if att > 0 {
			failSample = float64(fail) / float64(att)
		}
		failAcc.Add(failSample)
		utilAcc.Add((r.rateInt - ri0) / (cfg.Capacity * batchDur))
		callsAcc.Add((r.callsInt - ci0) / batchDur)
		res.Attempts += att
		res.Failures += fail
		res.UpAttempts += r.upAtt - u0
		res.Arrivals += r.arrivals - arr0
		res.Blocked += r.blocked - bl0
		res.Batches++

		if res.Batches >= cfg.MinBatches {
			utilDone := utilAcc.Converged(cfg.CIFrac, cfg.MinBatches)
			failDone := failAcc.Converged(cfg.CIFrac, cfg.MinBatches)
			below := cfg.TargetFailure > 0 &&
				failAcc.UpperBelow(cfg.TargetFailure, cfg.MinBatches)
			if below {
				res.ConfidentBelowTarget = true
			}
			if utilDone && (failDone || below) {
				break
			}
		}
	}

	res.FailureProb = failAcc.Mean()
	res.FailureCI = failAcc.CI95HalfWidth()
	res.Utilization = utilAcc.Mean()
	res.UtilizationCI = utilAcc.CI95HalfWidth()
	res.MeanCalls = callsAcc.Mean()
	if res.Arrivals > 0 {
		res.BlockingProb = float64(res.Blocked) / float64(res.Arrivals)
	}
	return res, nil
}

// flushIntegrals accumulates the rate and call-count integrals up to t.
func (r *runner) flushIntegrals(t float64) {
	dt := t - r.lastT
	if dt > 0 {
		r.rateInt += r.R * dt
		r.callsInt += float64(r.active) * dt
		r.lastT = t
	}
}

// handle dispatches one popped event.
func (r *runner) handle(e event) {
	switch {
	case e.kind == evArrive:
		r.arrive()
		r.scheduleArrival()
	case e.kind == evDepart:
		r.depart(e.c)
	case e.gen != e.c.gen: // superseded by a jump, or the call has left
	case e.kind == evReneg:
		r.renegotiate(e.c, e.c.events[e.c.next-1].Rate)
		r.scheduleNext(e.c)
	case e.kind == evJump:
		// The user seeks to a random position: the call renegotiates to
		// that position's rate and follows the schedule from there.
		c := e.c
		c.gen++
		c.events = r.shiftedEvents(c.events, c.tmpl)
		c.next, c.base = 1, r.q.Now()
		r.renegotiate(c, c.events[0].Rate)
		r.scheduleNext(c)
		r.scheduleJump(c)
	}
}

func (r *runner) scheduleArrival() {
	r.q.At(r.q.Now()+r.rng.ExpFloat64(r.cfg.ArrivalRate), event{kind: evArrive})
}

// pickTemplate draws a call's schedule template uniformly.
func (r *runner) pickTemplate() *core.Schedule {
	ts := r.cfg.Schedules
	if len(ts) == 1 {
		return ts[0]
	}
	return ts[r.rng.Intn(len(ts))]
}

// shiftedEvents rotates a template's event list by a uniform random phase,
// yielding the call's renegotiation events relative to its arrival. The
// event at relative time 0 is the call's initial rate request. The result
// reuses dst's storage when it is large enough.
func (r *runner) shiftedEvents(dst []core.Event, sch *core.Schedule) []core.Event {
	dur := sch.DurationSec()
	shiftSlot := r.rng.Intn(sch.Slots)
	shiftSec := float64(shiftSlot) * sch.SlotSeconds
	out := slices.Grow(dst[:0], len(sch.Segments)+1)
	out = append(out, core.Event{TimeSec: 0, Rate: sch.RateAt(shiftSlot)})
	for _, seg := range sch.Segments {
		// The conversion rounds the product on its own, never fused.
		t := float64(float64(seg.StartSlot)*sch.SlotSeconds) - shiftSec
		if t <= 0 {
			t += dur
		}
		if t >= dur {
			continue
		}
		out = append(out, core.Event{TimeSec: t, Rate: seg.Rate})
	}
	slices.SortFunc(out, func(a, b core.Event) int { return cmp.Compare(a.TimeSec, b.TimeSec) })
	// Drop consecutive equal rates created by the wrap.
	dedup := out[:1]
	for _, e := range out[1:] {
		if e.Rate != dedup[len(dedup)-1].Rate {
			dedup = append(dedup, e)
		}
	}
	return dedup
}

func (r *runner) arrive() {
	now := r.q.Now()
	r.arrivals++
	tmpl := r.pickTemplate()
	events := r.shiftedEvents(nil, tmpl)
	initRate := events[0].Rate
	// Admission: the controller's statistical test plus the hard capacity
	// check on the initial rate.
	if !r.cfg.Controller.Admit(now, initRate) || r.R+initRate > r.cfg.Capacity {
		r.blocked++
		return
	}
	r.flushIntegrals(now)
	c := &call{id: r.nextID, rate: initRate, events: events, next: 1, base: now, tmpl: tmpl}
	r.nextID++
	r.active++
	r.R += initRate
	r.cfg.Controller.OnAdmit(c.id, now, initRate)
	r.scheduleNext(c)
	r.q.At(now+tmpl.DurationSec(), event{c: c, kind: evDepart})
	if r.cfg.JumpRate > 0 {
		r.scheduleJump(c)
	}
}

// scheduleNext arms the call's next renegotiation, if its schedule has one.
func (r *runner) scheduleNext(c *call) {
	if c.next >= len(c.events) {
		return
	}
	r.q.At(c.base+c.events[c.next].TimeSec, event{c: c, gen: c.gen, kind: evReneg})
	c.next++
}

// scheduleJump arms the call's next interactivity event.
func (r *runner) scheduleJump(c *call) {
	r.q.At(r.q.Now()+r.rng.ExpFloat64(r.cfg.JumpRate), event{c: c, gen: c.gen, kind: evJump})
}

// renegotiate applies one schedule event: decreases always succeed;
// increases succeed if capacity allows, otherwise the call settles for
// whatever bandwidth remains (Section III-A.1) and the request counts as a
// failure.
func (r *runner) renegotiate(c *call, requested float64) {
	now := r.q.Now()
	r.attempts++
	granted := requested
	if requested > c.rate {
		r.upAtt++
		avail := r.cfg.Capacity - r.R
		if requested-c.rate > avail {
			r.failures++
			granted = c.rate + avail
		}
	}
	if granted == c.rate {
		return
	}
	r.flushIntegrals(now)
	r.R += granted - c.rate
	r.cfg.Controller.OnRateChange(c.id, now, c.rate, granted)
	c.rate = granted
}

func (r *runner) depart(c *call) {
	now := r.q.Now()
	r.flushIntegrals(now)
	r.R -= c.rate
	if r.R < 0 {
		r.R = 0
	}
	r.active--
	c.gen++ // its pending renegotiation and jump are stale
	r.cfg.Controller.OnDepart(c.id, now, c.rate)
}

// OfferedLoad converts a normalized offered load (offered bandwidth over
// link capacity, the x-axis of Figs. 7 and 8) into the Poisson arrival rate
// for calls with the given mean rate and duration.
func OfferedLoad(normalized, capacity, callMeanRate, callDurSec float64) float64 {
	if !(normalized > 0 && capacity > 0 && callMeanRate > 0 && callDurSec > 0) {
		panic("callsim: OfferedLoad arguments must be positive")
	}
	return normalized * capacity / (callMeanRate * callDurSec)
}
