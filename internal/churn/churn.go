// Package churn drives call-scale load against a live switchfab.Switch: a
// multi-class call generator — CBR and VBR classes with exponential
// interarrival and holding times, VBR calls renegotiating among their
// bandwidth levels — in the style of a network-slicing traffic model. It is
// the workload behind the "million concurrent VCs with ongoing
// setup/teardown churn" target: many workers, each an independent
// event-driven generator over its own slice of the VCID space, all hitting
// one shared switch concurrently.
//
// A run has two phases. The ramp phase admits calls (processing the
// departures that come due along the way) until the target population is
// reached; the churn phase then holds the system in equilibrium — arrivals
// at rate population/E[hold] balancing departures — for a fixed budget of
// call events. Virtual time (the arrival/holding/renegotiation processes)
// advances as fast as the switch can process events; each phase's wall time
// is reported. Run builds the switch on one virtual clock, the furthest time
// any worker has reached, so an admitter weighs call histories on the calls'
// own time, and with one worker a seed fixes the run.
package churn

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"rcbr/internal/sim"
	"rcbr/internal/stats"
	"rcbr/internal/switchfab"
)

// Class is one traffic class of the generator.
type Class struct {
	// Name labels the class in reports.
	Name string
	// Weight is the class's share of arrivals (relative; the weights need
	// not sum to one).
	Weight float64
	// Levels are the class's bandwidth levels in bits/second, ascending.
	// CBR classes have exactly one; VBR classes enter at a random level and
	// renegotiate uniformly among them.
	Levels []float64
	// MeanHold is the mean call holding time in virtual seconds.
	MeanHold float64
	// MeanReneg is the mean virtual time between renegotiations of a VBR
	// call; zero (CBR) disables renegotiation.
	MeanReneg float64
}

// defaultClasses is a two-class mix: a 90% share of 64 kb/s CBR voice and a
// 10% share of VBR video renegotiating across 0.5–4 Mb/s, the shape of the
// paper's Section VI workload at slice scale.
func defaultClasses() []Class {
	return []Class{
		{Name: "voice-cbr", Weight: 0.9, Levels: []float64{64e3}, MeanHold: 180},
		{Name: "video-vbr", Weight: 0.1, Levels: []float64{512e3, 1e6, 2e6, 4e6}, MeanHold: 600, MeanReneg: 5},
	}
}

// levelSet returns the union of the classes' bandwidth levels, ascending —
// the level set a measurement-based admitter over this workload needs.
func levelSet(classes []Class) []float64 {
	var out []float64
	for _, c := range classes {
		out = append(out, c.Levels...)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// Config parameterizes a Run.
type Config struct {
	// Ports is the number of the switch's ports, calls striped over them.
	Ports int
	// PortCapacity is every port's capacity in bits/second.
	PortCapacity float64
	// Target is the memory-based admitter's target renegotiation-failure
	// probability, in (0, 1); 0 runs no admission control beyond capacity.
	Target float64
	// Classes is the traffic mix; nil selects defaultClasses.
	Classes []Class
	// TargetVCs is the concurrent-call population the ramp phase aims for.
	TargetVCs int
	// Workers is the number of concurrent generator goroutines; 0 selects
	// GOMAXPROCS.
	Workers int
	// ChurnEvents is the total call-event budget (arrivals, departures, and
	// renegotiations) of the churn phase, split across workers.
	ChurnEvents int
	// Seed seeds the generators (split per worker).
	Seed uint64
	// Drain tears every remaining call down after the churn phase; the run
	// fails unless no VC, reservation or admitted call is left.
	Drain bool
	// observe, when set, sees every switch operation and the clock at it.
	observe func(kind uint8, id switchfab.VCID, rate float64, ok bool, now int64)
}

// Result reports one churn run.
type Result struct {
	// RampedVCs is the concurrent population when the ramp phase ended;
	// FinalVCs the population when the churn phase ended (before any
	// drain). A RampedVCs short of the target means admission blocked the
	// ramp within its attempt budget.
	RampedVCs int `json:"ramped_vcs"`
	FinalVCs  int `json:"final_vcs"`
	// Setups..RenegDenials count the switch operations the generator
	// performed (Blocked = setups denied by capacity or admission).
	Setups       int64 `json:"setups"`
	Blocked      int64 `json:"blocked"`
	Teardowns    int64 `json:"teardowns"`
	Renegs       int64 `json:"renegs"`
	RenegDenials int64 `json:"reneg_denials"`
	// RampWall and ChurnWall are the wall-clock phase durations.
	RampWall  time.Duration `json:"ramp_wall_ns"`
	ChurnWall time.Duration `json:"churn_wall_ns"`
	// BytesPerVC is the heap growth across the ramp phase divided by the
	// calls admitted — switch state plus generator bookkeeping — measured
	// after a forced GC on each side.
	BytesPerVC float64 `json:"bytes_per_vc"`
}

// event kinds on a worker's virtual-time queue, and the unqueued evSetup.
const (
	evDepart = iota
	evReneg
	evSetup
)

// wev is one scheduled virtual-time event of a worker; the queue holds its
// due time.
type wev struct {
	id      switchfab.VCID
	kind    uint8
	class   uint8   // index into Config.Classes: Run allows at most 256
	departT float64 // the owning call's departure time (staleness guard)
}

// worker is one independent generator: its own RNG, its own slice of the
// VCID space (ids ≡ index mod workers), its own event queue.
type worker struct {
	cfg     *Config
	sw      *switchfab.Switch
	clock   *atomic.Int64 // the run's virtual clock, the switch's
	index   int
	workers int
	rng     *stats.RNG
	weights []float64

	q        sim.Queue[wev]
	now      float64 // virtual seconds, the last arrival or popped event; set by at
	active   int
	next     uint32 // next fresh id (pre-stride)
	freelist []switchfab.VCID

	target int // ramp target population for this worker
	lambda float64

	setups, blocked, teardowns, renegs, renegDenied int64
	err                                             error
}

// at moves the worker's virtual time to t, and the run's clock — the
// furthest time any worker has reached — with it.
func (w *worker) at(t float64) {
	w.now = t
	ns := int64(t * 1e9)
	for cur := w.clock.Load(); ns > cur; cur = w.clock.Load() {
		if w.clock.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// observe hands one switch operation to Config.observe, when it is set.
func (w *worker) observe(kind uint8, id switchfab.VCID, rate float64, ok bool) {
	if w.cfg.observe != nil {
		w.cfg.observe(kind, id, rate, ok, w.clock.Load())
	}
}

// newID returns an unused VCID owned by this worker, or false when the
// 24-bit space is exhausted.
func (w *worker) newID() (switchfab.VCID, bool) {
	if n := len(w.freelist); n > 0 {
		id := w.freelist[n-1]
		w.freelist = w.freelist[:n-1]
		return id, true
	}
	raw := uint64(w.next)*uint64(w.workers) + uint64(w.index)
	if raw >= 1<<24 {
		return 0, false
	}
	w.next++
	return switchfab.VCID(raw), true
}

// arrive attempts one call arrival at the current virtual time.
func (w *worker) arrive() {
	id, ok := w.newID()
	if !ok {
		w.err = fmt.Errorf("churn: VCID space exhausted (worker %d)", w.index)
		return
	}
	ci := w.rng.Pick(w.weights)
	cl := &w.cfg.Classes[ci]
	rate := cl.Levels[w.rng.Intn(len(cl.Levels))]
	port := int(id) % w.cfg.Ports
	err := w.sw.SetupID(id, port, rate)
	w.observe(evSetup, id, rate, err == nil)
	if err != nil {
		w.freelist = append(w.freelist, id)
		if switchfab.IsReject(err) {
			w.blocked++
			return
		}
		w.err = err
		return
	}
	w.setups++
	w.active++
	departT := w.now + w.rng.ExpFloat64(1/cl.MeanHold)
	w.q.At(departT, wev{id: id, kind: evDepart, class: uint8(ci), departT: departT})
	if cl.MeanReneg > 0 {
		if t := w.now + w.rng.ExpFloat64(1/cl.MeanReneg); t < departT {
			w.q.At(t, wev{id: id, kind: evReneg, class: uint8(ci), departT: departT})
		}
	}
}

// fire processes one due event from the queue.
func (w *worker) fire(e wev) {
	switch e.kind {
	case evDepart:
		if err := w.sw.TeardownID(e.id); err != nil {
			w.err = err
			return
		}
		w.observe(evDepart, e.id, 0, true)
		w.teardowns++
		w.active--
		w.freelist = append(w.freelist, e.id)
	case evReneg:
		cl := &w.cfg.Classes[e.class]
		want := cl.Levels[w.rng.Intn(len(cl.Levels))]
		_, ok, err := w.sw.RenegotiateID(e.id, want)
		if err != nil {
			w.err = err
			return
		}
		w.observe(evReneg, e.id, want, ok)
		w.renegs++
		if !ok {
			w.renegDenied++
		}
		if t := w.now + w.rng.ExpFloat64(1/cl.MeanReneg); t < e.departT {
			w.q.At(t, wev{id: e.id, kind: evReneg, class: e.class, departT: e.departT})
		}
	}
}

// drainDue fires every event due at or before the current virtual time.
func (w *worker) drainDue() {
	for w.q.Len() > 0 && w.q.Next() <= w.now && w.err == nil {
		w.fire(w.q.Pop())
	}
}

// ramp admits calls until the worker's share of the target population is
// active. Arrivals during ramp are paced at 5x the equilibrium rate so the
// admitter sees a plausible (if compressed) history; the attempt budget
// bounds the phase when admission control refuses to fill the target.
func (w *worker) ramp() {
	attempts := 0
	budget := 10*w.target + 100
	rampLambda := 5 * w.lambda
	for w.active < w.target && attempts < budget && w.err == nil {
		w.at(w.now + w.rng.ExpFloat64(rampLambda))
		w.drainDue()
		if w.err != nil {
			return
		}
		w.arrive()
		attempts++
	}
}

// churn holds the population in equilibrium for n call events.
func (w *worker) churn(n int) {
	for i := 0; i < n && w.err == nil; i++ {
		t := w.now + w.rng.ExpFloat64(w.lambda)
		if w.q.Len() > 0 && w.q.Next() <= t {
			// The next scheduled event beats the arrival: fire it and
			// re-anchor virtual time to it so event counts, not wall
			// time, bound the loop.
			e := w.q.Pop()
			w.at(w.q.Now())
			w.fire(e)
			continue
		}
		w.at(t)
		w.arrive()
	}
}

// drain tears down every remaining active call.
func (w *worker) drain() {
	for w.q.Len() > 0 && w.err == nil {
		e := w.q.Pop()
		if e.kind != evDepart {
			continue
		}
		w.at(w.q.Now())
		w.fire(e)
	}
}

// Run builds the switch and executes a churn run against it. Worker errors
// (anything beyond a capacity or admission denial, which are counted, not
// fatal) abort the run, and so does a drain that leaves anything behind.
func Run(cfg Config) (Result, error) {
	if cfg.Ports <= 0 {
		return Result{}, fmt.Errorf("churn: no ports")
	}
	if cfg.TargetVCs <= 0 {
		return Result{}, fmt.Errorf("churn: target population %d", cfg.TargetVCs)
	}
	if cfg.ChurnEvents < 0 {
		return Result{}, fmt.Errorf("churn: negative call-event budget %d", cfg.ChurnEvents)
	}
	if cfg.Classes == nil {
		cfg.Classes = defaultClasses()
	}
	positive := func(x float64) bool { return x > 0 && !math.IsInf(x, 1) } // and finite
	var meanHold, wsum float64
	for i, c := range cfg.Classes {
		if i > math.MaxUint8 {
			return Result{}, fmt.Errorf("churn: class %q is number %d; an event indexes at most %d", c.Name, i+1, math.MaxUint8+1)
		}
		if len(c.Levels) == 0 || !positive(c.Weight) || !positive(c.MeanHold) || c.MeanReneg != 0 && !positive(c.MeanReneg) {
			return Result{}, fmt.Errorf("churn: class %q needs levels, a positive finite weight and holding time, and a renegotiation time that is zero or positive and finite", c.Name)
		}
		meanHold += c.Weight * c.MeanHold
		wsum += c.Weight
	}
	meanHold /= wsum
	var ad *switchfab.MemoryAdmitter
	if cfg.Target != 0 {
		var err error
		if ad, err = switchfab.NewMemoryAdmitter(levelSet(cfg.Classes), cfg.Target); err != nil {
			return Result{}, fmt.Errorf("churn: %w", err)
		}
	}
	var clock atomic.Int64 // virtual nanoseconds
	sw := switchfab.New(switchfab.WithClock(clock.Load), switchfab.WithAdmitter(ad))
	for p := 0; p < cfg.Ports; p++ {
		if err := sw.AddPort(p, cfg.PortCapacity); err != nil {
			return Result{}, fmt.Errorf("churn: %w", err)
		}
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > cfg.TargetVCs {
		workers = cfg.TargetVCs
	}
	weights := make([]float64, len(cfg.Classes))
	for i, c := range cfg.Classes {
		weights[i] = c.Weight
	}
	root := stats.NewRNG(cfg.Seed)
	ws := make([]*worker, workers)
	for i := range ws {
		target := cfg.TargetVCs / workers
		if i < cfg.TargetVCs%workers {
			target++
		}
		ws[i] = &worker{
			cfg:     &cfg,
			sw:      sw,
			clock:   &clock,
			index:   i,
			workers: workers,
			rng:     root.Split(),
			weights: weights,
			target:  target,
			lambda:  float64(target) / meanHold,
		}
	}

	runPhase := func(f func(*worker)) {
		var wg sync.WaitGroup
		for _, w := range ws {
			wg.Add(1)
			go func(w *worker) {
				defer wg.Done()
				f(w)
			}(w)
		}
		wg.Wait()
	}

	var res Result
	heapBefore := heapInUse()
	start := time.Now()
	runPhase((*worker).ramp)
	res.RampWall = time.Since(start)
	res.RampedVCs = sw.VCCount()
	if res.RampedVCs > 0 {
		res.BytesPerVC = float64(heapInUse()-heapBefore) / float64(res.RampedVCs)
	}

	start = time.Now()
	runPhase(func(w *worker) {
		n := cfg.ChurnEvents / workers
		if w.index < cfg.ChurnEvents%workers {
			n++
		}
		w.churn(n)
	})
	res.ChurnWall = time.Since(start)
	res.FinalVCs = sw.VCCount()

	if cfg.Drain {
		runPhase((*worker).drain)
	}

	for _, w := range ws {
		if w.err != nil {
			return res, w.err
		}
		res.Setups += w.setups
		res.Blocked += w.blocked
		res.Teardowns += w.teardowns
		res.Renegs += w.renegs
		res.RenegDenials += w.renegDenied
	}
	for p := 0; cfg.Drain && p < cfg.Ports; p++ {
		if reserved, _, _ := sw.PortLoad(p); reserved != 0 || ad != nil && ad.PortCalls(p) != 0 {
			return res, fmt.Errorf("churn: drain left port %d holding %g b/s or admitted calls", p, reserved)
		}
	}
	if n := sw.VCCount(); cfg.Drain && n != 0 {
		return res, fmt.Errorf("churn: drain left %d VCs in the fabric", n)
	}
	return res, nil
}

// heapInUse returns the live-heap figure after a forced collection, so two
// readings subtract into retained bytes rather than garbage.
func heapInUse() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapInuse
}
