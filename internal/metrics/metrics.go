// Package metrics is a lightweight, allocation-conscious instrumentation
// registry for the RCBR data and signaling planes. It provides three
// instrument kinds — monotone counters, float gauges, and fixed-bucket
// histograms — all built on atomics so the hot paths (per-RM-cell switch
// work, per-datagram signaling) never take a lock to record an observation.
//
// Design rules:
//
//   - Instruments are looked up (or created) once, by name, and cached by
//     the instrumented component; the per-observation path is a single
//     atomic operation with no map access and no allocation.
//   - Every instrument method is safe on a nil receiver and does nothing,
//     so components instrument unconditionally and pay one predictable
//     branch when metrics are disabled instead of threading conditionals
//     through their logic. Likewise a nil *Registry hands out nil
//     instruments.
//   - A count that a component already keeps in its own ledger is not
//     incremented a second time: CounterFunc publishes it as a view the
//     registry evaluates when it is read.
//   - Snapshot returns plain structs/maps (JSON-ready), decoupled from the
//     live instruments, so exposition (HTTP endpoints, end-of-run dumps)
//     never perturbs the measured system beyond the atomic loads.
//
// The event-trace side of observability (per-VC lifecycle rings) lives in
// eventlog.go.
package metrics

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// processStart anchors Nanotime. time.Now stamps it with a monotonic reading,
// so time.Since(processStart) is one monotonic clock read and a subtraction —
// no wall-clock read, and no step when the wall clock is set.
var processStart = time.Now()

// Nanotime is the repository's one clock for measuring and for ordering:
// monotonic nanoseconds since the process started. The control path reads it
// once per operation and hands the reading down (see switchfab) instead of
// asking again; wall-clock stamps meant for people (Event.Time,
// Snapshot.TakenAt) are the only other time reads.
func Nanotime() int64 { return int64(time.Since(processStart)) }

// Counter is a monotonically increasing int64. The zero value is ready to
// use; a nil Counter ignores updates and reads as zero.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds delta (which should be non-negative for a counter).
func (c *Counter) Add(delta int64) {
	if c == nil {
		return
	}
	c.v.Add(delta)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous float64 value (e.g. reserved bandwidth on a
// port). The zero value is ready to use; a nil Gauge ignores updates and
// reads as zero.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add atomically adds delta to the gauge.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets defined by ascending
// upper bounds; observations above the last bound land in an implicit
// overflow bucket. The sum is tracked alongside so means are recoverable; the
// count is the buckets' total. A nil Histogram ignores observations.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; immutable after creation
	buckets []atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-updated
}

// NewHistogram builds a histogram from ascending upper bounds. Bounds are
// copied and sorted defensively.
func NewHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{
		bounds:  bs,
		buckets: make([]atomic.Int64, len(bs)+1),
	}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Buckets are few (typically 8-16): linear scan beats binary search on
	// branch prediction and stays allocation-free.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since start, a Nanotime reading.
// A nil histogram reads no clock.
func (h *Histogram) ObserveSince(start int64) {
	if h == nil {
		return
	}
	h.Observe(time.Duration(Nanotime() - start).Seconds())
}

// Count returns the number of observations: the buckets' total.
func (h *Histogram) Count() (n int64) {
	if h == nil {
		return 0
	}
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// ExpBuckets returns n ascending bounds starting at start, each factor times
// the previous: the usual shape for latency histograms.
func ExpBuckets(start, factor float64, n int) []float64 {
	if n <= 0 || start <= 0 || factor <= 1 {
		return nil
	}
	bs := make([]float64, n)
	v := start
	for i := range bs {
		bs[i] = v
		v *= factor
	}
	return bs
}

// DefBuckets are default latency bounds in seconds: 100µs to ~13s.
var DefBuckets = ExpBuckets(100e-6, 2, 17)

// FastBuckets are latency bounds in seconds for operations that take well
// under DefBuckets' first bound: 100ns to ~0.84s, so an in-switch
// renegotiation (under 1µs) and a loopback round trip (tens of µs) each
// land past the first bucket. The switch's renegotiation histogram and the
// signaling client's round-trip histogram share them.
var FastBuckets = ExpBuckets(100e-9, 2, 24)

// Registry is a named collection of instruments. Lookup/creation takes a
// lock; recording through the returned instrument does not. All methods are
// safe for concurrent use, and safe on a nil *Registry (which hands out nil,
// no-op instruments).
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	views      map[string][]func() int64
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		views:      make(map[string][]func() int64),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// CounterFunc registers a view counter: a count some component already
// keeps in its own ledger, which fn reads when the registry is read
// (Snapshot, /metrics) instead of the component incrementing a second
// counter per event. Views that share a name — and a plain Counter of that
// name, if one exists — read as their sum, so several components publishing
// into one registry add up as they would on a shared Counter. fn runs under
// the registry's read lock: it must be safe for concurrent use and must not
// call back into the registry.
func (r *Registry) CounterFunc(name string, fn func() int64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.views[name] = append(r.views[name], fn)
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bounds
// on first use. Later calls return the existing instrument regardless of
// bounds.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.histograms[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.histograms[name]; h == nil {
		h = NewHistogram(bounds)
		r.histograms[name] = h
	}
	return h
}

// HistogramSnapshot is a point-in-time copy of one histogram.
type HistogramSnapshot struct {
	// Bounds are the ascending bucket upper bounds.
	Bounds []float64 `json:"bounds"`
	// Counts has len(Bounds)+1 entries; the last is the overflow bucket.
	Counts []int64 `json:"counts"`
	// Count and Sum cover every observation.
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
}

// Mean returns the mean observation, or 0 with no observations.
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Snapshot is a point-in-time copy of every instrument in a registry: plain
// data, safe to marshal or retain.
type Snapshot struct {
	TakenAt    time.Time                    `json:"taken_at"`
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures every instrument. A nil registry yields an empty
// (non-nil-mapped) snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		TakenAt:    time.Now(),
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	if r == nil {
		return s
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, fns := range r.views {
		for _, fn := range fns {
			s.Counters[name] += fn()
		}
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		hs := HistogramSnapshot{
			Bounds: append([]float64(nil), h.bounds...),
			Counts: make([]int64, len(h.buckets)),
			Sum:    math.Float64frombits(h.sumBits.Load()),
		}
		for i := range h.buckets {
			hs.Counts[i] = h.buckets[i].Load()
			hs.Count += hs.Counts[i]
		}
		s.Histograms[name] = hs
	}
	return s
}
