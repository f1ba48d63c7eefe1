// Package trellis computes the optimal offline renegotiation schedule of
// Section IV-A of the RCBR paper: given a frame-size trace, a finite set of
// bandwidth levels, a source buffer, and the cost model
//
//	J = alpha * #renegotiations + beta * sum_t c_t * slot
//
// it finds the cost-minimal piecewise-CBR service schedule subject to the
// buffer (or delay) constraint, via a Viterbi-like shortest path over the
// (time, rate, buffer occupancy) trellis of Fig. 1.
//
// The state space is kept tractable by the paper's Lemma 1: a path through
// node (c, b, w) is dominated if some node (c', b', w') exists with b' <= b
// and w' + alpha*1{c != c'} <= w. Within one rate this is Pareto pruning over
// (buffer, weight); across rates it adds the alpha offset. Both prunings are
// exact — the returned schedule is optimal — and both can be disabled
// individually for the ablation benchmarks.
//
// Implementation notes: surviving states are plain values; only renegotiation
// events are heap-allocated, so a path's backtracking chain is one node per
// segment rather than one per slot. All per-slot scratch (frontiers, the
// merged global frontier, merge cursors) lives in a pooled arena reused
// across Optimize calls, so steady-state slots allocate no frontier entries.
// Optimize is serial; callers with many grid points to solve run them side
// by side instead (experiments.Sweep, DESIGN.md §10).
package trellis

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"rcbr/internal/core"
	"rcbr/internal/trace"
)

// Pruning selects how aggressively the trellis is pruned. All settings yield
// an optimal schedule; they differ only in state-space size and runtime.
type Pruning int

const (
	// PruneFull applies the complete Lemma 1: Pareto pruning within each
	// rate plus alpha-offset domination across rates. The default.
	PruneFull Pruning = iota
	// PruneSameRate applies only the within-rate Pareto pruning (the
	// standard Viterbi pruning strengthened to the continuous buffer).
	PruneSameRate
	// PruneExact deduplicates only exactly identical (rate, buffer) states,
	// the textbook Viterbi rule. Exponentially larger frontiers; useful
	// only for tiny ablation instances.
	PruneExact
)

// Options configures the optimization.
type Options struct {
	// Levels is the set of allowed service rates in bits/second, ascending.
	Levels []float64
	// BufferBits is the source buffer B. The buffer constraint (eq. 2) is
	// q_t <= BufferBits for all t.
	BufferBits float64
	// DelayBoundSlots, when positive, additionally enforces the delay bound
	// of eq. (5): all data entering during slot t has left by the end of
	// slot t + DelayBoundSlots. This is equivalent to the time-varying cap
	// q_t <= (arrivals during the last DelayBoundSlots slots), which the
	// optimizer precomputes.
	DelayBoundSlots int
	// Cost is the pricing model (alpha per renegotiation, beta per bit).
	Cost core.CostModel
	// Pruning selects the pruning rule; zero value is PruneFull.
	Pruning Pruning
	// BufferGridBits, when positive, quantizes buffer occupancies up to the
	// nearest multiple of this grid. Rounding up is conservative: any
	// schedule found remains feasible for the true dynamics, at the cost of
	// a slightly pessimistic occupancy estimate. Quantization bounds the
	// frontier size and is what makes full-length trace optimizations with
	// expensive renegotiation tractable; zero keeps the exact continuous
	// buffer.
	BufferGridBits float64
	// RequireDrained, when set, accepts only schedules whose final buffer
	// occupancy is at most FinalSlackBits — i.e. all data is actually
	// delivered by the end of the session. The paper's formulation has no
	// terminal constraint, which lets the optimizer "park" up to B bits in
	// the buffer forever to shave beta cost; stored-video players want the
	// buffer drained.
	RequireDrained bool
	// FinalSlackBits is the terminal occupancy allowance under
	// RequireDrained.
	FinalSlackBits float64
}

// Stats reports the work done by the optimizer.
type Stats struct {
	NodesExpanded int64   // candidate states generated
	MaxFrontier   int     // largest per-slot surviving state count
	Cost          float64 // optimal total cost
}

// ErrInfeasible is returned when no schedule over the given levels satisfies
// the buffer or delay constraint.
var ErrInfeasible = errors.New("trellis: no feasible schedule (peak level too low for buffer)")

// event records one renegotiation (or the initial setup) on a path; parent
// chains are shared between paths and garbage collected when paths die.
type event struct {
	slot   int32
	rate   int32
	parent *event
}

// entry is one surviving trellis state at the current slot: buffer occupancy
// b and path weight w, with rate the level index in force and ev the most
// recent *materialized* renegotiation event of its path. A candidate that
// just switched rates carries its parent's event (ev.rate != rate) until the
// end-of-slot materialize pass; switch candidates that die within their slot
// (cross-rate pruning) therefore never allocate an event node.
type entry struct {
	b    float64
	w    float64
	ev   *event
	rate int32
}

// optimizer holds every scratch buffer an Optimize call needs: the per-rate
// double-buffered frontiers, the merged global frontier and the K-way merge
// cursors. Instances are pooled so sweeps that call Optimize in a loop reach
// a steady state where the frontier machinery allocates nothing; capacities
// are retained across the whole call (and across calls), fixing the per-slot
// regrowth the sort-based merge caused.
type optimizer struct {
	fronts, spare [][]entry // per-rate frontiers: ascending b, descending w
	merged        []entry   // global Pareto merge output
	cursor        []int     // K-way merge cursors
	heap          []int32   // rate-index min-heap of the K-way merge
	drain         []float64 // bits per slot at each level
	slotCost      []float64 // beta cost of one slot at each level
	nodes         int64     // NodesExpanded
}

var optPool = sync.Pool{New: func() any { return new(optimizer) }}

// getOptimizer returns a pooled optimizer sized for K rate levels.
func getOptimizer(k int) *optimizer {
	o := optPool.Get().(*optimizer)
	o.fronts = sizeFrontiers(o.fronts, k)
	o.spare = sizeFrontiers(o.spare, k)
	if cap(o.cursor) < k {
		o.cursor = make([]int, k)
		o.heap = make([]int32, k)
		o.drain = make([]float64, k)
		o.slotCost = make([]float64, k)
	}
	o.cursor = o.cursor[:k]
	o.drain = o.drain[:k]
	o.slotCost = o.slotCost[:k]
	o.nodes = 0
	return o
}

func sizeFrontiers(f [][]entry, k int) [][]entry {
	for len(f) < k {
		f = append(f, nil)
	}
	return f[:k]
}

// release returns the optimizer to the pool. Event pointers are cleared up
// to capacity so pooled buffers do not pin dead path chains.
func (o *optimizer) release() {
	for i := range o.fronts {
		clear(o.fronts[i][:cap(o.fronts[i])])
		clear(o.spare[i][:cap(o.spare[i])])
	}
	clear(o.merged[:cap(o.merged)])
	optPool.Put(o)
}

// Optimize computes the optimal renegotiation schedule for the trace under
// the options. The first segment's rate choice is free (call setup); each
// later rate change costs alpha.
func Optimize(tr *trace.Trace, opt Options) (*core.Schedule, Stats, error) {
	var st Stats
	if err := validateOptions(tr, opt); err != nil {
		return nil, st, err
	}
	slotSec := tr.SlotSeconds()
	K := len(opt.Levels)
	o := getOptimizer(K)
	defer o.release()
	for k, r := range opt.Levels {
		o.drain[k] = r * slotSec
		o.slotCost[k] = opt.Cost.Beta * r * slotSec
	}
	caps := bufferCaps(tr, opt)
	if err := checkFeasible(tr, o.drain[K-1], caps); err != nil {
		return nil, st, err
	}

	run := &slotRun{o: o, opt: &opt}
	for t := 0; t < tr.Len(); t++ {
		run.t = int32(t)
		run.a = float64(tr.FrameBits[t])
		run.bcap = caps[t]
		if t > 0 {
			run.global = o.mergeGlobal(opt.Pruning)
		} else {
			run.global = nil
		}
		for k := 0; k < K; k++ {
			run.advanceRate(k)
		}
		o.fronts, o.spare = o.spare, o.fronts
		var total int
		for k := range o.fronts {
			total += len(o.fronts[k])
		}
		if total == 0 {
			return nil, st, fmt.Errorf("%w: stuck at slot %d", ErrInfeasible, t)
		}
		if opt.Pruning == PruneFull {
			total = o.crossPrune(opt.Cost.Alpha)
		}
		if total > st.MaxFrontier {
			st.MaxFrontier = total
		}
		o.materialize(int32(t))
	}
	st.NodesExpanded = o.nodes

	best, ok := bestEntry(o.fronts, opt)
	if !ok {
		if opt.RequireDrained {
			return nil, st, fmt.Errorf("%w: no schedule drains the buffer to %g bits",
				ErrInfeasible, opt.FinalSlackBits)
		}
		return nil, st, ErrInfeasible
	}
	st.Cost = best.w
	return buildSchedule(best.ev, tr.Len(), slotSec, opt.Levels), st, nil
}

// slotRun carries one slot's inputs to advanceRate: the slot index, its
// arrival and occupancy cap, and the previous slot's merged global frontier.
type slotRun struct {
	o      *optimizer
	opt    *Options
	t      int32
	a      float64
	bcap   float64
	global []entry
}

// advanceRate computes destination rate k's next frontier into the spare
// buffer, reading the previous slot's frontiers.
func (r *slotRun) advanceRate(k int) {
	o := r.o
	out := o.spare[k][:0]
	if r.t == 0 {
		b := clampQuantize(r.a-o.drain[k], r.opt.BufferGridBits)
		if b <= r.bcap {
			out = append(out, entry{
				b: b, w: o.slotCost[k], rate: int32(k),
				ev: &event{slot: 0, rate: int32(k)},
			})
			o.nodes++
		}
	} else {
		out = advance(out, o.fronts[k], r.global, r.a,
			o.drain[k], o.slotCost[k], r.opt.Cost.Alpha, r.bcap,
			r.opt.BufferGridBits, int32(k), r.opt.Pruning, &o.nodes)
	}
	o.spare[k] = out
}

// buildSchedule converts an event chain into a core.Schedule.
func buildSchedule(ev *event, slots int, slotSec float64, levels []float64) *core.Schedule {
	var rev []*event
	for e := ev; e != nil; e = e.parent {
		rev = append(rev, e)
	}
	segs := make([]core.Segment, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		e := rev[i]
		seg := core.Segment{StartSlot: int(e.slot), Rate: levels[e.rate]}
		// Defensive merge: consecutive events with equal rates collapse
		// (cannot happen for alpha > 0 optimal paths, but alpha == 0 paths
		// may switch to the same rate at zero cost).
		if n := len(segs); n > 0 && segs[n-1].Rate == seg.Rate {
			continue
		}
		segs = append(segs, seg)
	}
	return &core.Schedule{Segments: segs, Slots: slots, SlotSeconds: slotSec}
}

func validateOptions(tr *trace.Trace, opt Options) error {
	if tr.Len() == 0 {
		return fmt.Errorf("trellis: empty trace")
	}
	if len(opt.Levels) == 0 {
		return fmt.Errorf("trellis: no bandwidth levels")
	}
	for i, r := range opt.Levels {
		if r < 0 || math.IsNaN(r) {
			return fmt.Errorf("trellis: level %d = %g is negative", i, r)
		}
		if i > 0 && r <= opt.Levels[i-1] {
			return fmt.Errorf("trellis: levels not strictly ascending at %d", i)
		}
	}
	if opt.BufferBits < 0 {
		return fmt.Errorf("trellis: negative buffer")
	}
	// +Inf is a legal Alpha (never renegotiate); NaN fails both comparisons.
	if !(opt.Cost.Alpha >= 0) || !(opt.Cost.Beta >= 0) {
		return fmt.Errorf("trellis: cost coefficients alpha %g, beta %g are not both non-negative", opt.Cost.Alpha, opt.Cost.Beta)
	}
	if opt.DelayBoundSlots < 0 {
		return fmt.Errorf("trellis: negative delay bound")
	}
	if opt.BufferGridBits < 0 {
		return fmt.Errorf("trellis: negative buffer grid")
	}
	if opt.FinalSlackBits < 0 {
		return fmt.Errorf("trellis: negative final slack")
	}
	return nil
}

// bufferCaps returns the per-slot occupancy cap: B, tightened by the delay
// bound's sliding arrival window when configured.
func bufferCaps(tr *trace.Trace, opt Options) []float64 {
	caps := make([]float64, tr.Len())
	if opt.DelayBoundSlots <= 0 {
		for t := range caps {
			caps[t] = opt.BufferBits
		}
		return caps
	}
	d := opt.DelayBoundSlots
	var window float64
	for t := range caps {
		window += float64(tr.FrameBits[t])
		if t >= d {
			window -= float64(tr.FrameBits[t-d])
		}
		caps[t] = math.Min(opt.BufferBits, window)
	}
	return caps
}

// checkFeasible verifies that running at the top level forever satisfies
// every cap, which is necessary and sufficient for feasibility.
func checkFeasible(tr *trace.Trace, maxDrain float64, caps []float64) error {
	var q float64
	for t := 0; t < tr.Len(); t++ {
		q += float64(tr.FrameBits[t]) - maxDrain
		if q < 0 {
			q = 0
		}
		if q > caps[t] {
			return fmt.Errorf("%w: slot %d needs occupancy %g > cap %g",
				ErrInfeasible, t, q, caps[t])
		}
	}
	return nil
}

// clampQuantize clamps b at zero and, when grid > 0, rounds it up to the
// grid (conservative for the buffer constraint).
func clampQuantize(b, grid float64) float64 {
	if b < 0 {
		return 0
	}
	if grid > 0 {
		return math.Ceil(b/grid-1e-12) * grid
	}
	return b
}

// advance generates the new frontier for destination rate k into out:
// staying candidates from the same-rate frontier plus switching candidates
// (alpha surcharge, fresh event) from the global frontier, Pareto-merged in
// ascending-b order.
func advance(out []entry, same, global []entry, a, drain, slotCost,
	alpha, bcap, grid float64, k int32, pr Pruning, nodes *int64) []entry {

	i, j := 0, 0
	minW := math.Inf(1)
	// The closure captures out/minW by reference on this stack frame; it
	// never escapes advance, so the compiler keeps it heap-free — pinned
	// by TestSteadyStateAllocations.
	push := func(b, w float64, ev *event) {
		*nodes++
		b = clampQuantize(b, grid)
		if b > bcap {
			return
		}
		switch pr {
		case PruneExact:
			if n := len(out); n > 0 && out[n-1].b == b {
				if out[n-1].w <= w {
					return
				}
				out = out[:n-1]
			}
		default:
			if w >= minW {
				return
			}
			if n := len(out); n > 0 && out[n-1].b == b {
				out = out[:n-1]
			}
			minW = w
		}
		// A switching candidate (ev.rate != k) stays unmaterialized: the
		// end-of-slot materialize pass allocates its event node only if it
		// survives the slot's pruning.
		out = append(out, entry{b: b, w: w, ev: ev, rate: k})
	}
	// Both lists are sorted by b ascending; the common shift b+a-drain
	// preserves order, so a two-way merge visits candidates in ascending
	// final b.
	for i < len(same) || j < len(global) {
		var takeSame bool
		switch {
		case j >= len(global):
			takeSame = true
		case i >= len(same):
			takeSame = false
		default:
			takeSame = same[i].b <= global[j].b
		}
		if takeSame {
			e := same[i]
			i++
			push(e.b+a-drain, e.w+slotCost, e.ev)
		} else {
			g := global[j]
			j++
			if g.rate == k {
				// The no-alpha version of this candidate comes from the
				// same-rate list; the alpha version is dominated.
				continue
			}
			push(g.b+a-drain, g.w+slotCost+alpha, g.ev)
		}
	}
	return out
}

// materialize allocates the event node for every entry that switched rates
// this slot and survived pruning; ev.rate != rate marks the pending ones.
// Running after crossPrune means dead switch candidates cost no allocation
// at all, which is what keeps steady-state slots entry- and event-allocation
// free.
func (o *optimizer) materialize(t int32) {
	for k := range o.fronts {
		f := o.fronts[k]
		for i := range f {
			if f[i].ev.rate != f[i].rate {
				f[i].ev = &event{slot: t, rate: f[i].rate, parent: f[i].ev}
			}
		}
	}
}

// mergeGlobal builds the global Pareto frontier across all rates, used as
// the source set for rate-switch candidates. The per-rate frontiers are
// already sorted by b ascending, so a min-heap of per-rate cursors visits
// candidates in (b, w) order, ties broken toward the lower rate index,
// without a sort or per-slot allocations; the Pareto filter folds into the
// same pass. Under PruneExact the merge keeps everything (sorted by b, then
// w) so no cross-rate state is lost.
func (o *optimizer) mergeGlobal(pr Pruning) []entry {
	out := o.merged[:0]
	cur := o.cursor
	h := o.heap[:0]
	for k := range o.fronts {
		cur[k] = 0
		if len(o.fronts[k]) > 0 {
			h = append(h, int32(k))
		}
	}
	o.heap = h
	for i := len(h)/2 - 1; i >= 0; i-- {
		o.heapDown(i)
	}
	minW := math.Inf(1)
	for len(o.heap) > 0 {
		h = o.heap
		k := h[0]
		be := o.fronts[k][cur[k]]
		cur[k]++
		if cur[k] >= len(o.fronts[k]) {
			h[0] = h[len(h)-1]
			o.heap = h[:len(h)-1]
		}
		o.heapDown(0)
		if pr == PruneExact {
			out = append(out, be)
		} else if be.w < minW {
			minW = be.w
			out = append(out, be)
		}
	}
	o.heap = o.heap[:0]
	o.merged = out
	return out
}

// headLess orders two rate lanes by their current head entry: (b, w)
// lexicographically, lower rate index on full ties.
func (o *optimizer) headLess(ki, kj int32) bool {
	a, b := o.fronts[ki][o.cursor[ki]], o.fronts[kj][o.cursor[kj]]
	if a.b != b.b {
		return a.b < b.b
	}
	if a.w != b.w {
		return a.w < b.w
	}
	return ki < kj
}

// heapDown restores the min-heap property from index i.
func (o *optimizer) heapDown(i int) {
	h := o.heap
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		m := l
		if r := l + 1; r < len(h) && o.headLess(h[r], h[l]) {
			m = r
		}
		if !o.headLess(h[m], h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// crossPrune applies the cross-rate half of Lemma 1: an entry (b, w, k) is
// dominated if some entry (b', w', k') has b' <= b and w' + alpha <= w with
// k' != k. For alpha > 0 the self-domination case is impossible; for
// alpha == 0 the comparison is made strict, which keeps every global-Pareto
// member and collapses each frontier onto it (switching is free, so nothing
// off the global frontier can be optimal). It returns the surviving total.
func (o *optimizer) crossPrune(alpha float64) int {
	global := o.mergeGlobal(PruneFull)
	if len(global) == 0 {
		return 0
	}
	total := 0
	for k, f := range o.fronts {
		out := f[:0]
		gi := 0
		bestW := math.Inf(1)
		var bestEv *event
		var bestRate int32 = -1
		for _, e := range f {
			// Advance the global cursor to cover all entries with b <= e.b;
			// weights descend along b, so the last covered is the minimum.
			for gi < len(global) && global[gi].b <= e.b {
				bestW = global[gi].w
				bestEv = global[gi].ev
				bestRate = global[gi].rate
				gi++
			}
			var dominated bool
			if alpha == 0 {
				// Free switching makes equal-weight states across rates
				// interchangeable; keep only the global representative.
				// Identity is (event, rate): unmaterialized switch twins
				// share their parent's event but differ in rate.
				dominated = bestW < e.w ||
					(bestW == e.w && !(bestEv == e.ev && bestRate == e.rate))
			} else {
				dominated = bestW+alpha <= e.w
			}
			if dominated {
				continue
			}
			out = append(out, e)
		}
		o.fronts[k] = out
		total += len(out)
	}
	return total
}

// bestEntry returns the minimum-weight final state, honoring the terminal
// drain constraint when configured.
func bestEntry(fronts [][]entry, opt Options) (entry, bool) {
	var best entry
	found := false
	for _, f := range fronts {
		for _, e := range f {
			if opt.RequireDrained && e.b > opt.FinalSlackBits+1e-9 {
				continue
			}
			if !found || e.w < best.w {
				best = e
				found = true
			}
		}
	}
	return best, found
}
