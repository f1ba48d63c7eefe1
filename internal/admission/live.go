package admission

import (
	"fmt"
	"math"

	"rcbr/internal/ld"
	"rcbr/internal/stats"
)

// LiveMemory is the Memory scheme restructured for a live switch: the same
// pooled dwell-time estimate — every present call's full bandwidth-level
// history, including the in-progress dwell at the current level — but
// maintained incrementally, so Admit costs O(levels) instead of O(calls).
//
// The pooled weight of level ℓ at time t decomposes into a part that only
// changes on lifecycle events and a part linear in t:
//
//	w_ℓ(t) = flushed_ℓ + active_ℓ·t − sinceSum_ℓ
//
// where flushed_ℓ sums the completed dwells of present calls, active_ℓ
// counts the calls currently at level ℓ, and sinceSum_ℓ sums the times at
// which those calls entered the level. All three are updated in O(1) per
// event (O(levels) on departure, to subtract the leaver's history), so the
// estimate is identical to Memory's without ever walking the call table —
// the difference between a microsecond admit decision and one that scans a
// million calls.
//
// Calls are named by handle — Enter, Move, Leave over a *Call the caller
// owns: the controller keeps the pooled sums and a count of the calls
// present, and never finds a call, because the caller hands it the call's
// record. A live switch keeps that record on its own VC entry
// (switchfab.MemoryAdmitter), so a call is indexed once, by the switch.
//
// LiveMemory is not safe for concurrent use; the switch-side adapter
// (switchfab.MemoryAdmitter) wraps one instance per port behind that port's
// serialization.
type LiveMemory struct {
	capacity float64
	target   float64
	levels   []float64
	flushed  []float64 // completed dwell mass per level, present calls only
	active   []float64 // calls currently at each level
	sinceSum []float64 // Σ level-entry times of the calls in active
	present  int       // calls entered and not yet left

	// weights and probs are reused by dist so Admit stays allocation-free
	// in steady state.
	weights []float64
	probs   []float64
	// slack bounds how far the mean Dist.Mean computes from a normalized
	// pool can sit above the pool's highest weighted level: the rounding of
	// the sum, the divides and the products is at most about 2L+2 unit
	// roundoffs (2^-53) over L non-negative levels, here doubled.
	slack float64
}

// Call is one present call's contribution to a LiveMemory pool, retained so
// departure can subtract exactly what the call added. Its level is the index
// of the rate the caller hands every Enter, Move and Leave. Whoever admits the
// call owns its record — makes it with NewCall, enters it, and hands it back
// on every rate change and on departure; only the controller reads or writes
// its fields, under whatever serializes that controller.
type Call struct {
	since float64            // when the current level was entered; NaN while in no pool
	dwell [callSlots]float64 // completed dwell per level
}

// callSlots is the widest level set a LiveMemory takes: the dwell storage a
// Call carries inline, so that a record is one 64-byte object.
const callSlots = 7

// NewCall returns a fresh record: in no pool, with no history.
func NewCall() *Call { return &Call{since: math.NaN()} }

// NewLiveMemory builds the incremental history-based controller over the
// given ascending levels.
func NewLiveMemory(levels []float64, capacity, target float64) (*LiveMemory, error) {
	if err := checkTarget(capacity, target); err != nil {
		return nil, err
	}
	if err := checkLevels(levels); err != nil {
		return nil, err
	}
	if len(levels) > callSlots {
		return nil, fmt.Errorf("admission: %d levels, more than the %d a call record holds", len(levels), callSlots)
	}
	n := len(levels)
	m := &LiveMemory{
		capacity: capacity,
		target:   target,
		levels:   append([]float64(nil), levels...),
		flushed:  make([]float64, n),
		active:   make([]float64, n),
		sinceSum: make([]float64, n),
		weights:  make([]float64, n),
		probs:    make([]float64, n),
		slack:    1 + float64(4*(n+1))*0x1p-53,
	}
	if levels[0] < 0 {
		m.slack = math.Inf(1) // the bound needs non-negative levels: no shortcut
	}
	return m, nil
}

// dist assembles the pooled per-call distribution at time now. The returned
// Dist aliases internal scratch: valid until the next dist call, never
// retained by the Chernoff evaluation.
func (m *LiveMemory) dist(now float64) (ld.Dist, bool) {
	// The pool is defined over the calls present; with none, any remaining
	// weight is subtraction residue, not evidence.
	if m.present == 0 {
		return ld.Dist{}, false
	}
	total, _ := m.weigh(now)
	return m.normalize(total)
}

// weigh fills the weights scratch with each level's pooled weight at time
// now and returns their sum and the highest level with positive weight (0
// when none has any).
func (m *LiveMemory) weigh(now float64) (total, top float64) {
	for i := range m.levels {
		w := m.flushed[i] + m.active[i]*now - m.sinceSum[i]
		if w < 0 { // floating-point dust from the linear form
			w = 0
		}
		m.weights[i] = w
		total += w
		if w > 0 {
			top = m.levels[i]
		}
	}
	return total, top
}

// normalize turns the weights weigh left, summing to total, into the pooled
// distribution.
func (m *LiveMemory) normalize(total float64) (ld.Dist, bool) {
	if total <= 0 {
		return ld.Dist{}, false
	}
	for i, w := range m.weights {
		m.probs[i] = w / total
	}
	return ld.Dist{P: m.probs, X: m.levels}, true
}

// Admit reports whether a new call may enter at time now. As in Memory the
// pooled estimate speaks for the newcomer; its initial rate is not consulted.
//
// A port whose share per call, capacity/(n+1), exceeds the highest level
// any present call has held cannot overflow whatever mix of levels its n+1
// calls hold: the share is above the pooled distribution's peak, so the
// Chernoff exponent is +Inf and the estimate 0. Admit answers that case
// from the weights alone. The share must clear the peak by slack, which
// also puts it above the mean as Dist.Mean rounds it — below that mean the
// exponent would be 0 — so the answer is the full evaluation's, bit for
// bit. Only otherwise is the distribution normalized and evaluated.
func (m *LiveMemory) Admit(now, _ float64) bool {
	if m.present == 0 {
		return true
	}
	total, top := m.weigh(now)
	if total > 0 && top > 0 && m.capacity/float64(max(m.present, 0)+1) > top*m.slack {
		return true
	}
	dist, ok := m.normalize(total)
	if !ok {
		return true
	}
	return chernoffAdmit(dist, m.capacity, m.target, m.present)
}

// Enter adds the call behind c, a fresh record from NewCall, to the pool at
// the given rate. Entering a record that is already in a pool would count its
// call twice, so it panics.
func (m *LiveMemory) Enter(c *Call, now, rate float64) {
	if !math.IsNaN(c.since) {
		panic("admission: Enter of a call record already in a pool")
	}
	level := stats.NearestLevel(m.levels, rate)
	c.since = now
	m.active[level]++
	m.sinceSum[level] += now
	m.present++
}

// Move records that the entered call behind c, which held oldRate, now holds
// newRate.
func (m *LiveMemory) Move(c *Call, now, oldRate, newRate float64) {
	if math.IsNaN(c.since) {
		panic("admission: Move of a call record in no pool")
	}
	old := stats.NearestLevel(m.levels, oldRate)
	if d := now - c.since; d > 0 {
		c.dwell[old] += d
		m.flushed[old] += d
	}
	m.active[old]--
	m.sinceSum[old] -= c.since
	level := stats.NearestLevel(m.levels, newRate)
	c.since = now
	m.active[level]++
	m.sinceSum[level] += now
}

// Leave removes the entered call behind c, which holds rate, from the pool.
// As in Memory, a departed call's history leaves the pool entirely. The
// record is spent: a Move or Leave of it afterwards is a caller bug and
// panics before any pooled sum is touched.
func (m *LiveMemory) Leave(c *Call, rate float64) {
	if math.IsNaN(c.since) {
		panic("admission: Leave of a call record in no pool")
	}
	level := stats.NearestLevel(m.levels, rate)
	m.active[level]--
	m.sinceSum[level] -= c.since
	for i := range m.levels {
		m.flushed[i] -= c.dwell[i]
		if m.flushed[i] < 0 {
			m.flushed[i] = 0
		}
	}
	c.since = math.NaN()
	m.present--
}

// Calls returns the number of calls currently in the system.
func (m *LiveMemory) Calls() int { return m.present }

// Active returns the number of calls currently at each level, in level
// order. A call that entered and never left shows here even when another's
// double departure has put Calls right again.
func (m *LiveMemory) Active() []float64 {
	return append([]float64(nil), m.active...)
}
