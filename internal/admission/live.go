package admission

import (
	"fmt"
	"sort"

	"rcbr/internal/ld"
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
}

// Call is one present call's contribution to a LiveMemory pool, retained so
// departure can subtract exactly what the call added. Whoever admits the
// call owns its record — makes it with NewCall or CallSlot.Init, enters it,
// and hands it back on every rate change and on departure; only the
// controller reads or writes its fields, under whatever serializes that
// controller.
type Call struct {
	dwell []float64 // completed dwell per level
	since float64   // when the current level was entered
	level int       // index of the current level; -1 while in no pool
}

// callSlots is the dwell storage that rides in the same heap object as a
// Call: seven levels, the widest set any caller or workload here uses.
const callSlots = 7

// CallSlot is a Call with its dwell storage inline: 96 bytes that an owner
// embeds in an object of its own, so the record costs no allocation of its
// own. A live switch embeds one in the VC record of every call it admits.
type CallSlot struct {
	Call
	slots [callSlots]float64
}

// Init readies the slot's record for a controller over the given number of
// levels and returns it. Up to callSlots levels the dwell storage is the
// slot's own; a wider level set allocates it.
func (s *CallSlot) Init(levels int) *Call {
	c := &s.Call
	if levels <= callSlots {
		c.dwell = s.slots[:levels:levels]
	} else {
		c.dwell = make([]float64, levels)
	}
	c.level = -1
	return c
}

// NewCall returns the record of a call for a controller over the given
// number of levels. Up to callSlots levels, record and dwell storage are one
// heap object; a wider level set pays a second object for the dwell slice.
func NewCall(levels int) *Call {
	if levels > callSlots {
		return &Call{dwell: make([]float64, levels), level: -1}
	}
	return new(CallSlot).Init(levels)
}

// NewLiveMemory builds the incremental history-based controller over the
// given ascending levels.
func NewLiveMemory(levels []float64, capacity, target float64) (*LiveMemory, error) {
	if capacity <= 0 || target <= 0 || target >= 1 {
		return nil, fmt.Errorf("admission: invalid capacity %g or target %g", capacity, target)
	}
	if len(levels) == 0 {
		return nil, fmt.Errorf("admission: no levels")
	}
	for i := 1; i < len(levels); i++ {
		if levels[i] <= levels[i-1] {
			return nil, fmt.Errorf("admission: levels not strictly ascending")
		}
	}
	n := len(levels)
	return &LiveMemory{
		capacity: capacity,
		target:   target,
		levels:   append([]float64(nil), levels...),
		flushed:  make([]float64, n),
		active:   make([]float64, n),
		sinceSum: make([]float64, n),
		weights:  make([]float64, n),
		probs:    make([]float64, n),
	}, nil
}

// index returns the index of the level nearest to rate (ties go down),
// matching stats.LevelHist.Index so LiveMemory and Memory bucket rates
// identically.
func (m *LiveMemory) index(rate float64) int {
	i := sort.SearchFloat64s(m.levels, rate)
	if i == len(m.levels) {
		return len(m.levels) - 1
	}
	if i > 0 && rate-m.levels[i-1] <= m.levels[i]-rate {
		return i - 1
	}
	return i
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
	var total float64
	for i := range m.levels {
		w := m.flushed[i] + m.active[i]*now - m.sinceSum[i]
		if w < 0 { // floating-point dust from the linear form
			w = 0
		}
		m.weights[i] = w
		total += w
	}
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
func (m *LiveMemory) Admit(now, _ float64) bool {
	dist, ok := m.dist(now)
	if !ok {
		return true
	}
	return chernoffAdmit(dist, m.capacity, m.target, m.present)
}

// Enter adds the call behind c, a fresh record from NewCall(len(levels)),
// to the pool at the given rate. Entering a record that is already in a pool
// would count its call twice, so it panics.
func (m *LiveMemory) Enter(c *Call, now, rate float64) {
	if c.level != -1 {
		panic("admission: Enter of a call record already in a pool")
	}
	c.level = m.index(rate)
	c.since = now
	m.active[c.level]++
	m.sinceSum[c.level] += now
	m.present++
}

// Move records that the entered call behind c now holds newRate.
func (m *LiveMemory) Move(c *Call, now, newRate float64) {
	if d := now - c.since; d > 0 {
		c.dwell[c.level] += d
		m.flushed[c.level] += d
	}
	m.active[c.level]--
	m.sinceSum[c.level] -= c.since
	c.level = m.index(newRate)
	c.since = now
	m.active[c.level]++
	m.sinceSum[c.level] += now
}

// Leave removes the entered call behind c from the pool. As in Memory, a
// departed call's history leaves the pool entirely. The record is spent: a
// Move or Leave of it afterwards is a caller bug and panics on its level of
// -1, the first thing either indexes with, before any pooled sum is touched.
func (m *LiveMemory) Leave(c *Call) {
	m.active[c.level]--
	m.sinceSum[c.level] -= c.since
	for i, d := range c.dwell {
		m.flushed[i] -= d
		if m.flushed[i] < 0 {
			m.flushed[i] = 0
		}
	}
	c.level = -1
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
