// Package admission implements the call admission control schemes of
// Section VI of the RCBR paper. All three are certainty-equivalent Chernoff
// controllers — they estimate the renegotiation failure probability of
// eq. (12),
//
//	P(fail) ~= exp(-N * I_est(C/N)),
//
// and admit a new call only while the estimate stays at or below the target
// — but they differ in where the per-call bandwidth distribution comes from:
//
//   - PerfectKnowledge: the true marginal distribution of the schedule,
//     known a priori (the benchmark the paper normalizes utilization to).
//   - Memoryless: the instantaneous snapshot of currently reserved levels
//     (shown by the paper to be non-robust on small links).
//   - Memory: the time-accumulated history of every level held by each call
//     currently in the system (the paper's robust alternative).
//
// Controllers receive lifecycle notifications from the call-level simulator
// so the measurement-based schemes can maintain their estimates.
package admission

import (
	"fmt"
	"math"

	"rcbr/internal/ld"
	"rcbr/internal/stats"
)

// Controller decides call admission and observes call lifecycle events.
// Implementations are not safe for concurrent use.
type Controller interface {
	// Admit reports whether a new call requesting initialRate may enter.
	// now is the simulation time in seconds.
	Admit(now, initialRate float64) bool
	// OnAdmit notifies that call id entered at the given rate.
	OnAdmit(id int, now, rate float64)
	// OnRateChange notifies that call id's reserved rate changed (after a
	// granted, possibly partial, renegotiation).
	OnRateChange(id int, now, oldRate, newRate float64)
	// OnDepart notifies that call id left the system.
	OnDepart(id int, now, rate float64)
	// Name identifies the scheme in reports.
	Name() string
}

// PerfectKnowledge admits at most MaxCalls(C, target) calls, with the call
// count derived from the true a priori marginal distribution. It is the
// paper's "scheme having perfect knowledge".
type PerfectKnowledge struct {
	maxCalls int
	calls    int
}

// NewPerfectKnowledge builds the benchmark controller for a link of the
// given capacity, a target failure probability, and the true per-call
// bandwidth distribution.
func NewPerfectKnowledge(dist ld.Dist, capacity, target float64) (*PerfectKnowledge, error) {
	if err := dist.Validate(); err != nil {
		return nil, err
	}
	if err := checkTarget(capacity, target); err != nil {
		return nil, err
	}
	return &PerfectKnowledge{maxCalls: dist.MaxCalls(capacity, target)}, nil
}

// MaxCalls returns the precomputed admissible call count.
func (p *PerfectKnowledge) MaxCalls() int { return p.maxCalls }

// Admit implements Controller.
func (p *PerfectKnowledge) Admit(_, _ float64) bool { return p.calls < p.maxCalls }

// OnAdmit implements Controller.
func (p *PerfectKnowledge) OnAdmit(int, float64, float64) { p.calls++ }

// OnRateChange implements Controller.
func (p *PerfectKnowledge) OnRateChange(int, float64, float64, float64) {}

// OnDepart implements Controller.
func (p *PerfectKnowledge) OnDepart(int, float64, float64) { p.calls-- }

// Name implements Controller.
func (p *PerfectKnowledge) Name() string { return "perfect" }

// chernoffAdmit evaluates the certainty-equivalent test: with n+1 calls each
// distributed as dist on a link of capacity C, is the Chernoff estimate of
// the failure probability at most target?
func chernoffAdmit(dist ld.Dist, capacity, target float64, n int) bool {
	if n < 0 {
		n = 0
	}
	perCall := capacity / float64(n+1)
	return dist.ChernoffTail(perCall, n+1) <= target
}

// Memoryless is the paper's memoryless certainty-equivalent MBAC: the
// per-call distribution is estimated from the levels reserved at this
// instant only. With nothing in the system it admits unconditionally.
type Memoryless struct {
	levels   *stats.LevelHist // weight = number of calls at each level
	capacity float64
	target   float64
	calls    int
}

// NewMemoryless builds the memoryless controller over the given bandwidth
// levels.
func NewMemoryless(levels []float64, capacity, target float64) (*Memoryless, error) {
	if err := checkTarget(capacity, target); err != nil {
		return nil, err
	}
	return &Memoryless{
		levels:   stats.NewLevelHist(levels),
		capacity: capacity,
		target:   target,
	}, nil
}

// Admit implements Controller.
func (m *Memoryless) Admit(_, _ float64) bool {
	if m.calls == 0 {
		return true
	}
	dist := ld.Dist{P: m.levels.Probabilities(), X: m.levels.Levels()}
	return chernoffAdmit(dist, m.capacity, m.target, m.calls)
}

// OnAdmit implements Controller.
func (m *Memoryless) OnAdmit(_ int, _, rate float64) {
	m.calls++
	m.levels.Add(rate, 1)
}

// OnRateChange implements Controller.
func (m *Memoryless) OnRateChange(_ int, _, oldRate, newRate float64) {
	m.levels.Add(oldRate, -1)
	m.levels.Add(newRate, 1)
}

// OnDepart implements Controller.
func (m *Memoryless) OnDepart(_ int, _, rate float64) {
	m.calls--
	m.levels.Add(rate, -1)
}

// Name implements Controller.
func (m *Memoryless) Name() string { return "memoryless" }

// Memory is the paper's history-accumulating MBAC: for every call currently
// in the system it tracks how long each bandwidth level has been reserved
// since the call arrived, and estimates the per-call distribution from the
// pooled dwell times. Longer-lived calls therefore contribute their whole
// trajectory, not just the present level, which smooths the estimate enough
// to restore robustness.
type Memory struct {
	capacity float64
	target   float64
	calls    map[int]*callHistory
	levelSet []float64
}

type callHistory struct {
	hist     *stats.LevelHist
	curRate  float64
	sinceSec float64
}

// checkTarget refuses a capacity not in (0, +Inf) and a target not in (0, 1).
func checkTarget(capacity, target float64) error {
	if !(capacity > 0) || math.IsInf(capacity, 1) || !(target > 0 && target < 1) {
		return fmt.Errorf("admission: invalid capacity %g or target %g", capacity, target)
	}
	return nil
}

// checkLevels refuses a level set the history-based controllers cannot pool
// over: empty, not strictly ascending, or with a level that is not finite —
// NaN fails every comparison, so the ascending check alone passes it.
func checkLevels(levels []float64) error {
	if len(levels) == 0 {
		return fmt.Errorf("admission: no levels")
	}
	for i, l := range levels {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			return fmt.Errorf("admission: level %d is %g, not finite", i, l)
		}
		if i > 0 && l <= levels[i-1] {
			return fmt.Errorf("admission: levels not strictly ascending")
		}
	}
	return nil
}

// NewMemory builds the history-based controller over the given levels.
func NewMemory(levels []float64, capacity, target float64) (*Memory, error) {
	if err := checkTarget(capacity, target); err != nil {
		return nil, err
	}
	if err := checkLevels(levels); err != nil {
		return nil, err
	}
	return &Memory{
		capacity: capacity,
		target:   target,
		calls:    make(map[int]*callHistory),
		levelSet: append([]float64(nil), levels...),
	}, nil
}

// estimate pools every present call's dwell-time histogram, including the
// in-progress dwell at the current level.
func (m *Memory) estimate(now float64) (ld.Dist, bool) {
	pooled := stats.NewLevelHist(m.levelSet)
	for _, c := range m.calls {
		pooled.Merge(c.hist, 1)
		if dwell := now - c.sinceSec; dwell > 0 {
			pooled.Add(c.curRate, dwell)
		}
	}
	if pooled.Total() <= 0 {
		return ld.Dist{}, false
	}
	return ld.Dist{P: pooled.Probabilities(), X: pooled.Levels()}, true
}

// Admit implements Controller.
func (m *Memory) Admit(now, _ float64) bool {
	if len(m.calls) == 0 {
		return true
	}
	dist, ok := m.estimate(now)
	if !ok {
		return true
	}
	return chernoffAdmit(dist, m.capacity, m.target, len(m.calls))
}

// OnAdmit implements Controller.
func (m *Memory) OnAdmit(id int, now, rate float64) {
	m.calls[id] = &callHistory{
		hist:     stats.NewLevelHist(m.levelSet),
		curRate:  rate,
		sinceSec: now,
	}
}

// OnRateChange implements Controller.
func (m *Memory) OnRateChange(id int, now, oldRate, newRate float64) {
	c, ok := m.calls[id]
	if !ok {
		return
	}
	if dwell := now - c.sinceSec; dwell > 0 {
		c.hist.Add(oldRate, dwell)
	}
	c.curRate = newRate
	c.sinceSec = now
}

// OnDepart implements Controller.
func (m *Memory) OnDepart(id int, _, _ float64) {
	delete(m.calls, id)
}

// Name implements Controller.
func (m *Memory) Name() string { return "memory" }

// Unlimited admits everything; the no-admission-control baseline.
type Unlimited struct{}

// Admit implements Controller.
func (Unlimited) Admit(float64, float64) bool { return true }

// OnAdmit implements Controller.
func (Unlimited) OnAdmit(int, float64, float64) {}

// OnRateChange implements Controller.
func (Unlimited) OnRateChange(int, float64, float64, float64) {}

// OnDepart implements Controller.
func (Unlimited) OnDepart(int, float64, float64) {}

// Name implements Controller.
func (Unlimited) Name() string { return "unlimited" }
