package switchfab

import (
	"fmt"
	"sync"
	"time"

	"rcbr/internal/admission"
	"rcbr/internal/metrics"
)

// MemoryAdmitter runs the paper's memory-based measurement MBAC (Section VI)
// live inside the switch: one incremental admission.LiveMemory controller
// per output port, created with the port's capacity. Admission state
// therefore shards exactly with the fabric — a setup on port 7 never touches
// port 9's controller, and setups on different ports proceed fully in
// parallel.
//
// A switch resolves each port's controller once, when the port is added,
// and keeps it on the port: no switch operation looks a controller up. It
// holds no per-call container either: the switch allocates a call's record
// inside the VC's own record and hands it to the port's controller on every
// lifecycle event, and the controller keeps only the pooled sums and a
// count. The map from port id to controller here serves the callers outside
// a switch — AdmitCall from a probe, PortCalls from a test — and a port's
// creation.
//
// The switch drives a port's controller with that port's mutex held, which
// already serializes same-port calls; each controller still carries its own
// mutex for the callers that drive the admitter directly.
//
// Time for the dwell histories is not the admitter's to read: every hook is
// handed the switch's clock reading for the operation (metrics.Nanotime
// nanoseconds, taken once on the way into SetupID, RenegotiateID or
// HandleRM), and the controller sees it in seconds. A direct AdmitCall,
// which is handed none, reads that same clock once.
type MemoryAdmitter struct {
	levels []float64
	target float64

	mu    sync.RWMutex // guards the ports map, not the per-port state
	ports map[int]*portMBAC
}

// portMBAC is one port's admission state.
type portMBAC struct {
	mu  sync.Mutex
	ctl *admission.LiveMemory
}

// NewMemoryAdmitter builds a live memory-based admitter over the given
// ascending bandwidth levels with the given target renegotiation-failure
// probability (0 < target < 1).
func NewMemoryAdmitter(levels []float64, target float64) (*MemoryAdmitter, error) {
	// A trial controller checks what every port's will be built from, so
	// creating one for a port — whose capacity AddPort validated — cannot
	// fail.
	if _, err := admission.NewLiveMemory(levels, 1, target); err != nil {
		return nil, fmt.Errorf("switchfab: memory admitter: %w", err)
	}
	return &MemoryAdmitter{
		levels: append([]float64(nil), levels...),
		target: target,
		ports:  make(map[int]*portMBAC),
	}, nil
}

// portState returns port's controller, creating it on first use with the
// given capacity: at AddPort for a port of a switch the admitter is
// installed in, at the first AdmitCall for a direct caller.
func (a *MemoryAdmitter) portState(port int, capacity float64) *portMBAC {
	a.mu.RLock()
	pa := a.ports[port]
	a.mu.RUnlock()
	if pa != nil {
		return pa
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if pa = a.ports[port]; pa == nil {
		// The constructor's trial validated levels and target; capacity is
		// positive and finite.
		ctl, _ := admission.NewLiveMemory(a.levels, capacity, a.target)
		pa = &portMBAC{ctl: ctl}
		a.ports[port] = pa
	}
	return pa
}

// AdmitCall decides, at the time of the call, whether a call asking for rate
// may enter port, for a caller outside a switch; a switch hands the port's
// controller the operation's own reading instead. A capacity AddPort would
// refuse (not finite and positive) admits nothing and creates no controller.
func (a *MemoryAdmitter) AdmitCall(port int, rate, _, capacity float64) bool {
	if capacity <= 0 || !validRate(capacity) {
		return false
	}
	return a.portState(port, capacity).admit(metrics.Nanotime(), rate)
}

// PortCalls returns the number of calls the admitter currently tracks on
// port (0 for a port it has never seen).
func (a *MemoryAdmitter) PortCalls(port int) int {
	a.mu.RLock()
	pa := a.ports[port]
	a.mu.RUnlock()
	if pa == nil {
		return 0
	}
	pa.mu.Lock()
	defer pa.mu.Unlock()
	return pa.ctl.Calls()
}

// seconds is a clock reading in the unit admission.LiveMemory keeps time in.
func seconds(now int64) float64 { return time.Duration(now).Seconds() }

// admit reports whether a new call asking for rate may enter the port at
// now.
func (pa *portMBAC) admit(now int64, rate float64) bool {
	pa.mu.Lock()
	defer pa.mu.Unlock()
	return pa.ctl.Admit(seconds(now), rate)
}

// enter adds the call behind rec, admitted at rate, to the port's pool.
func (pa *portMBAC) enter(rec *callRecord, now int64, rate float64) {
	pa.mu.Lock()
	pa.ctl.Enter(rec, seconds(now), rate)
	pa.mu.Unlock()
}

// move records that the call behind rec now holds newRate.
func (pa *portMBAC) move(rec *callRecord, now int64, newRate float64) {
	pa.mu.Lock()
	pa.ctl.Move(rec, seconds(now), newRate)
	pa.mu.Unlock()
}

// leave removes the call behind rec from the port's pool.
func (pa *portMBAC) leave(rec *callRecord) {
	pa.mu.Lock()
	pa.ctl.Leave(rec)
	pa.mu.Unlock()
}
