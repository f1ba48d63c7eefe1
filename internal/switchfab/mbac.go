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
// per output port, created lazily with the capacity the switch reports on
// the first admission decision for that port. Admission state therefore
// shards exactly with the fabric — a setup on port 7 never touches port 9's
// controller, and setups on different ports proceed fully in parallel.
//
// It holds no per-call container: onAdmit allocates a call's record and
// dwell storage as one object and returns it, the switch keeps it on the VC
// entry and hands it back, and the port's controller keeps only the pooled
// sums and a count. The only map here is the one from port id to controller.
//
// The switch invokes every method with the affected port's mutex held
// (the lifecycleAdmitter contract), which already serializes same-port
// calls; each per-port controller still carries its own mutex for callers
// that drive the admitter directly, outside a switch (AdmitCall from a
// probe, PortCalls from a test).
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
	if len(levels) == 0 {
		return nil, fmt.Errorf("switchfab: memory admitter needs at least one level")
	}
	if target <= 0 || target >= 1 {
		return nil, fmt.Errorf("switchfab: invalid admission target %g", target)
	}
	return &MemoryAdmitter{
		levels: append([]float64(nil), levels...),
		target: target,
		ports:  make(map[int]*portMBAC),
	}, nil
}

// portState returns port's controller, creating it on first use with the
// given capacity. Lifecycle notifications always follow an AdmitCall for the
// same port, so creation happens exactly once, with the true capacity.
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
		ctl, err := admission.NewLiveMemory(a.levels, capacity, a.target)
		if err != nil {
			// capacity <= 0 or non-finite cannot reach here: AddPort
			// validates capacity and the constructor validated the rest.
			return nil
		}
		pa = &portMBAC{ctl: ctl}
		a.ports[port] = pa
	}
	return pa
}

// lookup returns port's controller or nil, without creating one.
func (a *MemoryAdmitter) lookup(port int) *portMBAC {
	a.mu.RLock()
	pa := a.ports[port]
	a.mu.RUnlock()
	return pa
}

// AdmitCall implements Admitter for a caller outside a switch, deciding at
// the time of the call. A switch never calls it: it hands admit the
// operation's own reading.
func (a *MemoryAdmitter) AdmitCall(port int, rate, reserved, capacity float64) bool {
	return a.admit(port, metrics.Nanotime(), rate, reserved, capacity)
}

// seconds is a clock reading in the unit admission.LiveMemory keeps time in.
func seconds(now int64) float64 { return time.Duration(now).Seconds() }

// admit implements lifecycleAdmitter.
func (a *MemoryAdmitter) admit(port int, now int64, rate, _, capacity float64) bool {
	pa := a.portState(port, capacity)
	if pa == nil {
		return false
	}
	pa.mu.Lock()
	ok := pa.ctl.Admit(seconds(now), rate)
	pa.mu.Unlock()
	return ok
}

// onAdmit implements lifecycleAdmitter.
func (a *MemoryAdmitter) onAdmit(port int, now int64, rate float64) *callRecord {
	pa := a.lookup(port)
	if pa == nil {
		return nil
	}
	rec := admission.NewCall(len(a.levels))
	pa.mu.Lock()
	pa.ctl.Enter(rec, seconds(now), rate)
	pa.mu.Unlock()
	return rec
}

// onRateChange implements lifecycleAdmitter.
func (a *MemoryAdmitter) onRateChange(port int, rec *callRecord, now int64, newRate float64) {
	if pa := a.lookup(port); pa != nil && rec != nil {
		pa.mu.Lock()
		pa.ctl.Move(rec, seconds(now), newRate)
		pa.mu.Unlock()
	}
}

// onDepart implements lifecycleAdmitter.
func (a *MemoryAdmitter) onDepart(port int, rec *callRecord) {
	if pa := a.lookup(port); pa != nil && rec != nil {
		pa.mu.Lock()
		pa.ctl.Leave(rec)
		pa.mu.Unlock()
	}
}

// PortCalls returns the number of calls the admitter currently tracks on
// port (0 for a port it has never seen).
func (a *MemoryAdmitter) PortCalls(port int) int {
	pa := a.lookup(port)
	if pa == nil {
		return 0
	}
	pa.mu.Lock()
	defer pa.mu.Unlock()
	return pa.ctl.Calls()
}
