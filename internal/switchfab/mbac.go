package switchfab

import (
	"fmt"
	"sync/atomic"
	"time"

	"rcbr/internal/admission"
)

// MemoryAdmitter runs the paper's memory-based measurement MBAC (Section VI)
// live inside the switch: one incremental admission.LiveMemory controller
// per output port, created with the port's capacity when the port is added.
// Admission state therefore shards exactly with the fabric — a setup on port
// 7 never touches port 9's controller, and setups on different ports proceed
// fully in parallel.
//
// An admitter is a policy bound to one switch: the first switch whose
// AddPort adopts a port owns it, and any other switch's AddPort is refused.
// It keeps no clock, map or mutex. A port's controller lives on the port,
// guarded by the port's mutex, which the switch already holds at every
// admission decision and lifecycle event; a call's record lives inside the
// VC's own record. The callers outside a switch — AdmitCall from a probe,
// PortCalls from a test — find the port in the owning switch's lock-free
// port table and take the same mutex. Every hook is handed the switch's
// clock reading for the operation (WithClock), in seconds; a direct
// AdmitCall reads that clock once.
type MemoryAdmitter struct {
	levels []float64
	target float64
	// sw is the switch the admitter serves, set by the first port adopted.
	sw atomic.Pointer[Switch]
}

// NewMemoryAdmitter builds a live memory-based admitter over the given
// ascending bandwidth levels with the given target renegotiation-failure
// probability (0 < target < 1).
func NewMemoryAdmitter(levels []float64, target float64) (*MemoryAdmitter, error) {
	if !(target > 0 && target < 1) {
		return nil, fmt.Errorf("switchfab: memory admitter: target %g outside (0, 1)", target)
	}
	// A trial controller checks the levels every port's will be built from,
	// so creating one for a port — whose capacity AddPort validated — cannot
	// fail. Its capacity is the trial's own, so only the levels can fail it.
	if _, err := admission.NewLiveMemory(levels, 1, target); err != nil {
		return nil, fmt.Errorf("switchfab: memory admitter: %w", err)
	}
	return &MemoryAdmitter{levels: append([]float64(nil), levels...), target: target}, nil
}

// adopt gives p, a port s's AddPort is adding, its controller, built with
// the port's capacity and guarded by the port's mutex from then on. It binds
// the admitter to s on the first port, and fails for any other switch.
func (a *MemoryAdmitter) adopt(s *Switch, p *port) error {
	if !a.sw.CompareAndSwap(nil, s) && a.sw.Load() != s {
		return fmt.Errorf("switchfab: port %d: its memory admitter serves another switch", p.id)
	}
	// The constructor's trial validated levels and target; AddPort validated
	// the capacity.
	p.mbac, _ = admission.NewLiveMemory(a.levels, p.capacity.bps(), a.target)
	return nil
}

// port returns the owning switch's port of that id, or nil.
func (a *MemoryAdmitter) port(id int) (*Switch, *port) {
	if s := a.sw.Load(); s != nil {
		return s, s.port(id)
	}
	return nil, nil
}

// AdmitCall decides, at the owning switch's clock, whether a call asking for
// rate may enter port, for a caller outside a switch. The decision is the
// port's controller's, under the port's mutex. A port no switch has added
// holds no call, and an empty pool admits; a capacity AddPort would refuse
// (not finite and positive) admits nothing.
func (a *MemoryAdmitter) AdmitCall(port int, rate, _, capacity float64) bool {
	if capacity <= 0 || !validRate(capacity) {
		return false
	}
	s, p := a.port(port)
	if p == nil {
		return true
	}
	now := seconds(s.clock())
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.mbac.Admit(now, rate)
}

// PortCalls returns the number of calls the admitter currently tracks on
// port (0 for a port no switch has added).
func (a *MemoryAdmitter) PortCalls(port int) int {
	_, p := a.port(port)
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.mbac.Calls()
}

// seconds is a clock reading in the unit admission.LiveMemory keeps time in.
func seconds(now int64) float64 { return time.Duration(now).Seconds() }
