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
// per output port, created with the port's capacity when the port is added.
// Admission state therefore shards exactly with the fabric — a setup on port
// 7 never touches port 9's controller, and setups on different ports proceed
// fully in parallel.
//
// A port's controller lives on the port and is guarded by the port's mutex:
// the switch already holds that mutex at every admission decision and
// lifecycle event, so it drives the controller directly and a setup takes
// one mutex, not two. The admitter holds no per-call container either: the
// switch allocates a call's record inside the VC's own record and hands it
// to the controller on every lifecycle event, and the controller keeps only
// the pooled sums and a count. The map from port id to port here serves the
// callers outside a switch — AdmitCall from a probe, PortCalls from a test —
// which take the same port mutex.
//
// An admitter serves one switch's ports: a port is the admitter's once a
// switch adds it, and a second switch's AddPort of the same id fails, since
// its calls would otherwise pool with the first's under a capacity and a
// mutex that are not its own.
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
	ports map[int]*port
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
		ports:  make(map[int]*port),
	}, nil
}

// adopt gives p, a port AddPort is adding, its controller, built with the
// port's capacity and guarded by the port's mutex from then on. It fails
// when the admitter already serves a port of that id: another switch's.
func (a *MemoryAdmitter) adopt(p *port) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.ports[p.id] != nil {
		return fmt.Errorf("switchfab: port %d: its memory admitter already serves another switch's port %d", p.id, p.id)
	}
	// The constructor's trial validated levels and target; AddPort validated
	// the capacity.
	p.mbac, _ = admission.NewLiveMemory(a.levels, p.capacity.bps(), a.target)
	a.ports[p.id] = p
	return nil
}

// port returns the port of that id the admitter serves, or nil.
func (a *MemoryAdmitter) port(id int) *port {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.ports[id]
}

// AdmitCall decides, at the time of the call, whether a call asking for rate
// may enter port, for a caller outside a switch; a switch hands the port's
// controller the operation's own reading instead. The decision is the
// controller's that the port was added with, under the port's mutex. A port
// no switch has added holds no call, and an empty pool admits; a capacity
// AddPort would refuse (not finite and positive) admits nothing.
func (a *MemoryAdmitter) AdmitCall(port int, rate, _, capacity float64) bool {
	if capacity <= 0 || !validRate(capacity) {
		return false
	}
	p := a.port(port)
	if p == nil {
		return true
	}
	now := seconds(metrics.Nanotime())
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.mbac.Admit(now, rate)
}

// PortCalls returns the number of calls the admitter currently tracks on
// port (0 for a port no switch has added).
func (a *MemoryAdmitter) PortCalls(port int) int {
	p := a.port(port)
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.mbac.Calls()
}

// seconds is a clock reading in the unit admission.LiveMemory keeps time in.
func seconds(now int64) float64 { return time.Duration(now).Seconds() }
