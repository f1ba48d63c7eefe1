package metrics

import (
	"encoding/json"
	"sync"
	"time"
)

// EventKind classifies one per-VC lifecycle event.
type EventKind uint8

// Event kinds recorded by the switch (per-hop) and by the mesh layer
// (end-to-end, across a whole multi-hop path).
const (
	EventSetup EventKind = iota + 1
	EventSetupReject
	EventRenegGrant
	EventRenegDeny
	EventResync
	EventTeardown

	// Path-level kinds, recorded by internal/mesh for the end-to-end
	// outcome of a multi-hop operation.
	EventPathSetup
	EventPathSetupFail
	EventPathGrant
	EventPathPartial
	EventPathDeny
	EventPathTeardown

	// Hop-level mesh kinds: one slow or denying hop's effect on the path.
	// These carry the hop's name in Event.Hop.
	EventHopTimeout
	EventHopRollback
)

var eventKindNames = [...]string{
	EventSetup:         "setup",
	EventSetupReject:   "setup-reject",
	EventRenegGrant:    "renegotiate-grant",
	EventRenegDeny:     "renegotiate-deny",
	EventResync:        "resync",
	EventTeardown:      "teardown",
	EventPathSetup:     "path-setup",
	EventPathSetupFail: "path-setup-fail",
	EventPathGrant:     "path-grant",
	EventPathPartial:   "path-partial",
	EventPathDeny:      "path-deny",
	EventPathTeardown:  "path-teardown",
	EventHopTimeout:    "hop-timeout",
	EventHopRollback:   "hop-rollback",
}

// String returns the stable wire name of the kind ("setup",
// "renegotiate-grant", ...).
func (k EventKind) String() string {
	if int(k) < len(eventKindNames) && eventKindNames[k] != "" {
		return eventKindNames[k]
	}
	return "unknown"
}

// Event is one per-VC lifecycle event.
type Event struct {
	// Seq is the global 1-based sequence number of the event, assigned by
	// the ring at record time; gaps in a dump reveal how much the ring
	// overwrote.
	Seq uint64
	// Time is the wall-clock event time.
	Time time.Time
	// Kind says what happened.
	Kind EventKind
	// VPI, VCI, and Port identify the circuit. VPI is zero for the common
	// single-path address space.
	VPI  uint8
	VCI  uint16
	Port int
	// Rate is the reserved rate in force after the event, bits/second.
	Rate float64
	// Requested is the rate asked for, where it differs from Rate (denied
	// or rejected requests); zero otherwise.
	Requested float64
	// Hop names the mesh hop an event is scoped to, for the hop-level
	// kinds; empty for single-switch and path-level events.
	Hop string
}

// eventJSON is the exported JSON schema of an Event (documented in
// DESIGN.md; keep the two in sync).
type eventJSON struct {
	Seq       uint64  `json:"seq"`
	Time      string  `json:"time"` // RFC 3339 with nanoseconds
	Kind      string  `json:"kind"`
	VPI       uint8   `json:"vpi,omitempty"`
	VCI       uint16  `json:"vci"`
	Port      int     `json:"port"`
	Rate      float64 `json:"rate_bps"`
	Requested float64 `json:"requested_bps,omitempty"`
	Hop       string  `json:"hop,omitempty"`
}

// MarshalJSON renders the event with a string kind and RFC 3339 timestamp.
func (e Event) MarshalJSON() ([]byte, error) {
	return json.Marshal(eventJSON{
		Seq:       e.Seq,
		Time:      e.Time.Format(time.RFC3339Nano),
		Kind:      e.Kind.String(),
		VPI:       e.VPI,
		VCI:       e.VCI,
		Port:      e.Port,
		Rate:      e.Rate,
		Requested: e.Requested,
		Hop:       e.Hop,
	})
}

// EventLog is a fixed-capacity circular log of per-VC events. Recording is
// O(1), allocation-free, and overwrites the oldest entry when full. All
// methods are safe for concurrent use and on a nil receiver (which drops
// events).
type EventLog struct {
	mu    sync.Mutex
	buf   []Event
	next  int    // index of the slot the next event goes into
	total uint64 // events ever recorded
}

// NewEventLog returns a ring holding the last n events (minimum 1).
func NewEventLog(n int) *EventLog {
	if n < 1 {
		n = 1
	}
	return &EventLog{buf: make([]Event, 0, n)}
}

// Record stamps the event's sequence number (and its time, if unset) and
// stores it, overwriting the oldest event when the ring is full.
func (r *EventLog) Record(e Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.total++
	e.Seq = r.total
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
		return
	}
	r.buf[r.next] = e
	r.next = (r.next + 1) % cap(r.buf)
}

// Total returns the number of events ever recorded (not just retained).
func (r *EventLog) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Events returns the retained events, oldest first.
func (r *EventLog) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.buf))
	if len(r.buf) < cap(r.buf) {
		return append(out, r.buf...)
	}
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}
