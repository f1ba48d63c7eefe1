// Package switchfab implements the RCBR switch controller of Section III of
// the paper. The design goal is the paper's: because all admitted traffic is
// (renegotiated) CBR, the switch needs no per-VC queueing or scheduling
// state — only, per output port, the capacity and current reserved
// utilization, and per VC, the output port and reserved rate. Handling a
// renegotiation RM cell is exactly the paper's two lookups and one compare:
// find the VC's output port, fetch the port's utilization and capacity, and
// grant the request iff utilization plus the rate difference stays within
// capacity; otherwise mark the backward cell denied and keep the old rate.
//
// The books are integers: a port's capacity and reservation and each VC's
// rate count 2⁻⁹ b/s, the lattice of the RM cell's rate code. A rate is
// rounded to the nearest unit once, where it enters the switch, and every
// figure the switch reports is the booked one, so a port's reservation is the
// exact sum of its VCs' rates in any order and the one compare is on integers
// (the float64 figures the switch reports are exact below 2⁴⁴ b/s).
//
// Call setup (the expensive signaling path: route choice, VC allocation,
// admission control) is a separate method, mirroring the paper's split
// between heavyweight setup and lightweight renegotiation. Its one admission
// policy beyond the capacity check is the Section VI measurement-based
// scheme, MemoryAdmitter.
//
// Concurrency: the VC table is internal/vctable's direct-index table, the same
// one the cell path uses, keyed by the 24-bit VCID. Lookups take no lock. Each
// port has its own mutex guarding its reservation and the rate, RM sequence
// state and gone flag of the VCs homed on it; every operation on a VC reaches
// it through lockVC — look it up, lock its port, check gone — so a
// renegotiation touches exactly one mutex, and one that raced a teardown (it
// found the entry just before the teardown unpublished it) sees gone set and
// reports ErrNoVC. Setup checks for a duplicate, decides capacity and
// admission, publishes the entry and reserves under one hold of the target
// port's mutex, so setups on different ports overlap except for the table's
// own writer mutex — a leaf taken under the port mutex, the same order the
// DataPlane hooks use for the cell path's table. Teardown runs the admitter
// and DataPlane hooks before it unpublishes the entry, still under the port
// mutex: until the id is free no setup can reuse it, so a setup of the same id
// on another port never reaches the data plane ahead of the teardown. A
// granted rate change is stored into the VC's rate word, which the data plane
// handed over at setup, under the same mutex. Never two port locks at once. A
// MemoryAdmitter's controller for a port lives on the port and is guarded by
// the port's mutex, so admission and its bookkeeping take no mutex of their
// own.
// Activity counters are atomics, published into the registry as views.
//
// Time: the switch reads one clock, metrics.Nanotime, and only for what
// uses a reading. A setup reads it once on the way in when the switch has a
// MemoryAdmitter: that reading starts the call's dwell history. A
// renegotiation (RenegotiateID, RenegotiateBestID, HandleRM) reads it on the
// way in when the switch has a MemoryAdmitter or a registry, and once more on
// the way out to observe switch.renegotiation_seconds when it has a
// registry. A teardown never reads it, and neither does a switch with no
// registry and no MemoryAdmitter. A reading is handed down, never asked for
// again. It is taken before the port mutex, so two operations on one port may
// hand the policy readings a lock wait out of order; admission.LiveMemory
// counts a non-positive dwell as none.
//
// VC identifiers: the paper's switch is an ATM switch, so a VC is named by
// the cell header's (VPI, VCI) pair — 24 bits, far past the 65,536 circuits
// a bare 16-bit VCI allows. Every operation takes a full VCID (SetupID,
// TeardownID, RenegotiateID, VC, ...); Setup(uint16) alone addresses VPI 0.
// HandleRM always honors the header's VPI, so cell-driven signaling reaches
// the whole space.
//
// RM-cell sequence numbers: delta cells are not idempotent, and a resync
// that a later request overtook asserts a rate the source has moved on
// from, so the switch tracks the last-seen sequence number per VC and drops
// any sequenced cell at or below it, acknowledging with the current
// absolute rate instead. Seq 0 marks an unsequenced (legacy) cell and
// bypasses the check; an unsequenced resync also clears the VC's last-seen
// number, which is how a restarted source (sequence counter back at 1)
// re-adopts a VC.
//
// Construction uses functional options (WithAdmitter, WithMetrics,
// WithEventTrace, WithDataPlane); observability is opt-in and free when absent,
// because every instrument is nil-safe and cached at construction time — the
// renegotiation hot path never looks anything up by name.
package switchfab

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"rcbr/internal/admission"
	"rcbr/internal/cell"
	"rcbr/internal/metrics"
	"rcbr/internal/vctable"
)

// Errors returned by switch operations.
var (
	ErrNoPort      = errors.New("switchfab: no such port")
	ErrPortExists  = errors.New("switchfab: port already exists")
	ErrNoVC        = errors.New("switchfab: no such VC")
	ErrVCExists    = errors.New("switchfab: VC already exists")
	ErrAdmission   = errors.New("switchfab: call rejected by admission control")
	ErrCapacity    = errors.New("switchfab: insufficient port capacity")
	ErrInvalidRate = errors.New("switchfab: invalid rate")
)

// IsReject reports whether err is an ordinary call rejection — admission
// control or insufficient capacity — as opposed to a caller mistake (bad
// rate, unknown port, duplicate VC). Load generators count rejections and
// carry on; everything else is a bug worth surfacing.
func IsReject(err error) bool {
	return errors.Is(err, ErrAdmission) || errors.Is(err, ErrCapacity)
}

// VCID names a virtual channel by its ATM (VPI, VCI) pair packed into 24
// bits: VPI in bits 16-23, VCI in bits 0-15. The zero-VPI subspace is what
// a bare 16-bit VCI addresses: an untyped constant converts.
type VCID uint32

// MakeVCID packs a (VPI, VCI) pair.
func MakeVCID(vpi uint8, vci uint16) VCID {
	return VCID(vpi)<<16 | VCID(vci)
}

// VPI returns the virtual-path half of the identifier.
func (id VCID) VPI() uint8 { return uint8(id >> 16) }

// VCI returns the virtual-channel half of the identifier.
func (id VCID) VCI() uint16 { return uint16(id) }

// String renders "vpi.vci" (or just the VCI for VPI 0, the common case).
func (id VCID) String() string {
	if id.VPI() == 0 {
		return fmt.Sprintf("%d", id.VCI())
	}
	return fmt.Sprintf("%d.%d", id.VPI(), id.VCI())
}

// callRecord is the per-call history the memory-based scheme keeps for a call
// it admitted, whose level is that of vcState.rate. Its layout belongs to
// admission.LiveMemory; the switch allocates it inside the VC's record
// (vcWithCall) and hands it to nothing but the port's controller. A teardown
// sets the VC gone under the port mutex first, so no move follows a leave.
type callRecord = admission.Call

// RateWord is a VC's granted rate as a data plane reads it: one float64 in
// an atomic word. The data plane owns the word — the forwarder's is a field
// of its per-VC entry — and hands the switch a pointer to it at setup; from
// then on the switch stores every granted rate change there, so a
// renegotiation retargets the shaper without looking the VC up a second
// time. The zero word reads 0.
type RateWord struct{ bits atomic.Uint64 }

// Load returns the rate.
func (w *RateWord) Load() float64 { return math.Float64frombits(w.bits.Load()) }

// Store sets the rate.
func (w *RateWord) Store(rate float64) { w.bits.Store(math.Float64bits(rate)) }

// DataPlane mirrors VC lifecycle changes into a forwarding plane (the cell
// data path of internal/datapath, or any other consumer of granted rates):
// two hooks and a rate word. Both hooks run with the affected VC's port
// mutex held, after every admission decision, so the data plane sees
// lifecycle events in the exact order the control plane committed them.
// Hooks must not block and must not call back into the switch.
//
// A rate change is no hook: OnSetup returns the VC's RateWord, and the
// switch stores each granted rate there, under the port mutex, and never a
// rate the fabric rejected. It stores nothing there once OnTeardown has
// been called for that setup: the word is retired, and a later setup of the
// same id hands over a fresh one.
type DataPlane interface {
	// OnSetup routes VC id to egress port at its booked rate and returns its
	// rate word (nil if the data plane keeps none). An error refuses the
	// setup: the switch undoes it — no entry, no reservation, no admitter
	// record — and returns the error to its caller.
	OnSetup(port int, id VCID, rate float64) (*RateWord, error)
	// OnTeardown notifies that VC id left port.
	OnTeardown(port int, id VCID)
}

// Stats is a snapshot of switch activity counters.
type Stats struct {
	Setups       int64
	SetupRejects int64
	Teardowns    int64
	// Renegotiations is Grants + Denials, summed when the snapshot is taken.
	Renegotiations int64
	// Grants counts renegotiations and resyncs applied, in full or in part.
	Grants  int64
	Denials int64
	// PartialGrants counts RenegotiateBestID requests settled below the
	// asked-for rate but above the old one (denials and full grants are
	// counted under Denials and Renegotiations as usual).
	PartialGrants int64
	Resyncs       int64
	// DupDrops counts sequenced RM cells, delta or resync, dropped as
	// delayed duplicates (see HandleRM).
	DupDrops int64
	// ReservedClamps is always 0: integer books never go negative. It stays
	// for its last reader, bench/cells.go; ROADMAP item 6a deletes it.
	ReservedClamps int64
}

// statCounters is the live (atomic) form of Stats, safe to bump from
// concurrent per-port renegotiations.
type statCounters struct {
	setups        atomic.Int64
	setupRejects  atomic.Int64
	teardowns     atomic.Int64
	grants        atomic.Int64
	denials       atomic.Int64
	partialGrants atomic.Int64
	resyncs       atomic.Int64
	dupDrops      atomic.Int64
}

// units is a rate as the switch books it: a whole number of 2⁻⁹ b/s, the
// lattice cell.EncodeRate16's codes 2^e·(1+m/512), e ≥ 0, lie on.
type units int64

// book converts a rate validRate accepted to the nearest unit.
func book(rate float64) units { return units(math.Round(rate * 512)) }

// bps is the booked rate in b/s, exact below 2⁵³ units (2⁴⁴ b/s).
func (u units) bps() float64 { return float64(u) / 512 }

type port struct {
	id       int
	capacity units
	// slot is the port's index in the switch's port table, which is how a
	// VC names it.
	slot uint16

	// mu guards reserved, mbac and the rate/sequence state of every VC
	// homed on this port, so renegotiations on different ports never
	// contend.
	mu       sync.Mutex
	reserved units
	// mbac is the port's controller when the switch runs a MemoryAdmitter,
	// built by AddPort; nil otherwise.
	mbac *admission.LiveMemory

	// reservedGauge mirrors reserved into the metrics registry; nil (a
	// no-op) when the switch has no registry.
	reservedGauge *metrics.Gauge
}

// vcState is one VC's record: 32 bytes (pinned by TestVCStateSize), which is
// all a VC costs the switch without an MBAC. Every field but slot is guarded
// by the owning port's mutex.
type vcState struct {
	// rec is the call's MBAC record, allocated with this one (vcWithCall):
	// nil unless the port has a MemoryAdmitter controller.
	rec *callRecord
	// word is the rate word the data plane handed over at setup, the
	// shaper's mailbox; nil without a data plane.
	word *RateWord
	rate units
	// lastSeq is 0 until the VC's first sequenced RM cell (Seq 0 means
	// unsequenced).
	lastSeq uint32
	// slot is the VC's output port, fixed at setup: its index in the
	// switch's port table, so the renegotiation hot path never searches it.
	// Sixteen bits where a pointer would take 64 keep the record at 32
	// bytes.
	slot uint16
	// gone is set by teardown. Lookups are lock-free, so an operation may
	// find the entry just before teardown unpublishes it and reach the port
	// mutex after; it sees gone and reports ErrNoVC.
	gone bool
}

// vcWithCall is the record of a VC on a port with an MBAC controller: the
// VC's record and its call record in one 96-byte allocation.
type vcWithCall struct {
	vcState
	call callRecord
}

// Metric and event names exposed by the switch.
const (
	MetricSetups       = "switch.setups"
	MetricSetupRejects = "switch.setup_rejects"
	MetricTeardowns    = "switch.teardowns"
	MetricRenegs       = "switch.renegotiations"
	MetricGrants       = "switch.renegotiation_grants"
	MetricDenials      = "switch.renegotiation_denials"
	// MetricPartialGrants counts RenegotiateBestID settlements strictly
	// between the old and the requested rate.
	MetricPartialGrants = "switch.renegotiation_partial_grants"
	MetricResyncs       = "switch.resyncs"
	MetricDupDrops      = "switch.rm_duplicates_dropped"
	MetricRenegLatency  = "switch.renegotiation_seconds"
)

// PortReservedGauge returns the registry name of a port's reserved-rate
// gauge.
func PortReservedGauge(portID int) string {
	return fmt.Sprintf("switch.port.%d.reserved_bps", portID)
}

// PortCapacityGauge returns the registry name of a port's capacity gauge.
func PortCapacityGauge(portID int) string {
	return fmt.Sprintf("switch.port.%d.capacity_bps", portID)
}

// portTable holds a switch's ports twice over: bySlot in the order AddPort
// added them, so a VC names its port by a 16-bit slot, and byID sorted by
// id, for the calls that name a port (SetupID, PortLoad, AddPort's duplicate
// check), which search it.
type portTable struct {
	bySlot []*port
	byID   []*port
}

// find returns where id is or would be in byID, and whether it is there.
func (t *portTable) find(id int) (int, bool) {
	return slices.BinarySearchFunc(t.byID, id, func(p *port, id int) int { return cmp.Compare(p.id, id) })
}

// Switch is a software RCBR switch. It is safe for concurrent use;
// renegotiations contend only when they share an output port.
type Switch struct {
	vcs vctable.Table[vcState]

	// ports is the port table, read without a lock and republished whole
	// by AddPort under portMu. Each port's accounting has its own mutex.
	portMu sync.Mutex
	ports  atomic.Pointer[portTable]

	// mbac is the admission policy WithAdmitter installed (each port holds
	// its own controller); nil admits every call that fits.
	mbac *MemoryAdmitter
	// dataplane, when set, receives every committed VC lifecycle change.
	dataplane DataPlane
	stats     statCounters

	reg *metrics.Registry
	// renegLatency is switch.renegotiation_seconds: nil, a no-op, without a
	// registry. Counters are not cached: the registry reads statCounters
	// through views (see New).
	renegLatency *metrics.Histogram
	events       *metrics.EventLog

	// clock is metrics.Nanotime; a field so this package's tests can script
	// it. timed is whether a renegotiation uses a reading — the registry's
	// latency histogram or a MemoryAdmitter's dwell history; without either
	// it never calls clock. A setup calls it only for a MemoryAdmitter.
	clock func() int64
	timed bool
}

// Option configures a Switch at construction time.
type Option func(*Switch)

// WithAdmitter installs the call-admission policy consulted at setup time,
// which follows every admitted call through its rate changes and departure.
// A nil admitter (the default) admits every call that fits within capacity.
func WithAdmitter(a *MemoryAdmitter) Option {
	return func(s *Switch) { s.mbac = a }
}

// WithMetrics publishes the switch's counters, per-port reserved gauges,
// and the renegotiation latency histogram into reg.
func WithMetrics(reg *metrics.Registry) Option {
	return func(s *Switch) { s.reg = reg }
}

// WithEventTrace records per-VC lifecycle events (setup, renegotiate-grant,
// renegotiate-deny, resync, teardown, ...) into ring.
func WithEventTrace(ring *metrics.EventLog) Option {
	return func(s *Switch) { s.events = ring }
}

// WithDataPlane attaches a forwarding plane: every setup and teardown is
// mirrored into dp, and every granted rate change stored into the VC's rate
// word, under the VC's port mutex, so a renegotiation atomically retargets
// the VC's shaper the moment it is granted.
func WithDataPlane(dp DataPlane) Option {
	return func(s *Switch) { s.dataplane = dp }
}

// New returns an empty switch configured by the options. With no options it
// admits every call that fits within port capacity and records nothing.
func New(opts ...Option) *Switch {
	s := &Switch{clock: metrics.Nanotime}
	s.ports.Store(new(portTable))
	for _, opt := range opts {
		opt(s)
	}
	s.timed = s.reg != nil || s.mbac != nil
	if s.reg != nil {
		s.renegLatency = s.reg.Histogram(MetricRenegLatency, metrics.FastBuckets)
		// One counter per fact: the registry reads the Stats counters when
		// it is read instead of the switch bumping a second counter per
		// event.
		s.reg.CounterFunc(MetricSetups, s.stats.setups.Load)
		s.reg.CounterFunc(MetricSetupRejects, s.stats.setupRejects.Load)
		s.reg.CounterFunc(MetricTeardowns, s.stats.teardowns.Load)
		s.reg.CounterFunc(MetricRenegs, func() int64 { return s.stats.grants.Load() + s.stats.denials.Load() })
		s.reg.CounterFunc(MetricGrants, s.stats.grants.Load)
		s.reg.CounterFunc(MetricDenials, s.stats.denials.Load)
		s.reg.CounterFunc(MetricPartialGrants, s.stats.partialGrants.Load)
		s.reg.CounterFunc(MetricResyncs, s.stats.resyncs.Load)
		s.reg.CounterFunc(MetricDupDrops, s.stats.dupDrops.Load)
	}
	return s
}

// maxRate bounds every rate the switch books, 2⁵² b/s (2⁶¹ units), so no sum
// it forms, a capacity plus a rate, overflows int64.
const maxRate = 1 << 52

// validRate reports whether rate is usable as a reservation figure: in
// [0, maxRate]. The comparison form matters: NaN fails every ordered
// comparison, so the naive `rate < 0` rejection would let it through.
func validRate(rate float64) bool {
	return rate >= 0 && rate <= maxRate
}

// port resolves a registered port by id, or nil, without a lock.
func (s *Switch) port(id int) *port {
	t := s.ports.Load()
	if i, ok := t.find(id); ok {
		return t.byID[i]
	}
	return nil
}

// portAt resolves a VC's port from its slot, without a lock.
func (s *Switch) portAt(slot uint16) *port {
	return s.ports.Load().bySlot[slot]
}

// maxPorts is how many ports a switch holds: as many as a VC's 16-bit slot
// can name.
const maxPorts = 1 << 16

// AddPort registers an output port with the given capacity in bits/second.
// The capacity must be a valid rate that books to at least one unit. With a
// MemoryAdmitter installed the port gets its own controller, and an id the
// admitter already serves for another switch is refused.
func (s *Switch) AddPort(id int, capacity float64) error {
	if !validRate(capacity) || book(capacity) <= 0 {
		return fmt.Errorf("%w: capacity %g", ErrInvalidRate, capacity)
	}
	s.portMu.Lock()
	defer s.portMu.Unlock()
	old := s.ports.Load()
	at, exists := old.find(id)
	if exists {
		return fmt.Errorf("%w: %d", ErrPortExists, id)
	}
	if len(old.bySlot) == maxPorts {
		return fmt.Errorf("switchfab: port %d: the switch holds %d ports already", id, maxPorts)
	}
	p := &port{id: id, capacity: book(capacity), slot: uint16(len(old.bySlot))}
	if s.mbac != nil {
		if err := s.mbac.adopt(p); err != nil {
			return err
		}
	}
	if s.reg != nil {
		s.reg.Gauge(PortCapacityGauge(id)).Set(p.capacity.bps())
		p.reservedGauge = s.reg.Gauge(PortReservedGauge(id))
		p.reservedGauge.Set(0)
	}
	t := &portTable{
		bySlot: append(old.bySlot[:len(old.bySlot):len(old.bySlot)], p),
		byID:   make([]*port, 0, len(old.byID)+1),
	}
	t.byID = append(append(append(t.byID, old.byID[:at]...), p), old.byID[at:]...)
	s.ports.Store(t)
	return nil
}

// setReserved updates a port's reservation and its mirrored gauge together.
// The port's mutex must be held.
func setReserved(p *port, v units) {
	p.reserved = v
	p.reservedGauge.Set(v.bps())
}

// Setup is SetupID addressing VPI 0. It is the last of the uint16 twins:
// bench/rtt.go:101 and bench/probes.go:280 call it, and it goes when the
// benchmark driver moves to SetupID.
func (s *Switch) Setup(vci uint16, portID int, rate float64) error {
	return s.SetupID(VCID(vci), portID, rate)
}

// SetupID establishes a VC on an output port at an initial rate: the
// heavyweight signaling path, subject to admission control and the hard
// capacity check. An id wider than 24 bits names no VC — no cell header can
// carry it — and is refused before the books are touched. Setups on
// different ports run concurrently: the duplicate check, the capacity and
// admission decisions, the publication of the entry and the reservation all
// happen under one hold of the target port's mutex, so no concurrent setup
// can invalidate the decision. Two setups of one id on different ports are
// arbitrated by the table: the second Put fails and nothing was reserved for
// it. A setup the data plane refuses (an egress port it lacks) is undone
// before anything is reserved and fails with the data plane's error, which
// is not a reject.
func (s *Switch) SetupID(id VCID, portID int, rate float64) error {
	if id>>24 != 0 {
		return fmt.Errorf("switchfab: vc id %#x is wider than 24 bits", uint32(id))
	}
	if !validRate(rate) {
		return fmt.Errorf("%w: %g", ErrInvalidRate, rate)
	}
	r := book(rate)
	// A setup's one reading is the start of the call's dwell history, so
	// only a MemoryAdmitter's switch takes it.
	var now int64
	if s.mbac != nil {
		now = s.clock()
	}
	p := s.port(portID)
	if p == nil {
		return fmt.Errorf("%w: %d", ErrNoPort, portID)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if s.vcs.Get(uint32(id)) != nil {
		return fmt.Errorf("%w: %s", ErrVCExists, id)
	}
	if p.reserved+r > p.capacity {
		s.rejectSetup(id, portID, r)
		return fmt.Errorf("%w: port %d has %g of %g reserved",
			ErrCapacity, portID, p.reserved.bps(), p.capacity.bps())
	}
	var vc *vcState
	if p.mbac != nil {
		if !p.mbac.Admit(seconds(now), r.bps()) {
			s.rejectSetup(id, portID, r)
			return ErrAdmission
		}
		o := &vcWithCall{vcState: vcState{rate: r, slot: p.slot}, call: *admission.NewCall()}
		o.rec = &o.call
		vc = &o.vcState
	} else {
		vc = &vcState{rate: r, slot: p.slot}
	}
	if s.vcs.Put(uint32(id), vc) != nil {
		// A setup of the same id on another port published first.
		return fmt.Errorf("%w: %s", ErrVCExists, id)
	}
	if s.dataplane != nil {
		w, err := s.dataplane.OnSetup(portID, id, r.bps())
		if err != nil {
			// Undone as TeardownID undoes a VC, with nothing reserved yet: an
			// operation that found the entry meanwhile sees it gone.
			vc.gone = true
			s.vcs.Remove(uint32(id))
			return fmt.Errorf("switchfab: setup of %s on port %d: %w", id, portID, err)
		}
		vc.word = w
	}
	setReserved(p, p.reserved+r)
	if vc.rec != nil {
		p.mbac.Enter(vc.rec, seconds(now), r.bps())
	}
	s.stats.setups.Add(1)
	s.events.Record(metrics.Event{Kind: metrics.EventSetup, VPI: id.VPI(), VCI: id.VCI(), Port: portID, Rate: r.bps()})
	return nil
}

// enter is a renegotiation's one clock reading, taken on the way in: the
// start of its latency observation and the time the admission policy sees. A
// switch that times nothing does not read the clock.
func (s *Switch) enter() int64 {
	if !s.timed {
		return 0
	}
	return s.clock()
}

// observe records the time since a renegotiation's entry reading into
// switch.renegotiation_seconds; on a switch without a registry the histogram
// is nil and the clock is not read. It is observed on every path past
// argument validation — granted, denied, dropped as a duplicate or failed on
// an unknown VC — so its count is the renegotiations attempted.
func (s *Switch) observe(entered int64) {
	if s.renegLatency != nil {
		s.renegLatency.Observe(seconds(s.clock() - entered))
	}
}

func (s *Switch) rejectSetup(id VCID, portID int, rate units) {
	s.stats.setupRejects.Add(1)
	s.events.Record(metrics.Event{
		Kind: metrics.EventSetupReject, VPI: id.VPI(), VCI: id.VCI(), Port: portID, Requested: rate.bps(),
	})
}

// lockVC is how every operation reaches an established VC: it looks the VC
// up, locks its port and checks gone. On success the caller holds the port's
// mutex and unlocks it; for a VC that is missing, or that a teardown set gone
// after the lookup found it, nothing is held and the error is ErrNoVC.
func (s *Switch) lockVC(id VCID) (*vcState, *port, error) {
	vc := s.vcs.Get(uint32(id))
	if vc == nil {
		return nil, nil, fmt.Errorf("%w: %s", ErrNoVC, id)
	}
	p := s.portAt(vc.slot)
	p.mu.Lock()
	if vc.gone {
		p.mu.Unlock()
		return nil, nil, fmt.Errorf("%w: %s", ErrNoVC, id)
	}
	return vc, p, nil
}

// TeardownID releases a VC and its reservation. The admitter and data-plane
// hooks run before the entry is unpublished: while the id is still taken no
// setup can reuse it, so a setup of the same id on another port cannot reach
// the data plane ahead of this teardown.
func (s *Switch) TeardownID(id VCID) error {
	vc, p, err := s.lockVC(id)
	if err != nil {
		return err
	}
	defer p.mu.Unlock()
	setReserved(p, p.reserved-vc.rate)
	if vc.rec != nil {
		p.mbac.Leave(vc.rec, vc.rate.bps())
	}
	if s.dataplane != nil {
		s.dataplane.OnTeardown(p.id, id)
	}
	vc.gone = true
	s.vcs.Remove(uint32(id))
	s.stats.teardowns.Add(1)
	s.events.Record(metrics.Event{Kind: metrics.EventTeardown, VPI: id.VPI(), VCI: id.VCI(), Port: p.id})
	return nil
}

// RenegotiateID applies a rate change request for a VC: the paper's
// lightweight path. Decreases always succeed; an increase succeeds iff the
// port stays within capacity. It returns the rate now in force and whether
// the request was granted in full: ok when the request booked to the rate
// now in force.
func (s *Switch) RenegotiateID(id VCID, newRate float64) (granted float64, ok bool, err error) {
	if !validRate(newRate) {
		return 0, false, fmt.Errorf("%w: %g", ErrInvalidRate, newRate)
	}
	r := book(newRate)
	now := s.enter()
	defer s.observe(now)
	vc, p, err := s.lockVC(id)
	if err != nil {
		return 0, false, err
	}
	defer p.mu.Unlock()
	g, ok := s.applyRate(id, vc, p, now, r, r, metrics.EventRenegGrant)
	return g.bps(), ok, nil
}

// RenegotiateBestID applies a rate change granting the most the VC's port
// can carry instead of all-or-nothing: the target if it fits, otherwise the
// largest rate between the current rate and the target that stays within
// capacity (a partial grant). Decreases are always granted in full, exactly
// as in RenegotiateID. The decision is made under the port mutex, so the
// granted rate is the port's true best at the moment of the call — there is
// no query-then-retry window for a concurrent setup to invalidate. It
// returns the rate now in force and whether the full target was granted
// (the target booked to the rate now in force); a VC left at its old rate
// by a zero-headroom port reports full=false and is accounted as a denial.
func (s *Switch) RenegotiateBestID(id VCID, target float64) (granted float64, full bool, err error) {
	if !validRate(target) {
		return 0, false, fmt.Errorf("%w: %g", ErrInvalidRate, target)
	}
	t := book(target)
	now := s.enter()
	defer s.observe(now)
	vc, p, err := s.lockVC(id)
	if err != nil {
		return 0, false, err
	}
	defer p.mu.Unlock()
	best := t
	if p.reserved-vc.rate+t > p.capacity {
		// Exact books keep reserved within capacity: no negative headroom.
		best = vc.rate + p.capacity - p.reserved
	}
	if best == vc.rate && t > vc.rate {
		// Zero headroom: a flat denial; the source keeps what it has
		// (III-A.1). Record it on the deny path, not as a grant of the
		// old rate.
		s.stats.denials.Add(1)
		s.events.Record(metrics.Event{
			Kind: metrics.EventRenegDeny, VPI: id.VPI(), VCI: id.VCI(), Port: p.id,
			Rate: vc.rate.bps(), Requested: t.bps(),
		})
		return vc.rate.bps(), false, nil
	}
	g, _ := s.applyRate(id, vc, p, now, best, t, metrics.EventRenegGrant)
	full = g == t
	if !full {
		s.stats.partialGrants.Add(1)
	}
	return g.bps(), full, nil
}

// applyRate is the paper's one-compare renegotiation decision. It must be
// called with p.mu held, on a VC that is not gone. now is the operation's
// entry clock reading, for the admitter's dwell history.
// grantKind is the event recorded on success (renegotiate-grant, or resync
// when the request carried an absolute rate). requested is the rate the
// source originally asked for; it differs from newRate only on the partial
// settlements of RenegotiateBestID and is surfaced in the grant event so
// the trace shows the shortfall.
func (s *Switch) applyRate(id VCID, vc *vcState, p *port, now int64, newRate, requested units, grantKind metrics.EventKind) (units, bool) {
	if p.reserved-vc.rate+newRate <= p.capacity {
		old := vc.rate
		setReserved(p, p.reserved+newRate-old)
		vc.rate = newRate
		if newRate != old {
			if vc.rec != nil {
				p.mbac.Move(vc.rec, seconds(now), old.bps(), newRate.bps())
			}
			if vc.word != nil {
				vc.word.Store(newRate.bps())
			}
		}
		s.stats.grants.Add(1)
		ev := metrics.Event{
			Kind: grantKind, VPI: id.VPI(), VCI: id.VCI(), Port: p.id, Rate: newRate.bps(),
		}
		if requested != newRate {
			ev.Requested = requested.bps()
		}
		s.events.Record(ev)
		return newRate, true
	}
	// Denied: the source keeps the bandwidth it already has (III-A.1).
	s.stats.denials.Add(1)
	s.events.Record(metrics.Event{
		Kind: metrics.EventRenegDeny, VPI: id.VPI(), VCI: id.VCI(), Port: p.id,
		Rate: vc.rate.bps(), Requested: newRate.bps(),
	})
	return vc.rate, false
}

// HandleRM processes a forward RCBR RM cell and returns the backward cell.
// Delta cells adjust the rate by ER with the sign of Decrease; resync cells
// assert the absolute rate. The returned cell echoes the request with
// Backward and Response set, Deny set on failure, and ER carrying the rate
// now in force (absolute), so the source can resynchronize from any reply.
// The VC is addressed by the header's full (VPI, VCI) pair.
//
// Sequenced cells (Seq != 0) at or below the VC's last-seen sequence number
// are dropped as delayed duplicates: a delta there was already superseded by
// the sender's idempotent resync retry, and applying it again would leave
// the rate off by the delta forever; a resync there is a retry that the
// source's next request overtook, and applying it would put the VC back at
// a rate the source no longer believes. The reply to a dropped duplicate
// carries the current absolute rate with Resync set and is not a denial. An
// unsequenced resync always applies and clears the last-seen number.
func (s *Switch) HandleRM(h cell.Header, m cell.RM) (cell.RM, error) {
	if m.Backward || m.Response {
		return cell.RM{}, fmt.Errorf("switchfab: HandleRM on a backward/response cell")
	}
	if !validRate(m.ER) {
		return cell.RM{}, fmt.Errorf("%w: %g", ErrInvalidRate, m.ER)
	}
	er := book(m.ER)
	now := s.enter()
	defer s.observe(now)
	id := MakeVCID(h.VPI, h.VCI)
	vc, p, err := s.lockVC(id)
	if err != nil {
		return cell.RM{}, err
	}
	defer p.mu.Unlock()
	if m.Seq != 0 {
		if m.Seq <= vc.lastSeq {
			s.stats.dupDrops.Add(1)
			return cell.RM{
				Backward: true,
				Response: true,
				Resync:   true, // ER below is absolute
				ER:       vc.rate.bps(),
				Seq:      m.Seq,
			}, nil
		}
		vc.lastSeq = m.Seq
	} else if m.Resync {
		vc.lastSeq = 0
	}
	want := vc.rate
	grantKind := metrics.EventRenegGrant
	switch {
	case m.Resync:
		want = er
		grantKind = metrics.EventResync
		s.stats.resyncs.Add(1)
	case m.Decrease:
		want = max(want-er, 0)
	default:
		want += er
	}
	granted, full := s.applyRate(id, vc, p, now, want, want, grantKind)
	return cell.RM{
		Backward: true,
		Response: true,
		Resync:   true, // ER below is absolute: any reply resynchronizes
		Deny:     !full,
		ER:       granted.bps(),
		Seq:      m.Seq,
	}, nil
}

// PortLoad returns a port's reserved rate and capacity.
func (s *Switch) PortLoad(id int) (reserved, capacity float64, err error) {
	p := s.port(id)
	if p == nil {
		return 0, 0, fmt.Errorf("%w: %d", ErrNoPort, id)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.reserved.bps(), p.capacity.bps(), nil
}

// VCCount returns the number of established VCs.
func (s *Switch) VCCount() int {
	return s.vcs.Len()
}

// VCInfo describes one established VC.
type VCInfo struct {
	VPI  uint8   `json:"vpi,omitempty"`
	VCI  uint16  `json:"vci"`
	Port int     `json:"port"`
	Rate float64 `json:"rate_bps"`
}

// info snapshots one table entry under its port mutex; ok is false for an
// entry a teardown is unpublishing.
func (s *Switch) info(id VCID, vc *vcState) (VCInfo, bool) {
	p := s.portAt(vc.slot)
	p.mu.Lock()
	defer p.mu.Unlock()
	return VCInfo{VPI: id.VPI(), VCI: id.VCI(), Port: p.id, Rate: vc.rate.bps()}, !vc.gone
}

// VC returns the established VC named id.
func (s *Switch) VC(id VCID) (VCInfo, error) {
	vc, p, err := s.lockVC(id)
	if err != nil {
		return VCInfo{}, err
	}
	defer p.mu.Unlock()
	return VCInfo{VPI: id.VPI(), VCI: id.VCI(), Port: p.id, Rate: vc.rate.bps()}, nil
}

// VCs returns every established VC in (VPI, VCI) order: VCsPage's walk with
// no limit. The result materializes the whole table, which at million-VC
// populations is memory-hostile; servers should page through VCsPage
// instead.
func (s *Switch) VCs() []VCInfo {
	out, _ := s.VCsPage(0, math.MaxInt)
	return out
}

// VCsPage returns one page of the established-VC table in (VPI, VCI) order —
// up to limit entries starting offset entries in — plus the total VC count
// at scan time. limit <= 0 returns an empty page (with the total, so callers
// can size their paging); a negative offset reads from the start.
//
// Memory is bounded by the page, not the table: the walk is in order, so it
// counts past offset entries, keeps the next limit and stops. The walk takes
// no table lock, so under concurrent setup/teardown a page (like VCs) holds
// every VC that was up throughout the scan and may or may not hold one that
// came or went during it.
func (s *Switch) VCsPage(offset, limit int) ([]VCInfo, int) {
	total := s.VCCount()
	if limit <= 0 {
		return nil, total
	}
	var out []VCInfo
	s.vcs.Range(func(id uint32, vc *vcState) bool {
		if offset > 0 {
			offset--
			return true
		}
		if info, ok := s.info(VCID(id), vc); ok {
			out = append(out, info)
		}
		return len(out) < limit
	})
	return out, total
}

// Stats returns a snapshot of the activity counters.
func (s *Switch) Stats() Stats {
	st := Stats{
		Setups:        s.stats.setups.Load(),
		SetupRejects:  s.stats.setupRejects.Load(),
		Teardowns:     s.stats.teardowns.Load(),
		Grants:        s.stats.grants.Load(),
		PartialGrants: s.stats.partialGrants.Load(),
		Denials:       s.stats.denials.Load(),
		Resyncs:       s.stats.resyncs.Load(),
		DupDrops:      s.stats.dupDrops.Load(),
	}
	st.Renegotiations = st.Grants + st.Denials
	return st
}
