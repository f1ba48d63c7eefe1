// Package datapath is the software cell data path of the RCBR switch: the
// executable form of the paper's Section III-A claim that renegotiated
// traffic needs only small FIFO output buffers. Where internal/mux
// *simulates* a multiplexer queue, this package *forwards* real 53-byte
// cells: SPSC ring buffers on every hop, a batched forwarding loop that
// drains up to K cells per port visit, VCID routing through a direct-index
// table (internal/vctable), and a per-VC token-bucket shaper enforcing the
// currently granted rate.
// Conforming cells are copied to the egress port's ring; excess is policed
// and counted as real per-VC drops, and an egress ring that fills overflows
// — the heuristic's estimated buffer overflows become honestly counted
// cells.
//
// Concurrency model: one goroutine at a time calls Forward with a
// nondecreasing clock — the caller's, since the data path reads none of its
// own — and so is the consumer of every ingress ring and the producer of
// every egress ring. Any number of producer goroutines inject, one per
// ingress port, and one consumer goroutine per egress port calls
// Transmit/TransmitTo (the SPSC contract of both rings). A port's egress
// FIFO is one ring: a VC's cells all enter through one ingress port and
// leave in the order the sweep staged them, so per-VC order — all a shared
// output FIFO owes its VCs — holds by construction. The control plane
// (switchfab via the DataPlane hooks, or direct calls) adds, retargets, and
// removes VCs concurrently with all of it.
//
// Rings are worked in bursts, and a burst stage by stage: a sweep reads a
// port's burst in place and first looks every cell of it up — header check
// and table walk, loads only, so the burst's cache misses overlap instead
// of queueing behind one another's counter updates — then shapes the cells
// in arrival order on the entries it found, stages the conforming ones onto
// egress rings, publishes each touched egress ring with one cursor store
// and releases the ingress ring with another; a Transmit call releases the
// cells it served with one more. Staged cells are published before
// forwardPort returns, so nothing waits on a later burst.
//
// Per-VC shaper state and counters are owned by the forwarding goroutine;
// rate retargets cross from the control plane through a single atomic word,
// the VC's switchfab.RateWord, which the switch stores into directly, and
// teardown only unpublishes the entry (the garbage collector retires it
// once the forwarder has let go, which is at most a burst later). A VC's
// whole forwarding state is one 64-byte cache line. The forwarding path
// takes no lock at all and allocates nothing (pinned by
// TestForwardSteadyStateAllocs).
//
// One counter per fact: a cell that enters, crosses or leaves a ring is
// counted by that ring's cursor and nowhere else; what the sweep decides
// (forwarded, policed, overflow, unroutable, bad header) is counted once
// per VC, its drops flushed to the ingress port's ledger once per burst
// (what the port forwarded is what its ring released less those); the
// registry's datapath.cells_* counters are views computed from the port
// ledgers when the registry is read.
package datapath

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"rcbr/internal/cell"
	"rcbr/internal/metrics"
	"rcbr/internal/shaper"
	"rcbr/internal/switchfab"
	"rcbr/internal/vctable"
)

// CellPayloadBits is the token cost of forwarding one cell: its 48-byte
// payload in bits, the same conversion internal/mux uses, so a granted rate
// in bits/second maps to rate/384 cells/second on both the simulated and
// the real path.
const CellPayloadBits = float64(cell.PayloadSize * 8)

// Metric names owned by this package.
const (
	MetricCellsArrived     = "datapath.cells_arrived"
	MetricCellsForwarded   = "datapath.cells_forwarded"
	MetricCellsPoliced     = "datapath.cells_policed"
	MetricCellsOverflow    = "datapath.cells_overflow"
	MetricCellsUnroutable  = "datapath.cells_unroutable"
	MetricCellsBadHeader   = "datapath.cells_bad_header"
	MetricCellsTransmitted = "datapath.cells_transmitted"
	MetricVCMisses         = "datapath.vc_misses"
	MetricBatchCells       = "datapath.batch_cells"
)

// Defaults.
const (
	// DefaultBurst is the most cells one Forward call drains from one
	// ingress port before moving to the next: large enough to amortize the
	// per-port visit, small enough that one busy port cannot starve the
	// sweep.
	DefaultBurst = 64
	// DefaultRingCells sizes ingress and egress rings. The paper's point is
	// that smooth traffic keeps FIFOs within a few cells per VC; 1024 slots
	// of 53 bytes is ~54 KB per ring.
	DefaultRingCells = 1024
	// DefaultDepthCells is the default shaper depth in cells: the burst a
	// conforming VC may send ahead of its sustained rate.
	DefaultDepthCells = 32
)

// sentinel for a VC that has not yet seen a cell: the first cell sets the
// clock instead of ticking an absurd interval into the bucket.
const unsetNanos = math.MinInt64

// instruments caches registry handles; all nil-safe no-ops without a
// registry.
type instruments struct {
	vcMisses   *metrics.Counter
	batchCells *metrics.Histogram
}

// Port is one switch port's cell rings: an ingress ring filled by the
// port's producer (the wire) and drained by the forwarder, and the egress
// FIFO filled by the forwarder and drained by the port's transmitter.
// Counters are atomic so stats can be read while traffic flows; drops are
// attributed to the *ingress* port the cell arrived on, whichever egress
// ring it failed to enter.
type Port struct {
	id  int
	in  *Ring
	out *Ring
	// lookups is the sweep's scratch, one slot per cell of a burst: stage 1
	// of forwardPort fills it with the cells' table entries, stage 2 clears
	// each slot as it consumes it, so between sweeps every slot is nil and
	// no unpublished entry is kept alive. Owned by the forwarding goroutine,
	// like the ingress ring's consumer cursor.
	lookups []*vcEntry

	// Ingress-attributed drop counts, written by the forwarding goroutine
	// once per burst. Every cell the sweep released from the ingress ring
	// (in.Popped) went into exactly one of these or was forwarded, so the
	// forwarded count is the difference and is not kept. The egress side
	// needs none of its own: enqueued and transmitted are out's cursors.
	badHeader  atomic.Int64
	unroutable atomic.Int64
	policed    atomic.Int64
	overflow   atomic.Int64
}

// ID returns the port number.
func (p *Port) ID() int { return p.id }

// InLen returns the ingress ring occupancy.
func (p *Port) InLen() int { return p.in.Len() }

// OutLen returns the egress ring occupancy — the paper's FIFO output buffer.
func (p *Port) OutLen() int { return p.out.Len() }

// PortStats is a snapshot of one port's counters and queue depths.
type PortStats struct {
	Arrived    int64
	BadHeader  int64
	Unroutable int64
	Policed    int64
	Overflow   int64
	Forwarded  int64

	Enqueued    int64
	Transmitted int64

	InQueued  int
	OutQueued int
}

// Stats snapshots the port. Forwarded is derived: what the ingress ring
// released less the four drop counts, all loaded between two equal reads of
// the release cursor, which also keeps InQueued within [0, capacity]. Exact
// when the port is quiescent. A burst flushes its drops just before it
// releases its cells, so a live Forwarded never runs ahead but may trail by
// the drops of the one burst being finished (and step back by as much on the
// next read); it is held at 0 rather than go below. A VC removed in mid-burst
// changes nothing: its looked-up cells are shaped on the unpublished entry
// and land in these counts like any others.
func (p *Port) Stats() PortStats {
	var s PortStats
	popped := int64(-1)
	for tail := p.in.Popped(); tail != popped; tail = p.in.Popped() {
		popped = tail
		s.BadHeader, s.Unroutable = p.badHeader.Load(), p.unroutable.Load()
		s.Policed, s.Overflow = p.policed.Load(), p.overflow.Load()
		s.Arrived = p.in.Pushed()
	}
	s.InQueued = int(s.Arrived - popped)
	s.Forwarded = max(0, popped-s.BadHeader-s.Unroutable-s.Policed-s.Overflow)
	s.Enqueued, s.Transmitted, s.OutQueued = p.out.Pushed(), p.out.Popped(), p.out.Len()
	return s
}

// vcEntry is one VC's forwarding state: 56 bytes, so one 64-byte allocation
// and one aligned cache line per VC (pinned by TestVCEntryIsOneCacheLine).
// The shaper is a token bucket held as two words — tokens (bits) and
// lastNanos (when they were last refilled) — with its arithmetic in
// shaper.Refill; the bucket's other two parameters are not stored twice:
// its rate is the rate word and its depth is the forwarder's depthBits.
// tokens and lastNanos belong to the forwarding goroutine and are touched
// by nobody else, so they need no lock; the same goroutine is the only
// writer of the three counters, which are atomic for VCStats' sake. The
// rate word is the control plane's mailbox: OnSetup hands the switch its
// address, a granted renegotiation stores the new rate there atomically,
// and the forwarder refills at whatever rate it finds there on the VC's
// next cell, keeping earned credit.
type vcEntry struct {
	egress    *Port              // offset 0
	rate      switchfab.RateWord // 8: granted rate
	tokens    float64            // 16
	lastNanos int64              // 24

	forwarded atomic.Int64 // 32
	policed   atomic.Int64 // 40
	overflow  atomic.Int64 // 48
}

// VCStats is a snapshot of one VC's counters. Seen is their sum: every cell
// the VC's entry was found for was forwarded, policed or overflowed.
type VCStats struct {
	Rate      float64
	Seen      int64
	Forwarded int64
	Policed   int64
	Overflow  int64
}

// Forwarder is the cell data path of one switch. See the package comment
// for the concurrency contract.
type Forwarder struct {
	vcs vctable.Table[vcEntry]

	// portsMu guards the ports map; portList is the forwarding goroutine's
	// lock-free snapshot, republished on every AddPort.
	portsMu  sync.Mutex
	ports    map[int]*Port
	portList atomic.Pointer[[]*Port]

	burst     int
	ringCells int
	depthBits float64

	reg *metrics.Registry
	ins instruments
}

// Option configures a Forwarder.
type Option func(*Forwarder)

// WithRingCells sets the capacity in cells of a port's ingress and egress
// rings, rounded up to a power of two (default DefaultRingCells). The
// egress ring is the paper's small FIFO output buffer, so this is the knob
// an overflow experiment turns. Values < 1 keep the default.
func WithRingCells(n int) Option {
	return func(f *Forwarder) {
		if n >= 1 {
			f.ringCells = n
		}
	}
}

// WithDepthCells sets the per-VC shaper depth in cells (default
// DefaultDepthCells). Values < 1 keep the default.
func WithDepthCells(n int) Option {
	return func(f *Forwarder) {
		if n >= 1 {
			f.depthBits = float64(n) * CellPayloadBits
		}
	}
}

// WithMetrics publishes the datapath.* counters into reg. The cell counters
// are views over the port ledgers, so reg keeps the forwarder's ports
// reachable for as long as it lives.
func WithMetrics(reg *metrics.Registry) Option {
	return func(f *Forwarder) { f.reg = reg }
}

// New returns an empty forwarder: add ports, then VCs, then pump it.
func New(opts ...Option) *Forwarder {
	f := &Forwarder{
		ports:     make(map[int]*Port),
		burst:     DefaultBurst,
		ringCells: DefaultRingCells,
		depthBits: DefaultDepthCells * CellPayloadBits,
	}
	for _, opt := range opts {
		opt(f)
	}
	if f.reg != nil {
		f.ins = instruments{
			vcMisses:   f.reg.Counter(MetricVCMisses),
			batchCells: f.reg.Histogram(MetricBatchCells, metrics.ExpBuckets(1, 2, 12)),
		}
		f.reg.CounterFunc(MetricCellsArrived, f.view(func(s PortStats) int64 { return s.Arrived }))
		f.reg.CounterFunc(MetricCellsForwarded, f.view(func(s PortStats) int64 { return s.Forwarded }))
		f.reg.CounterFunc(MetricCellsPoliced, f.view(func(s PortStats) int64 { return s.Policed }))
		f.reg.CounterFunc(MetricCellsOverflow, f.view(func(s PortStats) int64 { return s.Overflow }))
		f.reg.CounterFunc(MetricCellsUnroutable, f.view(func(s PortStats) int64 { return s.Unroutable }))
		f.reg.CounterFunc(MetricCellsBadHeader, f.view(func(s PortStats) int64 { return s.BadHeader }))
		f.reg.CounterFunc(MetricCellsTransmitted, f.view(func(s PortStats) int64 { return s.Transmitted }))
	}
	empty := []*Port{}
	f.portList.Store(&empty)
	return f
}

// view returns a registry view counter: one PortStats field summed over
// every port, read when the registry is.
func (f *Forwarder) view(field func(PortStats) int64) func() int64 {
	return func() int64 {
		var sum int64
		for _, p := range *f.portList.Load() {
			sum += field(p.Stats())
		}
		return sum
	}
}

// AddPort registers a port and its rings.
func (f *Forwarder) AddPort(id int) (*Port, error) {
	f.portsMu.Lock()
	defer f.portsMu.Unlock()
	if _, ok := f.ports[id]; ok {
		return nil, fmt.Errorf("datapath: port %d exists", id)
	}
	p := &Port{
		id: id, in: NewRing(f.ringCells), out: NewRing(f.ringCells),
		lookups: make([]*vcEntry, f.burst),
	}
	f.ports[id] = p
	old := *f.portList.Load()
	next := make([]*Port, len(old), len(old)+1)
	copy(next, old)
	next = append(next, p)
	f.portList.Store(&next)
	return p, nil
}

// Port returns a registered port, or nil.
func (f *Forwarder) Port(id int) *Port {
	f.portsMu.Lock()
	defer f.portsMu.Unlock()
	return f.ports[id]
}

// AddVC routes a VC to an egress port at a granted rate. The shaper starts
// full: a conforming VC may burst its depth immediately, then sustain rate.
func (f *Forwarder) AddVC(id switchfab.VCID, egressPort int, rate float64) error {
	_, err := f.addVC(id, egressPort, rate)
	return err
}

func (f *Forwarder) addVC(id switchfab.VCID, egressPort int, rate float64) (*vcEntry, error) {
	if err := shaper.Validate(rate, f.depthBits); err != nil {
		return nil, err
	}
	if math.IsInf(rate, 1) {
		return nil, fmt.Errorf("shaper: invalid rate %g", rate)
	}
	out := f.Port(egressPort)
	if out == nil {
		return nil, fmt.Errorf("datapath: no egress port %d", egressPort)
	}
	e := &vcEntry{egress: out, tokens: f.depthBits, lastNanos: unsetNanos}
	e.rate.Store(rate)
	if err := f.vcs.Put(uint32(id), e); err != nil {
		return nil, fmt.Errorf("datapath: vc %#x: %w", uint32(id), err)
	}
	return e, nil
}

// SetVCRate retargets a VC's granted rate. The store is atomic; the
// forwarder refills the bucket at the new rate from the VC's next cell on,
// keeping earned credit (the semantics of shaper.SetRate).
func (f *Forwarder) SetVCRate(id switchfab.VCID, rate float64) error {
	if err := shaper.Validate(rate, 0); err != nil {
		return err
	}
	if math.IsInf(rate, 1) {
		return fmt.Errorf("shaper: invalid rate %g", rate)
	}
	e := f.vcs.Get(uint32(id))
	if e == nil {
		f.ins.vcMisses.Inc()
		return fmt.Errorf("datapath: no vc %s", id)
	}
	e.rate.Store(rate)
	return nil
}

// RemoveVC unpublishes a VC, returning its final stats. It does not wait
// for the forwarder: a sweep looks a whole burst up before it shapes any of
// it, so a sweep that looked the VC up just before may finish up to one
// burst of its cells on the unpublished entry (counted there and in
// the port ledgers like any others, so per-port conservation stays exact),
// and the returned stats are exact when the VC's ingress port is quiescent.
// Cells of the VC already on an egress ring are transmitted like any others.
func (f *Forwarder) RemoveVC(id switchfab.VCID) (VCStats, error) {
	e := f.vcs.Remove(uint32(id))
	if e == nil {
		f.ins.vcMisses.Inc()
		return VCStats{}, fmt.Errorf("datapath: no vc %s", id)
	}
	return e.stats(), nil
}

func (e *vcEntry) stats() VCStats {
	s := VCStats{
		Rate:      e.rate.Load(),
		Forwarded: e.forwarded.Load(),
		Policed:   e.policed.Load(),
		Overflow:  e.overflow.Load(),
	}
	s.Seen = s.Forwarded + s.Policed + s.Overflow
	return s
}

// VCStats snapshots a VC's counters.
func (f *Forwarder) VCStats(id switchfab.VCID) (VCStats, bool) {
	e := f.vcs.Get(uint32(id))
	if e == nil {
		return VCStats{}, false
	}
	return e.stats(), true
}

// VCCount returns the number of routed VCs.
func (f *Forwarder) VCCount() int { return f.vcs.Len() }

// Inject offers a cell to a port's ingress ring — the port's wire-receive
// path, one producer goroutine per port. It reports false when the ring is
// full: the cell was dropped before the switch, as a real line card's
// receive FIFO would.
func (f *Forwarder) Inject(p *Port, c *Cell) bool { return p.in.Push(c) }

// Forward runs one sweep of the forwarding loop at time nowNanos, the
// caller's clock: it visits every port and drains up to a burst
// (DefaultBurst) of cells from each ingress ring, shaping and routing each
// to its egress ring. It returns the number of cells processed (forwarded
// or dropped). One goroutine at a time may call it, and nowNanos must not
// decrease between calls. The batch histogram (its count is the number of
// batches) sees only non-empty sweeps, so an idle polling driver — a
// slot-driven relay — does not drown it in zeros.
func (f *Forwarder) Forward(nowNanos int64) int {
	total := 0
	for _, p := range *f.portList.Load() {
		total += f.forwardPort(p, nowNanos)
	}
	if total > 0 {
		f.ins.batchCells.Observe(float64(total))
	}
	return total
}

// maxTouched is how many distinct egress rings one burst may leave staged
// before it publishes them early: the scratch that lets a burst publish
// what it touched without walking every port.
const maxTouched = 8

// forwardPort drains up to burst cells from one ingress ring, reading them
// in place, and works the burst stage by stage rather than cell by cell.
//
// Stage 1, lookup, is loads only: for every cell of the burst, verify the
// header (table-driven HEC) and index the VC table (three loads, no lock),
// leaving the entry pointer in p.lookups. It writes nothing but that scratch
// and two local counts — a bad header or an unknown VC is decided here and
// its slot left nil — and above all it executes no locked instruction: on
// amd64 an atomic add is a full fence, which in a cell-by-cell loop holds
// the next cell's table walk back until this cell's counter has retired.
// Without one, the burst's walks are independent and their cache misses
// overlap.
//
// Stage 2, shaping, walks the scratch in arrival order. Per routed cell:
// refill the VC's bucket to now at the rate found in its mailbox and take
// one cell's payload worth of tokens; a conforming cell is staged onto the
// egress port's ring (this goroutine is its only producer), a
// non-conforming one is policed, a full egress ring counts an overflow.
// Every cell leaves the ingress ring exactly once, into exactly one per-VC
// counter (or unroutable / bad header).
//
// The burst ends with one head store per egress ring it touched, one flush
// of its totals to the port ledger, and one tail store releasing the
// ingress ring — in that order, so a cell is never off both rings and every
// staged cell is published before the function returns. Lookups lead
// shaping by up to one burst, so a VC removed meanwhile still has that
// burst's cells finished on its unpublished entry (see RemoveVC).
// Only the forwarding goroutine may call this.
func (f *Forwarder) forwardPort(p *Port, now int64) int {
	n := p.in.Ready(f.burst)
	if n == 0 {
		return 0
	}
	var (
		pol, ovf, unr, bad int64
		touched            [maxTouched]*Ring
		nt                 int
	)
	entries := p.lookups[:n]
	for i := range entries {
		c := p.in.At(i)
		h, err := cell.ParseHeader(c[:cell.HeaderSize])
		if err != nil {
			bad++
			continue
		}
		e := f.vcs.Get(uint32(switchfab.MakeVCID(h.VPI, h.VCI)))
		if e == nil {
			unr++
			continue
		}
		entries[i] = e
	}
	for i, e := range entries {
		if e == nil {
			continue
		}
		entries[i] = nil
		if e.lastNanos == unsetNanos {
			e.lastNanos = now
		} else if dt := now - e.lastNanos; dt > 0 {
			e.tokens = shaper.Refill(e.tokens, e.rate.Load(), float64(dt)*1e-9, f.depthBits)
			e.lastNanos = now
		}
		if CellPayloadBits > e.tokens {
			e.policed.Add(1)
			pol++
			continue
		}
		e.tokens -= CellPayloadBits
		out := e.egress.out
		first := !out.Staged()
		if !out.Stage(p.in.At(i)) {
			e.overflow.Add(1)
			ovf++
			continue
		}
		e.forwarded.Add(1)
		if first {
			if nt == maxTouched {
				// Scratch full: publish early rather than track more.
				publishAll(touched[:])
				nt = 0
			}
			touched[nt] = out
			nt++
		}
	}
	publishAll(touched[:nt])
	// Only what was dropped: a sweep over a quiet port carries a cell or
	// two, and four locked adds would cost it more than the cells did.
	if pol > 0 {
		p.policed.Add(pol)
	}
	if ovf > 0 {
		p.overflow.Add(ovf)
	}
	if unr > 0 {
		p.unroutable.Add(unr)
	}
	if bad > 0 {
		p.badHeader.Add(bad)
	}
	p.in.Release(n)
	return n
}

// publishAll publishes what a burst staged on each of rings.
func publishAll(rings []*Ring) {
	for _, r := range rings {
		r.Publish()
	}
}

// Transmit drains up to max cells from a port's egress ring, the port's
// wire-send path; max ≤ 0 drains nothing. One consumer goroutine per port
// (the ring's SPSC contract); different ports may be drained by different
// goroutines, concurrently with each other and with the forwarding
// goroutine. It touches nothing but the ring: its consumer cursor is the
// port's transmitted count.
func (f *Forwarder) Transmit(p *Port, max int) int {
	return f.TransmitTo(p, max, nil)
}

// TransmitTo is Transmit delivering each cell to sink (when non-nil), in
// arrival order, before the ring releases them all with one store; the
// mesh relay uses it to carry cells onto the next hop's ingress ring. The
// *Cell aliases the ring slot and must not be retained past the callback.
func (f *Forwarder) TransmitTo(p *Port, max int, sink func(*Cell)) int {
	if max <= 0 {
		return 0 // Ready reads max as unsigned: a negative one would drain the ring
	}
	n := p.out.Ready(max)
	if n == 0 {
		return 0
	}
	if sink != nil {
		for i := 0; i < n; i++ {
			sink(p.out.At(i))
		}
	}
	p.out.Release(n)
	return n
}

// DataPlane hooks: a Forwarder plugs into switchfab.WithDataPlane so the
// control plane mirrors every VC setup and teardown into the table. The
// hooks run under the switch's port mutex and must not block: both are O(1)
// under the table's writer mutex (a leaf in the lock order). A rate change
// is no hook: OnSetup hands the switch the entry's rate word, and the
// switch stores granted rates there without a table walk or a lock. A setup
// the forwarder cannot route (no such egress port) is refused with AddVC's
// error, so the switch reserves nothing for it.

// OnSetup implements switchfab.DataPlane.
func (f *Forwarder) OnSetup(port int, id switchfab.VCID, rate float64) (*switchfab.RateWord, error) {
	e, err := f.addVC(id, port, rate)
	if err != nil {
		return nil, err
	}
	return &e.rate, nil
}

// OnTeardown implements switchfab.DataPlane.
func (f *Forwarder) OnTeardown(port int, id switchfab.VCID) {
	_, _ = f.RemoveVC(id)
}
