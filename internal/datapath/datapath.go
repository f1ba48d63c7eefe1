// Package datapath is the software cell data path of the RCBR switch: the
// executable form of the paper's Section III-A claim that renegotiated
// traffic needs only small FIFO output buffers. It forwards real 53-byte
// cells: SPSC ring buffers on every hop, a batched forwarding loop that
// drains up to K cells per port visit, VCID routing through a direct-index
// table (internal/vctable), and a per-VC token-bucket shaper enforcing the
// currently granted rate. It is the repository's one cell-level model:
// rcbrsim muxcmp measures the claim on one of its egress ports.
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
// port's burst in place and first looks every cell of it up — HEC and VC
// id read straight off the header bytes, then the table walk; loads only,
// so the burst's cache misses overlap instead of queueing behind one
// another's counter updates — then shapes the cells in arrival order on
// the entries it found, stages the conforming ones onto egress rings,
// publishes each touched egress ring with one cursor store and releases
// the ingress ring with another; a Transmit call releases the cells it
// served with one more. Staged cells are published before
// forwardPort returns, so nothing waits on a later burst.
//
// A sweep owns what it writes. Every counter it keeps — per VC and per
// port — is a plain word guarded by one forwarder-wide mutex, the sweep
// lock, which Forward takes at the first port with cells ready and holds to
// the end of the sweep: two locked instructions per busy sweep instead of
// one per cell, and none for an idle one, so a slot-driven relay polling
// empty hops pays nothing. Readers (VCStats, Port.Stats, the registry's
// views, RemoveVC) take the same lock, so what they read is what a whole
// number of sweeps left, exactly. The lock is a leaf: nothing under it
// takes another lock. Per-VC shaper state is the sweep's too; rate
// retargets cross from the control plane through a single atomic word, the
// VC's switchfab.RateWord, which the switch stores into directly, and a
// teardown only unpublishes the entry, taking no lock (the garbage
// collector retires the entry once the last sweep that found it is done).
// A VC's whole forwarding state is one 64-byte cache line, and the
// forwarding path allocates nothing (pinned by
// TestForwardSteadyStateAllocs).
//
// One counter per fact: a cell that enters, crosses or leaves a ring is
// counted by that ring's cursor and nowhere else; what the sweep decides
// (forwarded, policed, overflow, unroutable, bad header) is counted once
// per VC, its drops added to the ingress port's ledger once per burst
// (what the port forwarded is what its ring released less those); the
// registry's datapath.cells_* counters are views computed from the port
// ledgers when the registry is read. The datapath.batch_cells histogram is
// the sweep's too: its bucket counts and cell sum are plain words the sweep
// adds to before it releases the lock, which the registry's view reads
// under it.
package datapath

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"rcbr/internal/cell"
	"rcbr/internal/metrics"
	"rcbr/internal/shaper"
	"rcbr/internal/switchfab"
	"rcbr/internal/vctable"
)

// CellPayloadBits is the token cost of forwarding one cell: its 48-byte
// payload in bits, so a granted rate in bits/second maps to rate/384
// cells/second, and a frame of b bits is ceil(b/384) cells.
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
	// DefaultRingCells is the capacity of ingress and egress rings: the
	// drop threshold, not memory taken up front. The paper's point is that
	// smooth traffic keeps FIFOs within a few cells per VC, and a ring's
	// storage follows its occupancy (see Ring): it starts at DefaultBurst
	// slots, 3.4 KB of 53-byte cells, and only a backlog grows it toward
	// the ~54 KB that 1024 slots take.
	DefaultRingCells = 1024
	// DefaultDepthCells is the default shaper depth in cells: the burst a
	// conforming VC may send ahead of its sustained rate.
	DefaultDepthCells = 32
)

// sentinel for a VC that has not yet seen a cell: the first cell sets the
// clock instead of ticking an absurd interval into the bucket.
const unsetNanos = math.MinInt64

// batchBounds are datapath.batch_cells' bucket bounds: 1, 2, 4, …, 2048
// cells, so a sweep of n cells falls in bucket batchBucket(n).
var batchBounds = metrics.ExpBuckets(1, 2, batchBuckets-1)

// batchBuckets is the number of batch_cells buckets, the overflow one
// included.
const batchBuckets = 13

// batchBucket returns the bucket of a sweep of n ≥ 1 cells: the first whose
// bound 2^i is at least n, or the overflow bucket past 2048.
func batchBucket(n int) int { return min(bits.Len(uint(n-1)), batchBuckets-1) }

// Port is one switch port's cell rings: an ingress ring filled by the
// port's producer (the wire) and drained by the forwarder, and the egress
// FIFO filled by the forwarder and drained by the port's transmitter.
// Its drop ledger is written by the sweep and read by Stats, both under the
// forwarder's sweep lock; drops are attributed to the *ingress* port the
// cell arrived on, whichever egress ring it failed to enter.
type Port struct {
	id    int
	in    *Ring
	out   *Ring
	sweep *sync.Mutex // the forwarder's sweep lock

	// Ingress-attributed drop counts, added to once per burst under the
	// sweep lock. Every cell the sweep released from the ingress ring
	// (in.Popped) went into exactly one of these or was forwarded, so the
	// forwarded count is the difference and is not kept. The egress side
	// needs none of its own: enqueued and transmitted are out's cursors.
	badHeader  int64
	unroutable int64
	policed    int64
	overflow   int64
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

// Stats snapshots the port under the sweep lock, so between two sweeps.
// Forwarded is derived, exactly: what the ingress ring released less the
// four drop counts, which the sweep that released the cells had already
// counted. Arrived is read after the release cursor, so Arrived ==
// Forwarded + BadHeader + Unroutable + Policed + Overflow + InQueued, with
// InQueued within [0, capacity]. The egress counts are the egress ring's
// cursors, which the port's transmitter moves without the lock.
func (p *Port) Stats() PortStats {
	p.sweep.Lock()
	defer p.sweep.Unlock()
	return p.stats()
}

// stats is Stats with the sweep lock held.
func (p *Port) stats() PortStats {
	s := PortStats{
		BadHeader: p.badHeader, Unroutable: p.unroutable,
		Policed: p.policed, Overflow: p.overflow,
	}
	popped := p.in.Popped()
	s.Arrived = p.in.Pushed()
	s.InQueued = int(s.Arrived - popped)
	s.Forwarded = popped - s.BadHeader - s.Unroutable - s.Policed - s.Overflow
	s.Enqueued, s.Transmitted, s.OutQueued = p.out.Pushed(), p.out.Popped(), p.out.Len()
	return s
}

// vcEntry is one VC's forwarding state: 56 bytes, so one 64-byte allocation
// and one aligned cache line per VC (pinned by TestVCEntryIsOneCacheLine).
// The shaper is a token bucket held as two words — tokens (bits) and
// lastNanos (when they were last refilled) — with its arithmetic in
// shaper.Refill; the bucket's other two parameters are not stored twice:
// its rate is the rate word and its depth is the forwarder's depthBits.
// tokens, lastNanos and the three counters are the sweep's, guarded by the
// forwarder's sweep lock: the sweep writes them, VCStats and RemoveVC read
// the counters under the same lock. The rate word is the control plane's
// mailbox: OnSetup hands the switch its address, a granted renegotiation
// stores the new rate there atomically, and the forwarder refills at
// whatever rate it finds there on the VC's next cell, keeping earned
// credit.
type vcEntry struct {
	egress    *Port              // offset 0
	rate      switchfab.RateWord // 8: granted rate
	tokens    float64            // 16
	lastNanos int64              // 24

	forwarded int64 // 32
	policed   int64 // 40
	overflow  int64 // 48
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

// portSet holds a forwarder's ports twice over: list in the order AddPort
// added them, the order a sweep visits them, and byID sorted by id, which
// Port searches.
type portSet struct {
	list []*Port
	byID []*Port
}

// find returns where id is or would be in byID, and whether it is there.
func (t *portSet) find(id int) (int, bool) {
	return slices.BinarySearchFunc(t.byID, id, func(p *Port, id int) int { return cmp.Compare(p.id, id) })
}

// Forwarder is the cell data path of one switch. See the package comment
// for the concurrency contract. Its ports are one snapshot, read without a
// lock by the sweep, the registry's views and Port (so by OnSetup and AddVC
// finding a VC's egress port) and republished whole by AddPort; portsMu
// serializes AddPort alone. sweep is the sweep lock: it guards every
// counter and bucket a sweep writes.
type Forwarder struct {
	vcs vctable.Table[vcEntry]

	sweep sync.Mutex
	// lookups is the sweep's scratch, one slot per cell of a burst, shared
	// by the ports since a sweep visits them one at a time: stage 1 of
	// forwardPort fills it with the cells' table entries, stage 2 clears
	// each slot as it consumes it, so between bursts every slot is nil and
	// no unpublished entry is kept alive. Guarded by the sweep lock.
	lookups []*vcEntry
	// batches and batchCells are datapath.batch_cells: how many busy sweeps
	// fell in each batchBounds bucket, and the cells they swept. Guarded by
	// the sweep lock.
	batches    [batchBuckets]int64
	batchCells int64

	portsMu sync.Mutex
	ports   atomic.Pointer[portSet]

	burst     int
	ringCells int
	depthBits float64

	reg      *metrics.Registry
	vcMisses *metrics.Counter // nil without a registry
}

// Option configures a Forwarder.
type Option func(*Forwarder)

// WithRingCells sets the capacity in cells of a port's ingress and egress
// rings, rounded up to a power of two (default DefaultRingCells). The
// egress ring is the paper's small FIFO output buffer, so this is the knob
// an overflow experiment turns. Values < 1 keep the default; AddPort
// refuses values above MaxRingCells.
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

// WithMetrics publishes the datapath.* instruments into reg. The cell
// counters and the batch histogram are views over what the sweep keeps, so
// reg keeps the forwarder reachable for as long as it lives. New panics if
// reg already has a datapath.batch_cells histogram with other bounds (see
// metrics.Registry.HistogramFunc).
func WithMetrics(reg *metrics.Registry) Option {
	return func(f *Forwarder) { f.reg = reg }
}

// New returns an empty forwarder: add ports, then VCs, then pump it.
func New(opts ...Option) *Forwarder {
	f := &Forwarder{
		burst:     DefaultBurst,
		ringCells: DefaultRingCells,
		depthBits: DefaultDepthCells * CellPayloadBits,
	}
	for _, opt := range opts {
		opt(f)
	}
	f.lookups = make([]*vcEntry, f.burst)
	if f.reg != nil {
		f.vcMisses = f.reg.Counter(MetricVCMisses)
		f.reg.HistogramFunc(MetricBatchCells, batchBounds, f.readBatches)
		f.reg.CounterFunc(MetricCellsArrived, f.view(func(s PortStats) int64 { return s.Arrived }))
		f.reg.CounterFunc(MetricCellsForwarded, f.view(func(s PortStats) int64 { return s.Forwarded }))
		f.reg.CounterFunc(MetricCellsPoliced, f.view(func(s PortStats) int64 { return s.Policed }))
		f.reg.CounterFunc(MetricCellsOverflow, f.view(func(s PortStats) int64 { return s.Overflow }))
		f.reg.CounterFunc(MetricCellsUnroutable, f.view(func(s PortStats) int64 { return s.Unroutable }))
		f.reg.CounterFunc(MetricCellsBadHeader, f.view(func(s PortStats) int64 { return s.BadHeader }))
		f.reg.CounterFunc(MetricCellsTransmitted, f.view(func(s PortStats) int64 { return s.Transmitted }))
	}
	f.ports.Store(new(portSet))
	return f
}

// view returns a registry view counter: one PortStats field summed over
// every port, read under one hold of the sweep lock when the registry is.
func (f *Forwarder) view(field func(PortStats) int64) func() int64 {
	return func() int64 {
		var sum int64
		f.sweep.Lock()
		defer f.sweep.Unlock()
		for _, p := range f.ports.Load().list {
			sum += field(p.stats())
		}
		return sum
	}
}

// readBatches is the datapath.batch_cells view: it adds the bucket counts
// into counts and returns the cells swept, all read under one hold of the
// sweep lock, so a whole number of sweeps.
func (f *Forwarder) readBatches(counts []int64) float64 {
	f.sweep.Lock()
	defer f.sweep.Unlock()
	for i, n := range f.batches {
		counts[i] += n
	}
	return float64(f.batchCells)
}

// AddPort registers a port and its rings. It fails if the forwarder's ring
// capacity exceeds MaxRingCells.
func (f *Forwarder) AddPort(id int) (*Port, error) {
	if f.ringCells > MaxRingCells {
		return nil, fmt.Errorf("datapath: ring of %d cells exceeds %d", f.ringCells, MaxRingCells)
	}
	f.portsMu.Lock()
	defer f.portsMu.Unlock()
	old := f.ports.Load()
	at, exists := old.find(id)
	if exists {
		return nil, fmt.Errorf("datapath: port %d exists", id)
	}
	p := &Port{
		id: id, in: NewRing(f.ringCells), out: NewRing(f.ringCells), sweep: &f.sweep,
	}
	t := &portSet{
		list: append(old.list[:len(old.list):len(old.list)], p),
		byID: make([]*Port, 0, len(old.byID)+1),
	}
	t.byID = append(append(append(t.byID, old.byID[:at]...), p), old.byID[at:]...)
	f.ports.Store(t)
	return p, nil
}

// Port returns a registered port, or nil, without a lock.
func (f *Forwarder) Port(id int) *Port {
	t := f.ports.Load()
	if i, ok := t.find(id); ok {
		return t.byID[i]
	}
	return nil
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
		f.vcMisses.Inc()
		return fmt.Errorf("datapath: no vc %s", id)
	}
	e.rate.Store(rate)
	return nil
}

// RemoveVC unpublishes a VC and returns its final stats, exactly. A sweep
// looks a whole burst up before it shapes any of it, so one that found the
// VC just before the unpublish still finishes those cells on the entry; but
// it holds the sweep lock while it does, and RemoveVC reads the counts
// under that lock, so after it. No later sweep can find the VC: its later
// cells count as unroutable. Cells of the VC already on an egress ring are
// transmitted like any others.
func (f *Forwarder) RemoveVC(id switchfab.VCID) (VCStats, error) {
	e := f.unpublish(id)
	if e == nil {
		return VCStats{}, fmt.Errorf("datapath: no vc %s", id)
	}
	return f.stats(e), nil
}

// unpublish removes a VC from the table, counting a miss when it is not
// there. It takes no sweep lock.
func (f *Forwarder) unpublish(id switchfab.VCID) *vcEntry {
	e := f.vcs.Remove(uint32(id))
	if e == nil {
		f.vcMisses.Inc()
	}
	return e
}

// stats snapshots e's counters under the sweep lock.
func (f *Forwarder) stats(e *vcEntry) VCStats {
	f.sweep.Lock()
	s := VCStats{Forwarded: e.forwarded, Policed: e.policed, Overflow: e.overflow}
	f.sweep.Unlock()
	s.Rate = e.rate.Load()
	s.Seen = s.Forwarded + s.Policed + s.Overflow
	return s
}

// VCStats snapshots a VC's counters.
func (f *Forwarder) VCStats(id switchfab.VCID) (VCStats, bool) {
	e := f.vcs.Get(uint32(id))
	if e == nil {
		return VCStats{}, false
	}
	return f.stats(e), true
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
// decrease between calls. It takes the sweep lock at the first port with
// cells ready and holds it to the end of the sweep, so a sweep over idle
// ports takes no lock. A busy sweep counts itself into the batch histogram
// (its count is the number of batches) before it releases the lock, with
// two plain adds like the sweep's other counters; an idle one counts
// nothing, so an idle polling driver — a slot-driven relay — does not drown
// it in zeros.
func (f *Forwarder) Forward(nowNanos int64) int {
	total := 0
	for _, p := range f.ports.Load().list {
		n := p.in.Ready(f.burst)
		if n == 0 {
			continue
		}
		if total == 0 {
			f.sweep.Lock()
		}
		total += f.forwardPort(p, n, nowNanos)
	}
	if total > 0 {
		f.batches[batchBucket(total)]++
		f.batchCells += int64(total)
		f.sweep.Unlock()
	}
	return total
}

// maxTouched is how many distinct egress rings one burst may leave staged
// before it publishes them early: the scratch that lets a burst publish
// what it touched without walking every port.
const maxTouched = 8

// forwardPort forwards the n cells Ready found on one ingress ring, reading
// them in place, and works the burst stage by stage rather than cell by
// cell. The caller holds the sweep lock, which guards every counter and
// bucket it writes: they are plain words, so it executes no locked
// instruction per cell (TestSweepCountersArePlain).
//
// Stage 1, lookup, is loads only: for every cell of the burst, read its VC
// id and HEC verdict with cell.VCID — inlined, no Header built
// (TestRingFastPathInlined) — and index the VC table (three loads, no
// lock), leaving the entry pointer in f.lookups. It writes nothing but that
// scratch and two local counts — a bad header or an unknown VC is decided
// here and its slot left nil — and above all it executes no locked
// instruction: on amd64 an atomic add is a full fence, which in a
// cell-by-cell loop holds the next cell's table walk back until this
// cell's counter has retired. Without one, the burst's walks are
// independent and their cache misses overlap.
//
// Stage 2, shaping, walks the scratch in arrival order. Per routed cell:
// refill the VC's bucket to now at the rate found in its mailbox and take
// one cell's payload worth of tokens; a conforming cell is staged onto the
// egress port's ring (this goroutine is its only producer), a
// non-conforming one is policed, a full egress ring counts an overflow.
// Every cell leaves the ingress ring exactly once, into exactly one per-VC
// counter (or unroutable / bad header).
//
// The burst ends with one head store per egress ring it touched, its drop
// totals added to the port ledger, and one tail store releasing the
// ingress ring — in that order, so a cell is never off both rings and every
// staged cell is published before the function returns. Lookups lead
// shaping by up to one burst, so a VC removed meanwhile still has that
// burst's cells finished on its unpublished entry, under the lock RemoveVC
// then waits on.
func (f *Forwarder) forwardPort(p *Port, n int, now int64) int {
	var (
		pol, ovf, unr, bad int64
		touched            [maxTouched]*Ring
		nt                 int
	)
	entries := f.lookups[:n]
	for i := range entries {
		id, ok := cell.VCID(p.in.At(i)[:])
		if !ok {
			bad++
			continue
		}
		e := f.vcs.Get(id)
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
			e.policed++
			pol++
			continue
		}
		e.tokens -= CellPayloadBits
		out := e.egress.out
		first := !out.Staged()
		// Stage, with its fast path inlined here (TestRingFastPathInlined).
		if c := p.in.At(i); !out.stageFast(c) && !out.stageSlow(c) {
			e.overflow++
			ovf++
			continue
		}
		e.forwarded++
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
	// Only what was dropped: the port's producer and transmitter read the
	// ring pointers beside the ledger, and a store of nothing would still
	// take the line from them.
	if pol > 0 {
		p.policed += pol
	}
	if ovf > 0 {
		p.overflow += ovf
	}
	if unr > 0 {
		p.unroutable += unr
	}
	if bad > 0 {
		p.badHeader += bad
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
// under the table's writer mutex (a leaf in the lock order), neither takes
// the sweep lock — OnTeardown unpublishes the entry without reading its
// stats, so a teardown never waits on a sweep — and OnSetup finds the
// egress port in the port snapshot without a lock. A rate change
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
	f.unpublish(id)
}
