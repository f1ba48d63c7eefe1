package datapath

import (
	"encoding/binary"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"rcbr/internal/cell"
	"rcbr/internal/metrics"
	"rcbr/internal/switchfab"
)

// withBurst sets how many cells one sweep drains per port visit. A forwarder
// outside these tests runs at DefaultBurst; they shrink the burst to cross
// many burst boundaries with few cells, and size it to pin overflow counts.
func withBurst(k int) Option {
	return func(f *Forwarder) { f.burst = k }
}

// mkCell builds a data cell for the VC with an optional 8-byte stamp.
func mkCell(t testing.TB, id switchfab.VCID, stamp uint64) Cell {
	t.Helper()
	var payload [8]byte
	binary.BigEndian.PutUint64(payload[:], stamp)
	var c Cell
	h := cell.Header{VPI: id.VPI(), VCI: id.VCI()}
	if err := cell.PutData(&c, h, payload[:]); err != nil {
		t.Fatal(err)
	}
	return c
}

// drain pumps Forward/Transmit until nothing moves, advancing the clock by
// step nanos per sweep so shapers keep earning tokens.
func drain(f *Forwarder, ports []*Port, now, step int64) int64 {
	for idle := 0; idle < 3; {
		moved := f.Forward(now)
		for _, p := range ports {
			moved += f.Transmit(p, p.OutLen()+1)
		}
		now += step
		if moved == 0 {
			idle++
		} else {
			idle = 0
		}
	}
	return now
}

// forwardInBackground is the forwarding goroutine the concurrency tests run
// beside their producers, transmitters and control plane: Forward in a loop
// on the wall clock, yielding after an empty sweep. stop ends the loop and
// returns once it has.
func forwardInBackground(f *Forwarder) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	start := time.Now()
	go func() {
		defer close(done)
		for {
			select {
			case <-quit:
				return
			default:
			}
			if f.Forward(int64(time.Since(start))) == 0 {
				runtime.Gosched()
			}
		}
	}()
	return func() { close(quit); <-done }
}

func TestForwardRoutesAndCounts(t *testing.T) {
	reg := metrics.NewRegistry()
	f := New(WithMetrics(reg), withBurst(8))
	in, err := f.AddPort(1)
	if err != nil {
		t.Fatal(err)
	}
	out, err := f.AddPort(2)
	if err != nil {
		t.Fatal(err)
	}
	id := switchfab.MakeVCID(3, 77)
	if err := f.AddVC(id, 2, 1e6); err != nil {
		t.Fatal(err)
	}

	c := mkCell(t, id, 42)
	if !f.Inject(in, &c) {
		t.Fatal("inject refused")
	}
	if n := f.Forward(0); n != 1 {
		t.Fatalf("Forward processed %d cells, want 1", n)
	}
	if out.OutLen() != 1 {
		t.Fatalf("egress queue %d, want 1", out.OutLen())
	}
	var delivered int
	f.TransmitTo(out, 8, func(got *Cell) {
		delivered++
		h, p, err := cell.ParseData(got[:])
		if err != nil {
			t.Fatal(err)
		}
		if h.VPI != 3 || h.VCI != 77 || binary.BigEndian.Uint64(p[:8]) != 42 {
			t.Fatalf("wrong cell delivered: %+v", h)
		}
	})
	if delivered != 1 {
		t.Fatalf("delivered %d, want 1", delivered)
	}

	vs, ok := f.VCStats(id)
	if !ok || vs.Seen != 1 || vs.Forwarded != 1 {
		t.Fatalf("vc stats %+v", vs)
	}
	ps := in.Stats()
	if ps.Arrived != 1 || ps.Forwarded != 1 {
		t.Fatalf("ingress stats %+v", ps)
	}
	os := out.Stats()
	if os.Enqueued != 1 || os.Transmitted != 1 || os.OutQueued != 0 {
		t.Fatalf("egress stats %+v", os)
	}
	snap := reg.Snapshot()
	for name, want := range map[string]int64{
		MetricCellsArrived:     1,
		MetricCellsForwarded:   1,
		MetricCellsTransmitted: 1,
	} {
		if snap.Counters[name] != want {
			t.Errorf("%s = %d, want %d", name, snap.Counters[name], want)
		}
	}
	if h := snap.Histograms[MetricBatchCells]; h.Count != 1 || h.Sum != 1 {
		t.Errorf("%s: %d batches of %g cells, want 1 of 1", MetricBatchCells, h.Count, h.Sum)
	}
}

func TestForwardDropsBadHeaderAndUnroutable(t *testing.T) {
	f := New()
	in, _ := f.AddPort(1)
	if _, err := f.AddPort(1); err == nil {
		t.Fatal("duplicate port accepted")
	}

	var garbage Cell
	garbage[4] = 0xAA // HEC cannot match
	f.Inject(in, &garbage)
	stranger := mkCell(t, switchfab.MakeVCID(0, 999), 0)
	f.Inject(in, &stranger)
	f.Forward(0)
	ps := in.Stats()
	if ps.BadHeader != 1 || ps.Unroutable != 1 || ps.Forwarded != 0 {
		t.Fatalf("stats %+v", ps)
	}
	if ps.Arrived != ps.BadHeader+ps.Unroutable {
		t.Fatalf("conservation: %+v", ps)
	}
}

func TestShaperPolicesExcess(t *testing.T) {
	// Rate = 1 cell/sec, depth = 4 cells: an 8-cell burst at t=0 forwards
	// exactly the bucket depth and polices the rest.
	f := New(WithDepthCells(4))
	in, _ := f.AddPort(1)
	f.AddPort(2)
	id := switchfab.VCID(5)
	if err := f.AddVC(id, 2, CellPayloadBits); err != nil {
		t.Fatal(err)
	}
	c := mkCell(t, id, 0)
	for i := 0; i < 8; i++ {
		f.Inject(in, &c)
	}
	f.Forward(0)
	vs, _ := f.VCStats(id)
	if vs.Forwarded != 4 || vs.Policed != 4 {
		t.Fatalf("burst: %+v, want 4 forwarded / 4 policed", vs)
	}
	// One second later the bucket has earned exactly one more cell.
	f.Inject(in, &c)
	f.Inject(in, &c)
	f.Forward(1e9)
	vs, _ = f.VCStats(id)
	if vs.Forwarded != 5 || vs.Policed != 5 {
		t.Fatalf("after 1s: %+v, want 5/5", vs)
	}
}

func TestSetVCRateRetargets(t *testing.T) {
	f := New(WithDepthCells(1))
	in, _ := f.AddPort(1)
	f.AddPort(2)
	id := switchfab.VCID(9)
	if err := f.AddVC(id, 2, 0); err != nil { // zero rate: everything polices
		t.Fatal(err)
	}
	c := mkCell(t, id, 0)
	f.Inject(in, &c)
	f.Forward(0) // drains the initial depth credit
	f.Inject(in, &c)
	f.Forward(1e9)
	vs, _ := f.VCStats(id)
	if vs.Policed != 1 {
		t.Fatalf("zero-rate VC forwarded: %+v", vs)
	}
	// Retarget to 10 cells/sec; a second later a cell conforms again.
	if err := f.SetVCRate(id, 10*CellPayloadBits); err != nil {
		t.Fatal(err)
	}
	f.Inject(in, &c)
	f.Forward(2e9)
	vs, _ = f.VCStats(id)
	if vs.Forwarded != 2 || vs.Rate != 10*CellPayloadBits {
		t.Fatalf("after retarget: %+v", vs)
	}
	if err := f.SetVCRate(switchfab.VCID(1234), 1); err == nil {
		t.Fatal("SetVCRate on unknown VC succeeded")
	}
}

// TestRateEntryPointsRejectBadRates is the data plane's half of the bad-rate
// tables (DESIGN §9, "What a test holds instead"): both entry points that
// take a rate are fed every kind of bad one and must refuse it with the
// table exactly as it was — a NaN in a bucket's rate makes every refill NaN
// and every conformance test false, so the VC polices forever.
func TestRateEntryPointsRejectBadRates(t *testing.T) {
	f := New()
	f.AddPort(1)
	const id, rate = switchfab.VCID(9), 1e6
	if err := f.AddVC(id, 1, rate); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		if err := f.AddVC(id+1, 1, bad); err == nil {
			t.Errorf("AddVC(%v) accepted", bad)
		}
		if err := f.SetVCRate(id, bad); err == nil {
			t.Errorf("SetVCRate(%v) accepted", bad)
		}
		if _, ok := f.VCStats(id + 1); ok || f.VCCount() != 1 {
			t.Fatalf("AddVC(%v) published a VC", bad)
		}
		if vs, _ := f.VCStats(id); vs.Rate != rate {
			t.Fatalf("SetVCRate(%v) left rate %v, want %v", bad, vs.Rate, rate)
		}
	}
}

func TestEgressOverflowCounts(t *testing.T) {
	f := New(WithRingCells(4), withBurst(64), WithDepthCells(64))
	in, _ := f.AddPort(1)
	f.AddPort(2)
	id := switchfab.VCID(7)
	if err := f.AddVC(id, 2, 1e9); err != nil {
		t.Fatal(err)
	}
	c := mkCell(t, id, 0)
	for i := 0; i < 4; i++ {
		f.Inject(in, &c)
	}
	f.Forward(0) // fills the 4-slot egress ring, no transmit
	for i := 0; i < 2; i++ {
		f.Inject(in, &c)
	}
	f.Forward(0)
	vs, _ := f.VCStats(id)
	if vs.Forwarded != 4 || vs.Overflow != 2 {
		t.Fatalf("%+v, want 4 forwarded / 2 overflow", vs)
	}
	if vs.Seen != vs.Forwarded+vs.Policed+vs.Overflow {
		t.Fatalf("vc conservation: %+v", vs)
	}
}

func TestRemoveVCOrphansQueuedCells(t *testing.T) {
	f := New()
	in, _ := f.AddPort(1)
	out, _ := f.AddPort(2)
	id := switchfab.VCID(11)
	f.AddVC(id, 2, 1e9)
	c := mkCell(t, id, 0)
	f.Inject(in, &c)
	f.Forward(0)
	vs, err := f.RemoveVC(id)
	if err != nil {
		t.Fatal(err)
	}
	if vs.Forwarded != 1 {
		t.Fatalf("removed VC stats %+v, want Forwarded 1", vs)
	}
	f.Transmit(out, 8)
	if os := out.Stats(); os.Enqueued != 1 || os.Transmitted != 1 || os.OutQueued != 0 {
		t.Fatalf("egress stats %+v, want the orphan transmitted", os)
	}
	if _, err := f.RemoveVC(id); err == nil {
		t.Fatal("double remove succeeded")
	}
}

// TestConservationStorm is the ISSUE's invariant test: producers flood
// every ingress port while the control plane retargets rates, and when the
// dust settles every injected cell is accounted for exactly once — per
// port, per VC, and globally. Run under -race via `make race`.
func TestConservationStorm(t *testing.T) {
	const (
		ports       = 4
		vcsPerPort  = 8
		perProducer = 20000
	)
	reg := metrics.NewRegistry()
	f := New(WithMetrics(reg), WithRingCells(64), withBurst(16), WithDepthCells(2))
	pp := make([]*Port, ports)
	var ids []switchfab.VCID
	for i := 0; i < ports; i++ {
		p, err := f.AddPort(i)
		if err != nil {
			t.Fatal(err)
		}
		pp[i] = p
	}
	for i := 0; i < ports; i++ {
		for v := 0; v < vcsPerPort; v++ {
			id := switchfab.MakeVCID(uint8(i), uint16(1000+v))
			// Egress on another port; mixed rates so some VCs police hard.
			rate := float64(v) * 100 * CellPayloadBits
			if err := f.AddVC(id, (i+1)%ports, rate); err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
	}

	stop := make(chan struct{})
	done := make(chan struct{})
	var prodWG, pumpWG sync.WaitGroup
	// One producer per ingress port (the SPSC contract).
	for i := 0; i < ports; i++ {
		prodWG.Add(1)
		go func(i int) {
			defer prodWG.Done()
			p := pp[i]
			cells := make([]Cell, vcsPerPort)
			for v := range cells {
				cells[v] = mkCell(t, switchfab.MakeVCID(uint8(i), uint16(1000+v)), uint64(v))
			}
			for n := 0; n < perProducer; n++ {
				// Full rings are honest wire drops — not counted as
				// arrived, so just move on (after yielding so the pump
				// gets CPU time on a single-core box).
				if !f.Inject(p, &cells[n%vcsPerPort]) {
					runtime.Gosched()
				}
			}
		}(i)
	}
	// The control plane renegotiates concurrently.
	pumpWG.Add(1)
	go func() {
		defer pumpWG.Done()
		r := uint64(1)
		for {
			select {
			case <-stop:
				return
			default:
			}
			r = r*6364136223846793005 + 1
			id := ids[r%uint64(len(ids))]
			f.SetVCRate(id, float64(r%1000)*CellPayloadBits)
			runtime.Gosched()
		}
	}()
	// The forwarder goroutine pumps until producers finish and rings drain.
	pumpWG.Add(1)
	go func() {
		defer pumpWG.Done()
		now := int64(0)
		for {
			moved := f.Forward(now)
			for _, p := range pp {
				moved += f.Transmit(p, 32)
			}
			now += 1e6
			select {
			case <-done:
				drain(f, pp, now, 1e6)
				return
			default:
			}
			if moved == 0 {
				runtime.Gosched()
			}
		}
	}()

	// Join the producers first, so the pump's final drain runs with no one
	// still injecting; then stop the control plane and the pump.
	prodWG.Wait()
	close(stop)
	close(done)
	pumpWG.Wait()

	// Global, per-port, and per-VC conservation — exact.
	var arrived, sunk int64
	for i, p := range pp {
		ps := p.Stats()
		if ps.InQueued != 0 || ps.OutQueued != 0 {
			t.Fatalf("port %d not drained: %+v", i, ps)
		}
		if got := ps.BadHeader + ps.Unroutable + ps.Policed + ps.Overflow + ps.Forwarded; got != ps.Arrived {
			t.Fatalf("port %d ingress conservation: %+v (sum %d)", i, ps, got)
		}
		if ps.Enqueued != ps.Transmitted {
			t.Fatalf("port %d egress conservation: %+v", i, ps)
		}
		arrived += ps.Arrived
		sunk += ps.BadHeader + ps.Unroutable + ps.Policed + ps.Overflow + ps.Forwarded
	}
	var vcSeen int64
	for _, id := range ids {
		vs, ok := f.VCStats(id)
		if !ok {
			t.Fatalf("vc %s vanished", id)
		}
		if vs.Seen != vs.Forwarded+vs.Policed+vs.Overflow {
			t.Fatalf("vc %s conservation: %+v", id, vs)
		}
		vcSeen += vs.Seen
	}
	if arrived != sunk {
		t.Fatalf("global conservation: arrived %d != accounted %d", arrived, sunk)
	}
	// The registry's cell counters are views over the port ledgers: after
	// the storm each equals the sum of that field over Port.Stats().
	var sum PortStats
	for _, p := range pp {
		ps := p.Stats()
		sum.Arrived += ps.Arrived
		sum.Forwarded += ps.Forwarded
		sum.Policed += ps.Policed
		sum.Overflow += ps.Overflow
		sum.Unroutable += ps.Unroutable
		sum.BadHeader += ps.BadHeader
		sum.Transmitted += ps.Transmitted
	}
	snap := reg.Snapshot()
	for name, want := range map[string]int64{
		MetricCellsArrived:     sum.Arrived,
		MetricCellsForwarded:   sum.Forwarded,
		MetricCellsPoliced:     sum.Policed,
		MetricCellsOverflow:    sum.Overflow,
		MetricCellsUnroutable:  sum.Unroutable,
		MetricCellsBadHeader:   sum.BadHeader,
		MetricCellsTransmitted: sum.Transmitted,
	} {
		if got, ok := snap.Counters[name]; !ok || got != want {
			t.Errorf("view %s = %d (present %v), port ledgers sum to %d", name, got, ok, want)
		}
	}
	if sum.Policed == 0 || sum.Forwarded == 0 {
		t.Errorf("storm exercised too little: %+v", sum)
	}
	if vcSeen != arrived {
		t.Fatalf("vc seen %d != arrived %d (every cell was routable)", vcSeen, arrived)
	}
}

// TestForwardSteadyStateAllocs pins the tentpole acceptance criterion: the
// inject → forward → transmit cycle allocates nothing in steady state.
func TestForwardSteadyStateAllocs(t *testing.T) {
	f := New(withBurst(32))
	in, _ := f.AddPort(1)
	out, _ := f.AddPort(2)
	const vcs = 64
	cells := make([]Cell, vcs)
	for v := 0; v < vcs; v++ {
		id := switchfab.MakeVCID(0, uint16(100+v))
		if err := f.AddVC(id, 2, 1e12); err != nil {
			t.Fatal(err)
		}
		cells[v] = mkCell(t, id, uint64(v))
	}
	now := int64(0)
	cycle := func() {
		for v := range cells {
			f.Inject(in, &cells[v])
		}
		now += 1e6
		f.Forward(now)
		f.Transmit(out, vcs)
	}
	cycle() // warm up: first-cell clock init, cache warming
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("steady-state forwarding allocates %.1f per cycle, want 0", allocs)
	}
}

// TestBatchOfOneKeepsRingsSmall drives a pair of forwarders the way the
// loop-3hop benchmark does: one slot at a time, at most one cell offered
// and one transmitted per port per slot, at 5/6 of the link, the second
// hop fed from the first one's egress. After 100k slots every ring's
// backing — what the producer writes and what the consumer last loaded —
// must still be the DefaultBurst slots it started with: storage follows
// occupancy, and this load never queues more than a cell or two. Then
// the second hop's transmitter stalls long enough to grow its egress
// ring, and the slot, on the grown ring, must still allocate nothing.
func TestBatchOfOneKeepsRingsSmall(t *testing.T) {
	const vcs = 16
	var fws [2]*Forwarder
	var ins, outs [2]*Port
	cells := make([]Cell, vcs)
	for h := range fws {
		fws[h] = New()
		ins[h], _ = fws[h].AddPort(0)
		outs[h], _ = fws[h].AddPort(1)
		for v := range cells {
			id := switchfab.MakeVCID(1, uint16(100+v))
			if err := fws[h].AddVC(id, 1, 1e12); err != nil {
				t.Fatal(err)
			}
			cells[v] = mkCell(t, id, uint64(v))
		}
	}
	var slot, offered, delivered int64
	stalled := false
	relay := func(c *Cell) {
		if !fws[1].Inject(ins[1], c) {
			t.Fatalf("slot %d: hop 2 ingress refused a cell", slot)
		}
	}
	step := func() {
		if slot%6 != 5 {
			if !fws[0].Inject(ins[0], &cells[slot%vcs]) {
				t.Fatalf("slot %d: hop 1 ingress refused a cell", slot)
			}
			offered++
		}
		now := slot * 1000
		fws[0].Forward(now)
		fws[0].TransmitTo(outs[0], 1, relay)
		fws[1].Forward(now)
		if !stalled {
			delivered += int64(fws[1].Transmit(outs[1], 1))
		}
		slot++
	}
	backings := func() (sizes []int) {
		for h := range fws {
			for _, p := range []*Port{ins[h], outs[h]} {
				for _, r := range []*Ring{p.in, p.out} {
					sizes = append(sizes, len(r.buf), len(r.view))
				}
			}
		}
		return sizes
	}
	for slot < 100_000 {
		step()
	}
	if in := offered - delivered; in < 0 || in > 8 {
		t.Fatalf("%d cells offered, %d delivered: %d in flight", offered, delivered, in)
	}
	for i, n := range backings() {
		if n != DefaultBurst {
			t.Fatalf("after 100k batch-of-one slots: backing %d of %v has %d slots, want %d", i, backings(), n, DefaultBurst)
		}
	}
	stalled = true
	for range 300 {
		step()
	}
	stalled = false
	if n := len(outs[1].out.buf); n != 256 {
		t.Fatalf("hop 2 egress backing after 250 cells of backlog: %d slots, want 256", n)
	}
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Fatalf("a slot on grown rings allocates %.1f, want 0", allocs)
	}
}

// TestEmptySweepsAreNotBatches: a batch is a non-empty sweep — Forward used
// to count and observe every call, so a slot-driven relay calling it on
// mostly idle ports drowned datapath.batch_cells in zeros.
func TestEmptySweepsAreNotBatches(t *testing.T) {
	reg := metrics.NewRegistry()
	f := New(WithMetrics(reg))
	in, err := f.AddPort(1)
	if err != nil {
		t.Fatal(err)
	}
	id := switchfab.MakeVCID(0, 5)
	if err := f.AddVC(id, 1, 1e12); err != nil {
		t.Fatal(err)
	}
	c := mkCell(t, id, 0)
	for now := int64(0); now < 20; now++ {
		f.Forward(now)
	}
	f.Inject(in, &c)
	f.Inject(in, &c)
	if n := f.Forward(20); n != 2 {
		t.Fatalf("Forward processed %d cells, want 2", n)
	}
	f.Inject(in, &c)
	if n := f.Forward(21); n != 1 {
		t.Fatalf("Forward processed %d cells, want 1", n)
	}
	h := reg.Snapshot().Histograms[MetricBatchCells]
	if h.Count != 2 || h.Sum != 3 {
		t.Fatalf("22 sweeps, 2 of them non-empty: histogram count %d sum %g; want 2, 3", h.Count, h.Sum)
	}
}

// TestBatchBucketMatchesLinearScan: the sweep files a batch by its bit
// length, not by scanning the bounds as Histogram.Observe does; the two
// agree on every batch size up to past the overflow bound.
func TestBatchBucketMatchesLinearScan(t *testing.T) {
	for n := 1; n <= 5000; n++ {
		i := 0
		for i < len(batchBounds) && float64(n) > batchBounds[i] {
			i++
		}
		if got := batchBucket(n); got != i {
			t.Fatalf("a batch of %d cells: bucket %d, the bounds %v put it in %d", n, got, batchBounds, i)
		}
	}
}
