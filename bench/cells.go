package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"rcbr/internal/cell"
	"rcbr/internal/datapath"
	"rcbr/internal/metrics"
	"rcbr/internal/stats"
	"rcbr/internal/switchfab"
)

// The two cell workloads share one forwarding cycle: inject 64 cells on
// each of 4 ports, one Forward sweep a virtual millisecond later, drain
// every egress ring. cells-hot is that cycle alone on a bare forwarder;
// cells-churn runs it over VCs a switch owns while a second goroutine
// renegotiates, sets up and tears down on an open-loop schedule, and a
// fixed set of VCs granted rate 0 is policed.
const (
	cellPorts      = 4
	cellsPerPort   = datapath.DefaultBurst
	cellsPerCycle  = cellPorts * cellsPerPort
	cycleNanos     = int64(time.Millisecond)
	traceEvery     = 64 // one forwarding cycle in this many is traced
	policedEvery   = 10 // every tenth cell a port offers comes from the policed set
	ctlBatch       = 16
	ctlPeriod      = 320 * time.Microsecond // 16 ops every 320 us: 50k ops/s
	hotRate        = 1e12
	churnPortCap   = 1e15
	admitTarget    = 1e-3
	rateLevelCount = 7
)

// churnLevel is the k-th renegotiation level of cells-churn, 1 to 7 Mb/s
// (binary): whole numbers, so port sums are exact, and all far above the
// few kb/s each VC is offered.
func churnLevel(k int) float64 { return float64(k+1) * (1 << 20) }

// Span names: the driver's calls into the layers of the cell path.
const (
	spanCycle    = "bench.cycle"
	spanInject   = "datapath.inject"
	spanForward  = "datapath.forward"
	spanTransmit = "datapath.transmit"
	spanCtlBatch = "bench.ctl_batch"
	spanReneg    = "switchfab.renegotiate"
	spanSetup    = "switchfab.setup"
	spanTeardown = "switchfab.teardown"
)

// fwdVC is one VC that carries cells.
type fwdVC struct {
	id      switchfab.VCID
	egress  int
	policed bool
	rate    float64 // the rate the generator believes is in force
	offered int64   // cells offered so far (kept for policed VCs only)
}

type cellSystem struct {
	reg   *metrics.Registry
	fw    *datapath.Forwarder
	ports []*datapath.Port
	sw    *switchfab.Switch         // nil on cells-hot
	ad    *switchfab.MemoryAdmitter // cells-churn's admission control

	vcList []fwdVC
	cells  []datapath.Cell // cells[i] is a data cell of vcList[i]
	// Per ingress port: which VCs enter there, split into the regular and
	// the policed rotation, and the cursors of each.
	regular, policed [cellPorts][]int32
	rc, pc           [cellPorts]int
	offeredOnPort    [cellPorts]int64

	now     int64 // virtual clock of the forwarder
	cycles  int64
	hwm     int // egress FIFO high-water mark seen on traced cycles
	ctl     *ctlGen
	ctlLat  []int64 // per-op control time of the last pass
	ctlLag  []int64 // how late each batch started
	ctlRuns passCounters
}

type passCounters struct{ ops, failed int64 }

// fwdID names the i-th forwarded VC; VPI starts at 1.
func fwdID(i int) switchfab.VCID {
	return switchfab.MakeVCID(uint8(1+i>>16), uint16(i))
}

// newCellSystem generates the VCs and one data cell of each (the inputs),
// then builds an empty 4-port forwarder; the caller establishes the VCs.
func newCellSystem(n int, reg *metrics.Registry, inputsDone func()) (*cellSystem, error) {
	c := &cellSystem{reg: reg, vcList: make([]fwdVC, n), cells: make([]datapath.Cell, n)}
	for i := range c.vcList {
		id := fwdID(i)
		c.vcList[i] = fwdVC{id: id, egress: (i + 1) % cellPorts}
		h := cell.Header{VPI: id.VPI(), VCI: id.VCI()}
		if err := cell.PutData(&c.cells[i], h, nil); err != nil {
			return nil, err
		}
	}
	inputsDone()
	c.fw = datapath.New(datapath.WithMetrics(reg))
	for p := 0; p < cellPorts; p++ {
		port, err := c.fw.AddPort(p)
		if err != nil {
			return nil, err
		}
		c.ports = append(c.ports, port)
	}
	return c, nil
}

// rotate assigns every VC to the rotation of its ingress port.
func (c *cellSystem) rotate() {
	for i, vc := range c.vcList {
		p := i % cellPorts
		if vc.policed {
			c.policed[p] = append(c.policed[p], int32(i))
		} else {
			c.regular[p] = append(c.regular[p], int32(i))
		}
	}
}

func buildCellsHot(_ uint64, sc scale, inputsDone func()) (system, error) {
	return newHotSystem(sc.hotVCs, metrics.NewRegistry(), inputsDone)
}

// newHotSystem is cells-hot over n VCs; reg may be nil (the registry-price
// probe runs the same cycles bare).
func newHotSystem(n int, reg *metrics.Registry, inputsDone func()) (*cellSystem, error) {
	c, err := newCellSystem(n, reg, inputsDone)
	if err != nil {
		return nil, err
	}
	for i := range c.vcList {
		vc := &c.vcList[i]
		vc.rate = hotRate
		if err := c.fw.AddVC(vc.id, vc.egress, vc.rate); err != nil {
			return nil, err
		}
	}
	c.rotate()
	return c, nil
}

func buildCellsChurn(seed uint64, sc scale, inputsDone func()) (system, error) {
	reg := metrics.NewRegistry()
	c, err := newCellSystem(sc.churnVCs, reg, inputsDone)
	if err != nil {
		return nil, err
	}
	levels := make([]float64, rateLevelCount)
	for k := range levels {
		levels[k] = churnLevel(k)
	}
	ad, err := switchfab.NewMemoryAdmitter(levels, admitTarget)
	if err != nil {
		return nil, err
	}
	c.ad = ad
	c.sw = switchfab.New(switchfab.WithDataPlane(c.fw), switchfab.WithAdmitter(ad), switchfab.WithMetrics(reg))
	for p := 0; p < cellPorts; p++ {
		if err := c.sw.AddPort(p, churnPortCap); err != nil {
			return nil, err
		}
	}
	for i := range c.vcList {
		vc := &c.vcList[i]
		vc.policed = i < sc.policedVCs
		if !vc.policed {
			vc.rate = churnLevel(0)
		}
		if err := c.sw.SetupID(vc.id, vc.egress, vc.rate); err != nil {
			return nil, err
		}
	}
	c.rotate()
	c.ctl = newCtlGen(seed, sc)
	return c, nil
}

func (c *cellSystem) vcs() int { return len(c.vcList) }

// offer picks the next cell port p offers: every policedEvery-th from the
// policed rotation (when there is one), the rest from the regular one.
func (c *cellSystem) offer(p int) int32 {
	c.offeredOnPort[p]++
	if pol := c.policed[p]; len(pol) > 0 && c.offeredOnPort[p]%policedEvery == 0 {
		i := pol[c.pc[p]]
		if c.pc[p]++; c.pc[p] == len(pol) {
			c.pc[p] = 0
		}
		c.vcList[i].offered++
		return i
	}
	reg := c.regular[p]
	i := reg[c.rc[p]]
	if c.rc[p]++; c.rc[p] == len(reg) {
		c.rc[p] = 0
	}
	return i
}

// cycle runs one forwarding cycle and returns the cells the sweep
// processed and the offers the ingress rings refused.
func (c *cellSystem) cycle(tr *tracer) (moved int, refused int64) {
	c.cycles++
	c.now += cycleNanos
	root := tr.begin(spanCycle, 0, c.cycles)
	s := tr.begin(spanInject, root, c.cycles)
	for p, port := range c.ports {
		for k := 0; k < cellsPerPort; k++ {
			if !c.fw.Inject(port, &c.cells[c.offer(p)]) {
				refused++
			}
		}
	}
	tr.end(s)
	s = tr.begin(spanForward, root, c.cycles)
	moved = c.fw.Forward(c.now)
	tr.end(s)
	if tr != nil {
		for _, port := range c.ports {
			c.hwm = max(c.hwm, port.OutLen())
		}
	}
	s = tr.begin(spanTransmit, root, c.cycles)
	for _, port := range c.ports {
		c.fw.Transmit(port, cellsPerCycle)
	}
	tr.end(s)
	tr.end(root)
	return moved, refused
}

func (c *cellSystem) pass(d time.Duration, ts *traceSet) passStats {
	var (
		st  passStats
		wg  sync.WaitGroup
		tr  = ts.lane()
		cyc = make([]int64, 0, 1<<20)
	)
	start := time.Now()
	deadline := start.Add(d)
	if c.ctl != nil {
		c.ctlLat, c.ctlLag, c.ctlRuns = make([]int64, 0, 1<<16), make([]int64, 0, 1<<16), passCounters{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.control(start, deadline, ts.lane())
		}()
	}
	prev := start
	for n := int64(0); ; n++ {
		var lane *tracer
		if n%traceEvery == 0 {
			lane = tr
		}
		moved, refused := c.cycle(lane)
		now := time.Now()
		cyc = append(cyc, int64(now.Sub(prev)))
		if lane == nil {
			st.rootNs = append(st.rootNs, int64(now.Sub(prev)))
		}
		prev = now
		st.attempted += cellsPerCycle
		st.failed += refused
		if moved != cellsPerCycle {
			st.failed++ // a sweep that left offered cells behind
		}
		if now.After(deadline) {
			break
		}
	}
	wg.Wait()
	st.rate = blockThroughput(cyc, cellsPerCycle)
	st.lat = cyc
	if c.ctl != nil {
		// The user-visible operation of cells-churn is the control op.
		st.lat = c.ctlLat
		st.attempted += c.ctlRuns.ops
		st.failed += c.ctlRuns.failed
	}
	return st
}

// control is the open-loop generator: a batch of ctlBatch seeded ops is due
// every ctlPeriod whatever the switch is doing, and each batch is timed
// from its due time, so a stall charges the batches queued behind it.
func (c *cellSystem) control(start, deadline time.Time, tr *tracer) {
	var batch [ctlBatch]ctlOp
	for k := int64(0); ; k++ {
		due := start.Add(time.Duration(k) * ctlPeriod)
		if !due.Before(deadline) {
			return
		}
		for i := range batch {
			batch[i] = c.ctl.next()
		}
		for time.Now().Before(due) {
			runtime.Gosched()
		}
		begun := time.Now()
		root := tr.begin(spanCtlBatch, 0, k)
		for _, op := range batch {
			c.ctlRuns.ops++
			if !c.apply(op, tr, root, k) {
				c.ctlRuns.failed++
			}
		}
		tr.end(root)
		c.ctlLag = append(c.ctlLag, int64(begun.Sub(due)))
		c.ctlLat = append(c.ctlLat, int64(time.Since(due))/ctlBatch)
	}
}

// apply issues one control op and reports whether the outcome was the
// predicted one: every op of cells-churn is generated to succeed.
func (c *cellSystem) apply(op ctlOp, tr *tracer, parent, req int64) bool {
	switch op.kind {
	case opReneg:
		s := tr.begin(spanReneg, parent, req)
		granted, ok, err := c.sw.RenegotiateID(op.id, op.rate)
		tr.end(s)
		if err != nil || !ok || granted != op.rate {
			return false
		}
		c.vcList[op.vc].rate = granted
	case opSetup:
		s := tr.begin(spanSetup, parent, req)
		err := c.sw.SetupID(op.id, op.port, op.rate)
		tr.end(s)
		return err == nil
	case opTeardown:
		s := tr.begin(spanTeardown, parent, req)
		err := c.sw.TeardownID(op.id)
		tr.end(s)
		return err == nil
	}
	return true
}

// ctlOp is one generated control operation.
type ctlOp struct {
	kind uint8
	vc   int32 // index into vcList, for opReneg
	id   switchfab.VCID
	port int
	rate float64
}

const (
	opReneg uint8 = iota
	opSetup
	opTeardown
)

// ctlGen draws the control mix from the seed: 80 % renegotiations of
// forwarded, unpoliced VCs to one of seven levels that always fit, 10 %
// setups and 10 % teardowns on a churn set that never carries cells. It
// tracks which churn VCs are up, so no op is generated to fail.
type ctlGen struct {
	rng      *stats.RNG
	first, n int // forwarded VCs [first, n) are renegotiated
	up, down []uint16
}

func newCtlGen(seed uint64, sc scale) *ctlGen {
	g := &ctlGen{rng: stats.NewRNG(seed), first: sc.policedVCs, n: sc.churnVCs}
	g.down = make([]uint16, sc.churnSet)
	for i := range g.down {
		g.down[i] = uint16(i)
	}
	return g
}

// churnID names a VC of the churn set; VPI 255 keeps it clear of fwdID.
func churnID(v uint16) switchfab.VCID { return switchfab.MakeVCID(255, v) }

func (g *ctlGen) next() ctlOp {
	r := g.rng.Intn(10)
	level := churnLevel(g.rng.Intn(rateLevelCount))
	switch {
	case r < 8:
		vc := g.first + g.rng.Intn(g.n-g.first)
		return ctlOp{kind: opReneg, vc: int32(vc), id: fwdID(vc), rate: level}
	case (r == 8 && len(g.down) > 0) || len(g.up) == 0:
		v := takeRandom(&g.down, g.rng)
		g.up = append(g.up, v)
		return ctlOp{kind: opSetup, id: churnID(v), port: int(v) % cellPorts, rate: level}
	default:
		v := takeRandom(&g.up, g.rng)
		g.down = append(g.down, v)
		return ctlOp{kind: opTeardown, id: churnID(v)}
	}
}

// takeRandom removes and returns a random element of *s.
func takeRandom(s *[]uint16, rng *stats.RNG) uint16 {
	i := rng.Intn(len(*s))
	v := (*s)[i]
	(*s)[i] = (*s)[len(*s)-1]
	*s = (*s)[:len(*s)-1]
	return v
}

func (c *cellSystem) layer(ref, traced passStats, spans []span, m *metricSet) []budget {
	// The forwarding lane: cycle spans and their children.
	var fwdSpans, ctlSpans []span
	for _, s := range spans {
		switch s.Name {
		case spanCycle, spanInject, spanForward, spanTransmit:
			fwdSpans = append(fwdSpans, s)
		default:
			ctlSpans = append(ctlSpans, s)
		}
	}
	lts := selfTimes(fwdSpans)
	cycles := layerNamed(lts, spanCycle).Count
	tracedCells := int64(cycles) * cellsPerCycle
	perCell := func(name string) float64 { return layerNamed(lts, name).perUnit(tracedCells) }
	m.setTimed("datapath.inject_ns_per_cell", perCell(spanInject), cycles)
	m.setTimed("datapath.forward_ns_per_cell", perCell(spanForward), cycles)
	m.setTimed("datapath.transmit_ns_per_cell", perCell(spanTransmit), cycles)
	// What Forward costs beyond the stages probed in isolation: the VC
	// lookup, the shard lock and the per-cell atomics.
	m.set("datapath.unattributed_ns_per_cell", perCell(spanForward)-
		m.values["cell.parse_header_ns"]-m.values["shaper.tick_take_ns"]-m.values["datapath.mpsc_ns"])
	m.set("datapath.egress_hwm_cells", float64(c.hwm))

	setDropShares(m, c.ports)
	snap := c.reg.Snapshot()
	m.set("datapath.batch_fill", snap.Histograms[datapath.MetricBatchCells].Mean()/cellsPerCycle)

	// The whole a cell's parts are held against: the median of the cycles
	// of the same pass that carried no spans.
	budgets := []budget{newBudget(lts, "cell", tracedCells, quantile(sortedCopy(traced.rootNs), 0.5)/cellsPerCycle)}
	if c.sw != nil {
		st := c.sw.Stats()
		if st.Renegotiations > 0 {
			m.set("switchfab.denied_share", float64(st.Denials)/float64(st.Renegotiations))
		}
		m.setTail("switchfab.ctl_op_p99_us", sortedCopy(traced.lat))
		m.setTail("bench.gen_lag_p99_us", sortedCopy(c.ctlLag))
		budgets = append(budgets, newBudget(selfTimes(ctlSpans), "op",
			int64(len(traced.lat))*ctlBatch, quantile(sortedCopy(ref.lat), 0.5)))
	}
	return budgets
}

func (c *cellSystem) finish() []string {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }

	// Exact cell conservation, and nothing left in any ring.
	var arrived, forwarded, policed, overflow, unroutable, badHeader, transmitted int64
	for _, p := range c.ports {
		ps := p.Stats()
		arrived += ps.Arrived
		forwarded += ps.Forwarded
		policed += ps.Policed
		overflow += ps.Overflow
		unroutable += ps.Unroutable
		badHeader += ps.BadHeader
		transmitted += ps.Transmitted
		if ps.InQueued != 0 || ps.OutQueued != 0 {
			fail("port %d rings not empty: %d in, %d out", p.ID(), ps.InQueued, ps.OutQueued)
		}
	}
	if arrived != forwarded+policed+overflow+unroutable+badHeader {
		fail("cell conservation: arrived %d != forwarded %d + policed %d + overflow %d + unroutable %d + bad_header %d",
			arrived, forwarded, policed, overflow, unroutable, badHeader)
	}
	if transmitted != forwarded {
		fail("cell conservation: transmitted %d != forwarded %d", transmitted, forwarded)
	}
	if want := c.cycles * cellsPerCycle; arrived != want {
		fail("arrived %d cells, offered %d", arrived, want)
	}
	// The policed count the generator predicts: a VC granted rate 0 passes
	// its initial bucket of DefaultDepthCells and loses every cell after.
	var wantPoliced int64
	for i := range c.vcList {
		vc := &c.vcList[i]
		if !vc.policed {
			continue
		}
		want := max(0, vc.offered-datapath.DefaultDepthCells)
		wantPoliced += want
		if got, ok := c.fw.VCStats(vc.id); !ok || got.Policed != want {
			fail("vc %s policed %d cells, predicted %d", vc.id, got.Policed, want)
		}
	}
	if policed != wantPoliced {
		fail("policed %d cells, predicted %d", policed, wantPoliced)
	}
	if overflow+unroutable+badHeader != 0 {
		fail("unpredicted drops: overflow %d, unroutable %d, bad_header %d", overflow, unroutable, badHeader)
	}
	if c.sw == nil {
		return bad
	}
	return append(bad, checkBooks(c.sw, c.fw, cellPorts, func(id switchfab.VCID) (float64, bool) {
		i := int(id.VPI()-1)<<16 | int(id.VCI())
		if id.VPI() == 255 || i >= len(c.vcList) {
			return 0, false // churn set: the generator holds no belief
		}
		return c.vcList[i].rate, true
	})...)
}

// setDropShares reports what share of the cells that arrived on ports was
// policed, overflowed an egress ring, or had no route.
func setDropShares(m *metricSet, ports []*datapath.Port) {
	var arrived, policed, overflow, unroutable int64
	for _, p := range ports {
		ps := p.Stats()
		arrived += ps.Arrived
		policed += ps.Policed
		overflow += ps.Overflow
		unroutable += ps.Unroutable
	}
	if arrived > 0 {
		m.set("datapath.policed_share", float64(policed)/float64(arrived))
		m.set("datapath.overflow_share", float64(overflow)/float64(arrived))
		m.set("datapath.unroutable_share", float64(unroutable)/float64(arrived))
	}
}

// checkBooks verifies a switch and its data plane against each other and,
// where the source holds a belief, against that: per VC the switch rate
// equals the shaper rate (and the believed rate); per port reserved equals
// the sum of its VC rates exactly (every rate is a whole number). It then
// tears every VC down and requires exactly empty books.
func checkBooks(sw *switchfab.Switch, fw *datapath.Forwarder, ports int, believed func(switchfab.VCID) (float64, bool)) []string {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	sums := make(map[int]float64)
	all := sw.VCs()
	mismatches := 0
	for _, vc := range all {
		id := switchfab.MakeVCID(vc.VPI, vc.VCI)
		sums[vc.Port] += vc.Rate
		shaped, ok := fw.VCStats(id)
		if !ok || shaped.Rate != vc.Rate {
			mismatches++
		}
		if want, ok := believed(id); ok && want != vc.Rate {
			mismatches++
		}
	}
	if mismatches != 0 {
		fail("source, switch and shaper rates disagree on %d of %d VCs", mismatches, len(all))
	}
	if fw.VCCount() != len(all) {
		fail("data plane routes %d VCs, switch holds %d", fw.VCCount(), len(all))
	}
	for p := 0; p < ports; p++ {
		reserved, _, err := sw.PortLoad(p)
		if err != nil {
			continue // a port this switch does not have
		}
		if reserved != sums[p] {
			fail("port %d reserved %g != sum of VC rates %g", p, reserved, sums[p])
		}
	}
	for _, vc := range all {
		if err := sw.TeardownID(switchfab.MakeVCID(vc.VPI, vc.VCI)); err != nil {
			fail("teardown %d.%d: %v", vc.VPI, vc.VCI, err)
		}
	}
	for p := 0; p < ports; p++ {
		if reserved, _, err := sw.PortLoad(p); err == nil && reserved != 0 {
			fail("port %d reserved %g after teardown, want exactly 0", p, reserved)
		}
	}
	if n := sw.VCCount() + fw.VCCount(); n != 0 {
		fail("%d VCs left after teardown", n)
	}
	if n := sw.Stats().ReservedClamps; n != 0 {
		fail("%d negative-reserved clamps", n)
	}
	return bad
}
