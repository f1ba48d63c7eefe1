package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"rcbr/internal/core"
	"rcbr/internal/datapath"
	"rcbr/internal/heuristic"
	"rcbr/internal/mesh"
	"rcbr/internal/metrics"
	"rcbr/internal/netproto"
	"rcbr/internal/switchfab"
	"rcbr/internal/trace"
)

// loop-3hop: the whole RCBR loop, the only workload in which heuristic,
// mesh, netproto, switchfab and datapath all run. Each source's online
// heuristic renegotiates over a 3-switch path (hop 1 over loopback UDP,
// hops 2 and 3 in process) while the source's cells, emitted at the
// granted CBR rate, cross the same three switches' data planes through a
// mesh.CellPath. One goroutine drives everything in virtual slot time, so
// the work is fixed by the frame count and the quality figures are exact
// counts.
const (
	loopHops       = 3
	loopIngress    = 0
	loopEgress     = 1
	loopLinkSlots  = 2   // propagation delay of every link, in cell slots
	loopCapFactor  = 1.2 // link capacity over the aggregate mean rate
	loopBufferBits = 300e3
	frameTraceRate = 16 // one frame in this many is traced

	spanFrame     = "bench.frame"
	spanHeuristic = "heuristic.step"
	spanPathReneg = "mesh.renegotiate"
	spanCellPath  = "mesh.cellpath"
)

type loopSource struct {
	tr      *trace.Trace
	src     *core.Source
	ctl     *heuristic.Controller
	path    *mesh.Path
	id      switchfab.VCID
	perSlot float64 // cells earned per slot at the granted rate
	credit  float64 // cells earned, not yet emitted
}

// loopCounts are the exact counts of the loop so far; a pass reports the
// difference between two of them.
type loopCounts struct {
	frames     int64
	injected   int64
	delivered  int64
	dropped    int64 // policed + overflow at any hop + link drops
	delaySlots int64
	renegs     int64
	denied     int64
	arrived    float64 // bits the sources produced
	granted    float64 // bits the granted rates would have carried
}

func (a loopCounts) minus(b loopCounts) loopCounts {
	return loopCounts{
		frames: a.frames - b.frames, injected: a.injected - b.injected, delivered: a.delivered - b.delivered,
		dropped: a.dropped - b.dropped, delaySlots: a.delaySlots - b.delaySlots, renegs: a.renegs - b.renegs,
		denied: a.denied - b.denied, arrived: a.arrived - b.arrived, granted: a.granted - b.granted,
	}
}

type loopSystem struct {
	reg      *metrics.Registry
	first    *signalNode // hop 1, reached over UDP
	client   *netproto.Client
	switches [loopHops]*switchfab.Switch
	fws      [loopHops]*datapath.Forwarder
	cp       *mesh.CellPath
	sources  []*loopSource

	framesPerSecond float64
	capacity        float64
	slotSec         float64
	slotsPerFrame   int64
	slot            int64   // next cell slot
	reserved        float64 // the driver's own model of every link's reservation
	counts          loopCounts
	lastPass        loopCounts // what the latest pass added
	opHash          uint64     // FNV-1a over every (VC, request, grant): the op sequence in one word
	enforcedNs      []int64    // request-to-enforced time of the latest pass's granted renegotiations
	hwm             int

	// Set for the duration of a pass; the negotiator reads them.
	lane   *tracer
	parent int64
	st     *passStats
}

func buildLoop3Hop(seed uint64, sc scale, inputsDone func()) (system, error) {
	l := &loopSystem{reg: metrics.NewRegistry(), framesPerSecond: sc.loopFramesPerSecond}
	for i := 0; i < sc.loopSources; i++ {
		tr := trace.SyntheticStarWarsFrames(seed+uint64(i), sc.loopTraceFrames)
		l.sources = append(l.sources, &loopSource{tr: tr, id: switchfab.VCID(100 + i)})
	}
	inputsDone()
	// Every link carries 1.2 x the sources' aggregate mean rate — the mean
	// of the trace model, not of this seed's draw, so that a frame is the
	// same number of cell slots on every seed and the work stays fixed.
	// Slots are cell times on the link; the forwarders' shaper clocks run
	// on whole nanoseconds, so every rate-to-cells conversion below uses
	// the truncated slot the CellPath will use.
	l.capacity = math.Floor(float64(sc.loopSources) * trace.DefaultStarWarsConfig().MeanRate * loopCapFactor)
	slotNanos := int64(1e9 / (l.capacity / datapath.CellPayloadBits))
	l.slotSec = float64(slotNanos) * 1e-9
	frameSec := l.sources[0].tr.SlotSeconds()
	l.slotsPerFrame = int64(frameSec / l.slotSec)

	// Three switches, each with a data plane; the first behind UDP.
	var err error
	if l.first, err = newSignalNode(l.reg, l.capacity, loopIngress, loopEgress); err != nil {
		return nil, err
	}
	if l.client, err = l.first.dial(); err != nil {
		return nil, err
	}
	l.switches[0], l.fws[0] = l.first.sw, l.first.fw
	m := mesh.New(mesh.WithDelayScale(0), mesh.WithMetrics(l.reg))
	if err := m.AddTransport("s1", mesh.ClientTransport{Client: l.client}); err != nil {
		return nil, err
	}
	for k := 1; k < loopHops; k++ {
		l.fws[k] = datapath.New(datapath.WithMetrics(l.reg))
		l.switches[k] = switchfab.New(switchfab.WithDataPlane(l.fws[k]), switchfab.WithMetrics(l.reg))
		for _, p := range []int{loopIngress, loopEgress} {
			if _, err := l.fws[k].AddPort(p); err != nil {
				return nil, err
			}
		}
		if err := m.AddSwitch(fmt.Sprintf("s%d", k+1), l.switches[k]); err != nil {
			return nil, err
		}
	}
	if err := m.AddHost("sink"); err != nil {
		return nil, err
	}
	names := []string{"s1", "s2", "s3", "sink"}
	linkDelay := time.Duration(loopLinkSlots * slotNanos)
	for k := 0; k < loopHops; k++ {
		// AddLink creates the egress port on an in-process switch; s1's
		// was created with its node.
		if err := m.AddLink(names[k], names[k+1], loopEgress, l.capacity, linkDelay); err != nil {
			return nil, err
		}
	}
	hops, err := m.Route(names...)
	if err != nil {
		return nil, err
	}
	cellHops := make([]mesh.CellHop, loopHops)
	for k := range cellHops {
		cellHops[k] = mesh.CellHop{FW: l.fws[k], In: loopIngress, Out: loopEgress, DelaySlots: loopLinkSlots}
	}
	if l.cp, err = mesh.NewCellPath(cellHops, slotNanos); err != nil {
		return nil, err
	}

	p := heuristic.DefaultParams(wireRateStep)
	p.Metrics = l.reg
	for _, s := range l.sources {
		if s.path, err = m.SetupPath(context.Background(), s.id, hops, wireRateStep); err != nil {
			return nil, err
		}
		l.reserved += wireRateStep
		s.src = core.NewSource(loopBufferBits, frameSec, wireRateStep)
		if s.ctl, err = heuristic.NewController(s.src, p, heuristic.NegotiatorFunc(func(cur, want float64) float64 {
			return l.negotiate(s, cur, want)
		})); err != nil {
			return nil, err
		}
	}
	return l, nil
}

func (l *loopSystem) vcs() int { return len(l.sources) }

// negotiate is the source's request: it walks the path, is timed from the
// call to the return — by which time every hop's shaper holds the grant —
// and is checked against the driver's model of the links. All VCs cross
// the same three equal links, so a request fits everywhere or nowhere,
// and hop 1's wire protocol has no partial grant: the prediction is the
// whole request if it fits, the old rate if not.
func (l *loopSystem) negotiate(s *loopSource, cur, want float64) float64 {
	predicted := cur
	if want <= cur || l.reserved-cur+want <= l.capacity {
		predicted = want
	}
	sp := l.lane.begin(spanPathReneg, l.parent, int64(s.id)<<32|l.counts.renegs)
	t0 := time.Now()
	granted, err := s.path.Renegotiate(context.Background(), want)
	took := time.Since(t0)
	l.lane.end(sp)
	if granted != cur {
		// Request-to-enforced is the latency of a rate that moved: all
		// three hops walked. A denial turns back at the first hop.
		l.enforcedNs = append(l.enforcedNs, int64(took))
	}
	l.counts.renegs++
	l.st.attempted++
	// A denial comes back as a *mesh.RateError beside the rate still in
	// force; any other error is a failure of the path itself.
	var denial *mesh.RateError
	if granted != predicted || (err != nil && !errors.As(err, &denial)) {
		l.st.failed++
	}
	if want > cur && granted == cur {
		l.counts.denied++
	}
	l.reserved += granted - cur
	for _, word := range [...]uint64{uint64(s.id), math.Float64bits(want), math.Float64bits(granted)} {
		l.opHash = (l.opHash ^ word) * 1099511628211
	}
	return granted
}

// hopDrops sums the cells any hop policed or overflowed.
func (l *loopSystem) hopDrops() int64 {
	var n int64
	for k := 0; k < loopHops; k++ {
		in, _ := l.cp.Hop(k)
		ps := in.Stats()
		n += ps.Policed + ps.Overflow
	}
	return n
}

func (l *loopSystem) pass(d time.Duration, ts *traceSet) passStats {
	var st passStats
	l.st, l.lane, l.enforcedNs = &st, ts.lane(), nil
	frames := max(1, int(math.Round(l.framesPerSecond*d.Seconds())))
	prev := time.Now()
	iterNs := make([]int64, 0, frames)
	n := int64(len(l.sources))
	before := l.counts
	for f := 0; f < frames; f++ {
		var lane *tracer
		if f%frameTraceRate == 0 {
			lane = l.lane
		}
		// The egress FIFOs are sampled every slot of frames halfway between
		// the span-traced ones, so the sampling is in no span.
		sampleFIFO := l.lane != nil && f%frameTraceRate == frameTraceRate/2
		frame := l.counts.frames
		frameStart := time.Now()
		root := lane.begin(spanFrame, 0, frame)
		// The control step of every source: one frame arrives, the
		// heuristic may renegotiate.
		for _, s := range l.sources {
			sp := lane.begin(spanHeuristic, root, frame)
			l.parent = sp
			bits := float64(s.tr.FrameBits[int(frame)%s.tr.Len()])
			l.counts.arrived += bits
			l.counts.granted += s.src.Rate() * s.src.SlotSeconds()
			s.ctl.Step(bits)
			s.perSlot = s.src.Rate() * l.slotSec / datapath.CellPayloadBits
			lane.end(sp)
		}
		l.parent = 0
		// The cells of this frame time: every source emits at its granted
		// rate, every hop forwards, shapes and transmits.
		sp := lane.begin(spanCellPath, root, frame)
		for k := int64(0); k < l.slotsPerFrame; k++ {
			for _, s := range l.sources {
				for s.credit += s.perSlot; s.credit >= 1; s.credit-- {
					l.cp.InjectStamped(s.id, l.slot)
				}
			}
			l.cp.Step(l.slot)
			l.slot++
			if sampleFIFO {
				for h := 0; h < loopHops; h++ {
					_, out := l.cp.Hop(h)
					l.hwm = max(l.hwm, out.OutLen())
				}
			}
		}
		lane.end(sp)
		lane.end(root)
		l.counts.frames++
		now := time.Now()
		if lane == nil && !sampleFIFO {
			st.rootNs = append(st.rootNs, int64(now.Sub(frameStart)))
		}
		iterNs = append(iterNs, int64(now.Sub(prev)))
		prev = now
	}
	st.rate = blockThroughput(iterNs, float64(n))
	st.lat = iterNs // the operation of loop-3hop is one frame of every source
	cpAfter := l.cp.Stats()
	l.counts.injected = cpAfter.Injected
	l.counts.delivered = cpAfter.Delivered
	l.counts.delaySlots = cpAfter.SumDelaySlots
	l.counts.dropped = cpAfter.LinkDrops + l.hopDrops()
	l.lastPass = l.counts.minus(before)
	// The sources emit at exactly the rate the shapers enforce, so every
	// cell is predicted to arrive: a drop anywhere is an unexpected outcome.
	st.attempted += l.lastPass.injected
	st.failed += l.lastPass.dropped
	l.st, l.lane = nil, nil
	return st
}

func (l *loopSystem) layer(ref, traced passStats, spans []span, m *metricSet) []budget {
	// Only spans inside traced frames reconcile against a frame's cost;
	// a renegotiation in an untraced frame is a root of its own.
	var inFrames []span
	for _, s := range spans {
		if s.Name == spanFrame || s.Parent != 0 {
			inFrames = append(inFrames, s)
		}
	}
	lts := selfTimes(inFrames)
	tracedFrames := int64(layerNamed(lts, spanFrame).Count)
	m.setTimed("mesh.cellpath_step_ns_per_slot",
		layerNamed(lts, spanCellPath).perUnit(tracedFrames*l.slotsPerFrame), int(tracedFrames))
	enforced := sortedCopy(l.enforcedNs)
	m.setTimed("mesh.reneg_enforced_p50_us", quantile(enforced, 0.5)/1e3, len(enforced))
	m.setTail("mesh.reneg_p99_us", enforced)
	snap := l.reg.Snapshot()
	m.set("mesh.rollbacks", float64(snap.Counters[mesh.MetricMeshRollbackHops]))
	m.set("netproto.retries", float64(snap.Counters[netproto.MetricClientRetries]))
	m.set("netproto.server_drops", float64(snap.Counters[netproto.MetricServerDropped]))
	m.set("datapath.batch_fill", snap.Histograms[datapath.MetricBatchCells].Mean()/(2*datapath.DefaultBurst))
	m.set("datapath.egress_hwm_cells", float64(l.hwm))

	var ingress []*datapath.Port
	var renegs, denials int64
	for k := 0; k < loopHops; k++ {
		in, _ := l.cp.Hop(k)
		ingress = append(ingress, in)
		st := l.switches[k].Stats()
		renegs += st.Renegotiations
		denials += st.Denials
	}
	setDropShares(m, ingress)
	if renegs > 0 {
		m.set("switchfab.denied_share", float64(denials)/float64(renegs))
	}

	// Quality of the traced pass: exact counts in virtual time.
	q := l.lastPass
	virtualSec := float64(q.frames) * l.sources[0].tr.SlotSeconds()
	m.set("heuristic.renegs_per_source_s", float64(q.renegs)/(float64(len(l.sources))*virtualSec))
	if q.injected > 0 {
		m.set("loop.cell_loss_share", float64(q.dropped)/float64(q.injected))
	}
	if q.delivered > 0 {
		m.set("loop.cell_delay_mean_slots", float64(q.delaySlots)/float64(q.delivered))
	}
	m.set("loop.cell_delay_max_slots", float64(l.cp.Stats().MaxDelaySlots))
	if q.renegs > 0 {
		m.set("loop.reneg_denied_share", float64(q.denied)/float64(q.renegs))
	}
	if q.granted > 0 {
		m.set("loop.bw_efficiency", q.arrived/q.granted)
	}

	n := int64(len(l.sources))
	// The whole: the median frame of the same pass that carried no spans
	// (frames differ in load, so the pass before is no yardstick).
	return []budget{newBudget(lts, "frame", tracedFrames*n, quantile(sortedCopy(traced.rootNs), 0.5)/float64(n))}
}

func (l *loopSystem) finish() []string {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }

	// Drain: no new cells, until every ring and link is empty.
	queued := func() int {
		n := l.cp.InFlight()
		for k := 0; k < loopHops; k++ {
			in, out := l.cp.Hop(k)
			n += in.InLen() + out.OutLen()
		}
		return n
	}
	for limit := l.slot + 1<<20; queued() > 0 && l.slot < limit; l.slot++ {
		l.cp.Step(l.slot)
	}
	if n := queued(); n != 0 {
		fail("%d cells still queued after the drain", n)
	}
	cs := l.cp.Stats()
	var dropped int64
	for k := 0; k < loopHops; k++ {
		in, out := l.cp.Hop(k)
		ps, os := in.Stats(), out.Stats()
		if ps.Arrived != ps.Forwarded+ps.Policed+ps.Overflow+ps.Unroutable+ps.BadHeader {
			fail("hop %d cell conservation: arrived %d != forwarded %d + policed %d + overflow %d + unroutable %d + bad_header %d",
				k, ps.Arrived, ps.Forwarded, ps.Policed, ps.Overflow, ps.Unroutable, ps.BadHeader)
		}
		if os.Transmitted != ps.Forwarded {
			fail("hop %d cell conservation: transmitted %d != forwarded %d", k, os.Transmitted, ps.Forwarded)
		}
		dropped += ps.Policed + ps.Overflow + ps.Unroutable + ps.BadHeader
	}
	if cs.Delivered != cs.Injected-cs.LinkDrops-dropped {
		fail("path conservation: delivered %d != injected %d - link drops %d - hop drops %d",
			cs.Delivered, cs.Injected, cs.LinkDrops, dropped)
	}
	if cs.LinkDrops+dropped != 0 {
		fail("unpredicted cell loss: %d link drops, %d hop drops", cs.LinkDrops, dropped)
	}

	// Source, path, and every hop's switch and shaper hold the same rate;
	// the driver's link model equals every switch's reserved figure.
	believed := make(map[switchfab.VCID]float64, len(l.sources))
	for _, s := range l.sources {
		believed[s.id] = s.src.Rate()
		if s.path.Rate() != s.src.Rate() {
			fail("vc %s: path holds %g, source believes %g", s.id, s.path.Rate(), s.src.Rate())
		}
	}
	for k, sw := range l.switches {
		if reserved, _, err := sw.PortLoad(loopEgress); err != nil || reserved != l.reserved {
			fail("hop %d reserved %g, driver's model %g (%v)", k, reserved, l.reserved, err)
		}
	}
	if err := l.client.Close(); err != nil {
		fail("client close: %v", err)
	}
	if err := l.first.close(); err != nil {
		fail("server close: %v", err)
	}
	for k, sw := range l.switches {
		for _, b := range checkBooks(sw, l.fws[k], loopEgress+1, func(id switchfab.VCID) (float64, bool) {
			rate, ok := believed[id]
			return rate, ok
		}) {
			fail("hop %d: %s", k, b)
		}
	}
	return bad
}
