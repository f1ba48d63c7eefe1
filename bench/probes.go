package main

import (
	"context"
	"net"
	"runtime"
	"time"

	"rcbr/internal/cell"
	"rcbr/internal/core"
	"rcbr/internal/datapath"
	"rcbr/internal/heuristic"
	"rcbr/internal/mesh"
	"rcbr/internal/metrics"
	"rcbr/internal/netproto"
	"rcbr/internal/shaper"
	"rcbr/internal/stats"
	"rcbr/internal/switchfab"
	"rcbr/internal/trace"
)

// Stage probes time one layer's public functions in isolation, over inputs
// generated from the seed. They are the same on every workload; a traced
// run reports them beside the spans of the workload itself, so a budget
// can set the cost of a whole call against the stages it is made of.

// probeRepeats is how many times a probe loop is timed; the median of the
// repeats is reported, so one preemption does not move the figure.
const probeRepeats = 5

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink uint64

// timeLoop returns the median ns per iteration of loop(n) over
// probeRepeats timings, after one untimed warm-up round. prep, when not
// nil, runs untimed before every round to restore what loop consumes.
func timeLoop(n int, prep, loop func(n int)) float64 {
	times := make([]float64, 0, probeRepeats)
	for r := 0; r <= probeRepeats; r++ {
		if prep != nil {
			prep(n)
		}
		start := time.Now()
		loop(n)
		if r > 0 {
			times = append(times, float64(time.Since(start))/float64(n))
		}
	}
	return medianFloat(times)
}

// prober runs the stage probes at one scale: table sizes come from sc and
// every iteration count is divided by sc.probeDiv.
type prober struct {
	seed uint64
	sc   scale
	rng  *stats.RNG
	m    *metricSet
}

// iters scales a full-size iteration count.
func (p *prober) iters(n int) int { return max(1, n/p.sc.probeDiv) }

// probe times loop over the scaled count and stores it under name.
func (p *prober) probe(name string, n int, prep, loop func(n int)) {
	p.m.setTimed(name, timeLoop(p.iters(n), prep, loop), probeRepeats)
}

func runProbes(seed uint64, sc scale, m *metricSet) error {
	p := &prober{seed: seed, sc: sc, rng: stats.NewRNG(seed), m: m}
	p.cell()
	p.rings()
	p.counters()
	for _, stage := range []func() error{p.hot, p.control, p.signaling, p.echo, p.sources} {
		if err := stage(); err != nil {
			return err
		}
	}
	return nil
}

// cell probes the codec and the shaper, the per-cell stages of Forward.
func (p *prober) cell() {
	const n = 1 << 20
	hdrs := make([][cell.HeaderSize]byte, 1024)
	for i := range hdrs {
		h := cell.Header{VPI: uint8(p.rng.Intn(256)), VCI: uint16(p.rng.Intn(1 << 16))}
		hdrs[i], _ = h.Marshal() // in-range fields always marshal
	}
	p.probe("cell.parse_header_ns", n, nil, func(n int) {
		for i := 0; i < n; i++ {
			h, _ := cell.ParseHeader(hdrs[i&1023][:])
			sink += uint64(h.VCI)
		}
	})
	var buf datapath.Cell
	payload := make([]byte, 8)
	h := cell.Header{VPI: 3, VCI: 42}
	p.probe("cell.put_data_ns", n, nil, func(n int) {
		for i := 0; i < n; i++ {
			payload[0] = byte(i)
			_ = cell.PutData(&buf, h, payload) // fixed valid header
		}
	})
	p.probe("cell.parse_data_ns", n, nil, func(n int) {
		for i := 0; i < n; i++ {
			_, p, _ := cell.ParseData(buf[:])
			sink += uint64(p[0])
		}
	})
	p.probe("cell.rm_build_parse_ns", n/4, nil, func(n int) {
		for i := 0; i < n; i++ {
			c, _ := cell.Build(h, cell.RM{ER: wireLevel(i & 3), Seq: uint32(i)})
			_, rm, _ := cell.Parse(c[:])
			sink += uint64(rm.Seq)
		}
	})
	tb := shaper.New(hotRate, datapath.DefaultDepthCells*datapath.CellPayloadBits)
	p.probe("shaper.tick_take_ns", n, nil, func(n int) {
		for i := 0; i < n; i++ {
			tb.Tick(1e-6)
			if tb.Take(datapath.CellPayloadBits) {
				sink++
			}
		}
	})
}

// rings probes one cell through each ring kind, push to advance.
func (p *prober) rings() {
	const n = 1 << 20
	var c datapath.Cell
	spsc := datapath.NewRing(datapath.DefaultRingCells)
	p.probe("datapath.spsc_ns", n, nil, func(n int) {
		for i := 0; i < n; i++ {
			spsc.Push(&c)
			sink += uint64(spsc.Peek()[0])
			spsc.Advance()
		}
	})
	mpsc := datapath.NewMPSCRing(datapath.DefaultRingCells)
	p.probe("datapath.mpsc_ns", n, nil, func(n int) {
		for i := 0; i < n; i++ {
			mpsc.Push(&c)
			sink += uint64(mpsc.Peek()[0])
			mpsc.Advance()
		}
	})
}

// hot runs fixed numbers of cells-hot cycles: mallocs per cell (the
// steady state allocates nothing), and the same cycles with and without a
// registry attached, which prices the registry's share of a cell.
func (p *prober) hot() error {
	cycles := p.iters(1000)
	run := func(c *cellSystem) func(int) {
		return func(n int) {
			for i := 0; i < n; i++ {
				c.cycle(nil)
			}
		}
	}
	with, err := newHotSystem(p.sc.hotVCs, metrics.NewRegistry(), func() {})
	if err != nil {
		return err
	}
	bare, err := newHotSystem(p.sc.hotVCs, nil, func() {})
	if err != nil {
		return err
	}
	// The least of several counts: the runtime's own background mallocs
	// land in some rounds, the forwarder's would land in all.
	mallocs := ^uint64(0)
	for r := 0; r <= probeRepeats; r++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run(with)(cycles)
		runtime.ReadMemStats(&after)
		mallocs = min(mallocs, after.Mallocs-before.Mallocs)
	}
	p.m.setTimed("datapath.allocs_per_cell", float64(mallocs)/float64(cycles*cellsPerCycle), probeRepeats)

	// Registry on against registry off, in adjacent pairs: the median of
	// the paired ratios rides out the slow spells a shared host has.
	shares := make([]float64, 0, registryPairs)
	for i := 0; i < registryPairs; i++ {
		tWith := timeLoop(cycles, nil, run(with))
		tBare := timeLoop(cycles, nil, run(bare))
		shares = append(shares, 1-tBare/tWith)
	}
	p.m.setTimed("metrics.registry_cost_share", medianFloat(shares), registryPairs)
	return nil
}

// registryPairs is how many on/off pairs price the registry.
const registryPairs = 7

// control probes the control operations at cells-churn's table size, on a
// switch wired as cells-churn wires it (data plane, MBAC admitter,
// registry), with nothing else running.
func (p *prober) control() error {
	sys, err := buildCellsChurn(p.seed, p.sc, func() {})
	if err != nil {
		return err
	}
	c := sys.(*cellSystem)
	extra := p.sc.churnSet
	picks := make([]int, p.iters(1<<16))
	for i := range picks {
		picks[i] = c.ctl.first + p.rng.Intn(len(c.vcList)-c.ctl.first)
	}

	// The forwarder's own table, beneath the switch, on ids neither fwdID
	// nor churnID uses. Errors from the restoring halves are expected: the
	// first round finds nothing to remove, later ones find the VC present.
	spare := func(i int) switchfab.VCID { return switchfab.MakeVCID(254, uint16(i)) }
	addSpare := func(n int) {
		for i := 0; i < n; i++ {
			_ = c.fw.AddVC(spare(i), i%cellPorts, hotRate)
		}
	}
	removeSpare := func(n int) {
		for i := 0; i < n; i++ {
			_, _ = c.fw.RemoveVC(spare(i))
		}
	}
	// These counts are table positions, not iteration counts to scale.
	timed := func(name string, n int, prep, loop func(n int)) {
		p.m.setTimed(name, timeLoop(n, prep, loop), probeRepeats)
	}
	timed("datapath.add_vc_ns", extra, removeSpare, addSpare)
	timed("datapath.remove_vc_ns", extra, addSpare, removeSpare)
	timed("datapath.set_rate_ns", len(picks), nil, func(n int) {
		for i := 0; i < n; i++ {
			_ = c.fw.SetVCRate(fwdID(picks[i]), churnLevel(i%rateLevelCount)) // existing VC, valid rate
		}
	})

	timed("switchfab.renegotiate_ns", len(picks), nil, func(n int) {
		for i := 0; i < n; i++ {
			g, _, _ := c.sw.RenegotiateID(fwdID(picks[i]), churnLevel(i%rateLevelCount))
			sink += uint64(g)
		}
	})
	setup := func(n int) {
		for i := 0; i < n; i++ {
			_ = c.sw.SetupID(churnID(uint16(i)), i%cellPorts, churnLevel(0))
		}
	}
	teardown := func(n int) {
		for i := 0; i < n; i++ {
			_ = c.sw.TeardownID(churnID(uint16(i)))
		}
	}
	timed("switchfab.setup_ns", extra, teardown, setup)
	timed("switchfab.teardown_ns", extra, setup, teardown)
	timed("admission.admit_ns", len(picks), nil, func(n int) {
		for i := 0; i < n; i++ {
			if c.ad.AdmitCall(i%cellPorts, churnLevel(i%rateLevelCount), 0, churnPortCap) {
				sink++
			}
		}
	})
	return nil
}

// signaling probes the RM decision in process, the frame codec, a 3-hop
// path walk with no socket, and the bare loopback UDP echo that is the
// floor under every signaling round trip.
func (p *prober) signaling() error {
	const n = 1 << 16
	reg := metrics.NewRegistry()
	node, err := newSignalNode(reg, rttPortCap, 0, 1, 2, 3)
	if err != nil {
		return err
	}
	defer node.close() // the probe calls the switch directly; the server only idles
	sw := node.sw
	for v := 1; v <= p.sc.rttVCs; v++ {
		if err := sw.Setup(uint16(v), v%cellPorts, wireLevel(0)); err != nil {
			return err
		}
	}
	p.probe("switchfab.handle_rm_ns", n, nil, func(n int) {
		for i := 0; i < n; i++ {
			h := cell.Header{VCI: uint16(1 + i%p.sc.rttVCs)}
			// Up one step on even laps of the table, down on odd ones.
			rm := cell.RM{ER: wireRateStep, Decrease: (i/p.sc.rttVCs)%2 == 1}
			out, _ := sw.HandleRM(h, rm)
			sink += uint64(out.ER)
		}
	})
	buf := make([]byte, 0, 128)
	p.probe("netproto.encode_decode_ns", n, nil, func(n int) {
		for i := 0; i < n; i++ {
			pkt, _ := netproto.AppendRM(buf[:0], uint32(i), cell.Header{VCI: uint16(i)}, cell.RM{ER: wireRateStep, Seq: uint32(i)})
			f, _ := netproto.ParseFrame(pkt)
			_, rm, _ := netproto.DecodeRM(f.Payload)
			sink += uint64(rm.Seq)
		}
	})

	// Three in-process hops, no UDP: what a path walk costs by itself.
	ms := mesh.New(mesh.WithDelayScale(0), mesh.WithMetrics(reg))
	names := []string{"a", "b", "c", "sink"}
	for _, name := range names[:loopHops] {
		if err := ms.AddSwitch(name, switchfab.New(switchfab.WithMetrics(reg))); err != nil {
			return err
		}
	}
	if err := ms.AddHost(names[loopHops]); err != nil {
		return err
	}
	for k := 0; k < loopHops; k++ {
		if err := ms.AddLink(names[k], names[k+1], loopEgress, rttPortCap, 0); err != nil {
			return err
		}
	}
	hops, err := ms.Route(names...)
	if err != nil {
		return err
	}
	ctx := context.Background()
	path, err := ms.SetupPath(ctx, 1, hops, wireLevel(0))
	if err != nil {
		return err
	}
	p.probe("mesh.path_reneg_inproc_ns", n/4, nil, func(n int) {
		for i := 0; i < n; i++ {
			g, _ := path.Renegotiate(ctx, wireLevel(i&1)) // alternates; both fit
			sink += uint64(g)
		}
	})
	return nil
}

// echo times a bare UDP echo on the loopback interface: one goroutine
// reads a datagram and writes it back, the caller waits for it.
func (p *prober) echo() error {
	trips := p.iters(4000)
	srv, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 128)
		for {
			n, from, err := srv.ReadFrom(buf)
			if err != nil {
				return // closed below
			}
			if _, err := srv.WriteTo(buf[:n], from); err != nil {
				return
			}
		}
	}()
	defer func() {
		_ = srv.Close() // unblocks the echo goroutine
		<-done
	}()
	conn, err := net.Dial("udp", srv.LocalAddr().String())
	if err != nil {
		return err
	}
	defer conn.Close()
	msg := make([]byte, 64)
	lat := make([]int64, 0, trips)
	for i := 0; i < trips+trips/10; i++ {
		if err := conn.SetDeadline(time.Now().Add(time.Second)); err != nil {
			return err
		}
		start := time.Now()
		if _, err := conn.Write(msg); err != nil {
			return err
		}
		if _, err := conn.Read(msg); err != nil {
			return err
		}
		if i >= trips/10 { // the first tenth warms the path up
			lat = append(lat, int64(time.Since(start)))
		}
	}
	p.m.setTimed("netproto.udp_echo_p50_us", quantile(sortedCopy(lat), 0.5)/1e3, len(lat))
	return nil
}

// sources probes the source side — synthesizing a trace and one step of
// the online heuristic with every request granted.
func (p *prober) sources() error {
	const frames = 1 << 15
	var tr *trace.Trace
	p.probe("trace.synth_ns_per_frame", frames, nil, func(n int) {
		tr = trace.SyntheticStarWarsFrames(p.seed, n)
	})
	src := core.NewSource(loopBufferBits, tr.SlotSeconds(), wireRateStep)
	ctl, err := heuristic.NewController(src, heuristic.DefaultParams(wireRateStep), heuristic.AlwaysGrant{})
	if err != nil {
		return err
	}
	p.probe("heuristic.step_ns", frames, nil, func(n int) {
		for i := 0; i < n; i++ {
			rate, _, _ := ctl.Step(float64(tr.FrameBits[i%tr.Len()]))
			sink += uint64(rate)
		}
	})
	return nil
}

// counters probes what one counted fact and one observed latency cost.
func (p *prober) counters() {
	const n = 1 << 20
	reg := metrics.NewRegistry()
	ctr := reg.Counter(datapath.MetricCellsArrived)
	hist := reg.Histogram(switchfab.MetricRenegLatency, metrics.DefBuckets)
	p.probe("metrics.counter_inc_ns", n, nil, func(n int) {
		for i := 0; i < n; i++ {
			ctr.Inc()
		}
	})
	p.probe("metrics.histogram_observe_ns", n, nil, func(n int) {
		for i := 0; i < n; i++ {
			hist.Observe(float64(i&1023) * 1e-6)
		}
	})
}
