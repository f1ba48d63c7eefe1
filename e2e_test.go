package rcbr_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"rcbr/internal/admission"
	"rcbr/internal/bookahead"
	"rcbr/internal/core"
	"rcbr/internal/fit"
	"rcbr/internal/heuristic"
	"rcbr/internal/ld"
	"rcbr/internal/mesh"
	"rcbr/internal/metrics"
	"rcbr/internal/netproto"
	"rcbr/internal/shaper"
	"rcbr/internal/stats"
	"rcbr/internal/switchfab"
	"rcbr/internal/trace"
	"rcbr/internal/trellis"
)

// The tests in this file cross package boundaries the way the examples and
// commands do; each package's own behaviour is tested beside it.

// TestPublicAPIEndToEnd walks the paper front to back: trace -> offline
// schedule -> verification, the online heuristic, a switch over UDP,
// admission control on the schedule's descriptor, and a Source stepped under
// the schedule.
func TestPublicAPIEndToEnd(t *testing.T) {
	tr := trace.SyntheticStarWarsFrames(1, 2400)
	if tr.Len() != 2400 {
		t.Fatalf("trace len %d", tr.Len())
	}

	const buffer = 300e3
	levels := stats.UniformLevels(48e3, 5e6, 16)
	sch, st, err := trellis.Optimize(tr, trellis.Options{
		Levels:         levels,
		BufferBits:     buffer,
		BufferGridBits: buffer / 2048,
		Cost:           core.CostModel{Alpha: 3e5, Beta: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Cost <= 0 || sch.Renegotiations() == 0 {
		t.Fatalf("degenerate schedule: %+v", st)
	}
	if !sch.Feasible(tr, buffer) {
		t.Fatal("optimal schedule infeasible")
	}

	hres, err := heuristic.Run(tr, buffer, heuristic.DefaultParams(64e3), nil)
	if err != nil {
		t.Fatal(err)
	}
	if hres.Schedule.Renegotiations() == 0 {
		t.Fatal("heuristic never renegotiated")
	}

	// A switch over UDP loopback.
	sw := switchfab.New()
	if err := sw.AddPort(1, 10e6); err != nil {
		t.Fatal(err)
	}
	srv, err := netproto.NewServer("127.0.0.1:0", sw)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	go srv.Serve() //nolint:errcheck
	ctx := context.Background()
	cl, err := netproto.DialContext(ctx, srv.Addr().String(),
		netproto.WithTimeout(200*time.Millisecond), netproto.WithRetries(2))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Setup(ctx, 1, 1, sch.Segments[0].Rate); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := cl.Renegotiate(ctx, 1, sch.Segments[0].Rate, 1e6); err != nil || !ok {
		t.Fatalf("renegotiate: %v ok=%v", err, ok)
	}
	if err := cl.Teardown(ctx, 1); err != nil {
		t.Fatal(err)
	}

	// Admission control over the schedule's descriptor.
	desc := sch.Descriptor(levels)
	dist := ld.Dist{P: desc.Probabilities(), X: desc.Levels()}
	pk, err := admission.NewPerfectKnowledge(dist, 20*sch.MeanRate(), 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if !pk.Admit(0, dist.X[0]) {
		t.Fatal("empty system rejected")
	}
	if _, err := admission.NewMemoryless(levels, 1e7, 1e-3); err != nil {
		t.Fatal(err)
	}
	if _, err := admission.NewMemory(levels, 1e7, 1e-3); err != nil {
		t.Fatal(err)
	}

	// A Source stepping under the granted schedule.
	src := core.NewSource(buffer, tr.SlotSeconds(), sch.Segments[0].Rate)
	rates := sch.Rates()
	for i := 0; i < tr.Len(); i++ {
		src.SetRate(rates[i])
		src.Step(float64(tr.FrameBits[i]))
	}
	if src.LostBits() != 0 {
		t.Fatalf("source lost %v bits under the optimal schedule", src.LostBits())
	}
}

// TestObservabilityAndErrors shares one metrics registry and one event log
// across switch, server, and client, and checks that the switch's sentinel
// errors hold their identity across the UDP signaling path.
func TestObservabilityAndErrors(t *testing.T) {
	reg := metrics.NewRegistry()
	ring := metrics.NewEventLog(32)
	sw := switchfab.New(switchfab.WithMetrics(reg), switchfab.WithEventTrace(ring))
	if err := sw.AddPort(1, 1e6); err != nil {
		t.Fatal(err)
	}
	srv, err := netproto.NewServer("127.0.0.1:0", sw, netproto.WithServerMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	go srv.Serve() //nolint:errcheck

	ctx := context.Background()
	cl, err := netproto.DialContext(ctx, srv.Addr().String(),
		netproto.WithTimeout(time.Second), netproto.WithRetries(2),
		netproto.WithClientMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if err := cl.Setup(ctx, 5, 1, 600e3); err != nil {
		t.Fatal(err)
	}
	// Oversubscribing the 1 Mb/s port must surface as a rejection even
	// though it happened on the far side of a UDP socket.
	err = cl.Setup(ctx, 6, 1, 600e3)
	if err == nil || !switchfab.IsReject(err) {
		t.Fatalf("oversubscribed setup: %v (IsReject=false)", err)
	}
	if !errors.Is(err, switchfab.ErrCapacity) || !errors.Is(err, netproto.ErrRemote) {
		t.Fatalf("error %v lost its wire identity", err)
	}
	if errors.Is(err, netproto.ErrTimeout) || errors.Is(err, context.DeadlineExceeded) {
		t.Fatal("capacity error misclassified as timeout")
	}
	if err := cl.Teardown(ctx, 5); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	if snap.Counters[switchfab.MetricSetups] != 1 || snap.Counters[switchfab.MetricSetupRejects] != 1 ||
		snap.Counters[switchfab.MetricTeardowns] != 1 {
		t.Fatalf("switch counters: %v", snap.Counters)
	}
	if g := snap.Gauges[switchfab.PortReservedGauge(1)]; g != 0 {
		t.Fatalf("port gauge = %v after teardown", g)
	}
	if snap.Counters[netproto.MetricServerErrors] != 1 {
		t.Fatalf("server counters: %v", snap.Counters)
	}
	if ring.Total() != 3 { // setup, setup-reject, teardown
		t.Fatalf("events recorded = %d, want 3", ring.Total())
	}

	// A context already expired fails fast, with the context's own error.
	expired, cancel := context.WithDeadline(ctx, time.Now().Add(-time.Second))
	defer cancel()
	if err := cl.Setup(expired, 7, 1, 1e3); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired context: %v", err)
	}
}

// TestGenerateTraceCustomConfig synthesizes from an explicit configuration
// (frame rate, GOP, scene classes) rather than the Star Wars calibration.
func TestGenerateTraceCustomConfig(t *testing.T) {
	cfg := trace.Config{
		Frames:   1200,
		FPS:      30,
		MeanRate: 1e6,
		GOP:      "IBBP",
		IWeight:  2.5, PWeight: 1.2, BWeight: 0.7,
		Classes: []trace.SceneClass{
			{Name: "calm", Multiplier: 0.8, MeanDurSec: 5, Weight: 0.7, GOPFactor: 1},
			{Name: "busy", Multiplier: 1.5, MeanDurSec: 5, Weight: 0.3, GOPFactor: 0.8},
		},
		ARCoeff: 0.7,
		ARSigma: 0.1,
	}
	tr, err := trace.Synthesize(cfg, stats.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	if tr.FPS != 30 || tr.Len() != 1200 {
		t.Fatalf("trace %v/%d", tr.FPS, tr.Len())
	}
	mean := tr.MeanRate()
	if mean < 0.98e6 || mean > 1.02e6 {
		t.Fatalf("mean %v", mean)
	}
}

// TestFacadeExtensions feeds one trace and its optimal schedule to the
// packages around the core: the token-bucket baseline and burstiness curve,
// the advance-reservation calendar, and model fitting.
func TestFacadeExtensions(t *testing.T) {
	tr := trace.SyntheticStarWarsFrames(2, 4800)

	// Token bucket and burstiness curve.
	tb := shaper.New(1e6, 1e5)
	if !tb.Take(5e4) {
		t.Fatal("take failed")
	}
	d := shaper.MinDepth(tr, 1.2*tr.MeanRate())
	if d <= 0 {
		t.Fatalf("burstiness depth %v", d)
	}

	// Advance reservations.
	cal := bookahead.NewCalendar(10e6)
	sch, _, err := trellis.Optimize(tr, trellis.Options{
		Levels:         stats.UniformLevels(48e3, 5e6, 10),
		BufferBits:     300e3,
		BufferGridBits: 300e3 / 2048,
		Cost:           core.CostModel{Alpha: 1e6, Beta: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cal.Book(0, sch); err != nil {
		t.Fatal(err)
	}

	// Model fitting.
	model, err := fit.Fit(tr, fit.DefaultOptions(tr))
	if err != nil {
		t.Fatal(err)
	}
	if len(model.ClassMeans) < 2 {
		t.Fatalf("model classes %v", model.ClassMeans)
	}
}

// TestSwitchMemoryAdmitter wires the live memory-based MBAC into a switch: a
// MemoryAdmitter installed with WithAdmitter sees setups and teardowns, and
// its denials are ordinary rejections.
func TestSwitchMemoryAdmitter(t *testing.T) {
	adm, err := switchfab.NewMemoryAdmitter([]float64{64e3, 4e6}, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	sw := switchfab.New(switchfab.WithAdmitter(adm))
	if err := sw.AddPort(1, 10e6); err != nil {
		t.Fatal(err)
	}
	for vci := switchfab.VCID(1); vci <= 2; vci++ {
		if err := sw.SetupID(vci, 1, 4e6); err != nil {
			t.Fatal(err)
		}
	}
	if got := adm.PortCalls(1); got != 2 {
		t.Fatalf("admitter tracks %d calls, want 2", got)
	}
	time.Sleep(time.Millisecond) // accrue dwell history at 4 Mb/s per call
	if err := sw.Setup(3, 1, 64e3); !errors.Is(err, switchfab.ErrAdmission) {
		t.Fatalf("third call: err = %v, want an admission denial", err)
	}
	for vci := switchfab.VCID(1); vci <= 2; vci++ {
		if err := sw.TeardownID(vci); err != nil {
			t.Fatal(err)
		}
	}
	if got := adm.PortCalls(1); got != 0 {
		t.Fatalf("admitter tracks %d calls after drain, want 0", got)
	}
}

// TestMeshFacade drives a mesh path over three switch hops end to end:
// topology building, VCID-native setup, min-along-path renegotiation with a
// counter-offer error, and teardown, with the mesh's counters and events in
// a shared registry and log.
func TestMeshFacade(t *testing.T) {
	reg := metrics.NewRegistry()
	ring := metrics.NewEventLog(64)
	m := mesh.New(
		mesh.WithHopTimeout(2*time.Second),
		mesh.WithMetrics(reg),
		mesh.WithEvents(ring),
		mesh.WithDelayScale(0),
	)
	for _, name := range []string{"ingress", "core", "egress"} {
		if err := m.AddSwitch(name, switchfab.New()); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.AddHost("sink"); err != nil {
		t.Fatal(err)
	}
	for _, l := range []struct {
		from, to string
		capacity float64
	}{
		{"ingress", "core", 10e6},
		{"core", "egress", 2e6}, // the bottleneck
		{"egress", "sink", 10e6},
	} {
		if err := m.AddLink(l.from, l.to, 1, l.capacity, time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	hops, err := m.Route("ingress", "core", "egress", "sink")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	id := switchfab.MakeVCID(3, 42)
	p, err := m.SetupPath(ctx, id, hops, 500e3)
	if err != nil {
		t.Fatal(err)
	}
	if p.VCID() != id || p.Hops() != 3 {
		t.Fatalf("path: id=%s hops=%d", p.VCID(), p.Hops())
	}
	// 5 Mb/s exceeds the 2 Mb/s core->egress link: the path settles at
	// the bottleneck rate and surfaces the counter-offer.
	got, err := p.Renegotiate(ctx, 5e6)
	if !errors.Is(err, switchfab.ErrCapacity) {
		t.Fatalf("want ErrCapacity via RateError, got %v", err)
	}
	var re *mesh.RateError
	if !errors.As(err, &re) {
		t.Fatalf("want *mesh.RateError, got %T", err)
	}
	if got != 2e6 || re.Offered != 2e6 || re.HopName != "core" {
		t.Fatalf("counter-offer: got=%v err=%+v", got, re)
	}
	if !switchfab.IsReject(err) {
		t.Error("IsReject must recognize a mesh RateError")
	}
	if err := p.Teardown(ctx); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap.Counters[mesh.MetricMeshSetups] != 1 ||
		snap.Counters[mesh.MetricMeshPartials] != 1 ||
		snap.Counters[mesh.MetricMeshTeardowns] != 1 {
		t.Fatalf("mesh counters: %+v", snap.Counters)
	}
	kinds := make(map[string]bool)
	for _, e := range ring.Events() {
		kinds[e.Kind.String()] = true
	}
	for _, want := range []string{"path-setup", "path-partial", "path-teardown"} {
		if !kinds[want] {
			t.Errorf("event ring missing %q (have %v)", want, kinds)
		}
	}
}
