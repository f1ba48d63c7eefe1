package mesh

import (
	"context"
	"errors"
	"testing"
	"time"

	"rcbr/internal/metrics"
	"rcbr/internal/switchfab"
)

// line builds a linear topology src -> s0 -> s1 -> ... -> dst with one
// switch per forwarding hop, every link at the given capacity, and the
// given per-link delay. It returns the mesh, the route's hops, and hop i's
// switch as sws[i].
func line(t *testing.T, nHops int, capacity float64, delay time.Duration, opts ...Option) (*Mesh, []Hop, []*switchfab.Switch) {
	t.Helper()
	m := New(opts...)
	names := make([]string, 0, nHops+1)
	sws := make([]*switchfab.Switch, nHops)
	for i := range sws {
		name := string(rune('a' + i))
		sws[i] = switchfab.New()
		if err := m.AddSwitch(name, sws[i]); err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
	}
	if err := m.AddHost("dst"); err != nil {
		t.Fatal(err)
	}
	names = append(names, "dst")
	for i := 0; i+1 < len(names); i++ {
		if err := m.AddLink(names[i], names[i+1], 1, capacity, delay); err != nil {
			t.Fatal(err)
		}
	}
	hops, err := m.Route(names...)
	if err != nil {
		t.Fatal(err)
	}
	return m, hops, sws
}

func TestTopologyErrors(t *testing.T) {
	m := New()
	if err := m.AddSwitch("a", switchfab.New()); err != nil {
		t.Fatal(err)
	}
	if err := m.AddSwitch("a", switchfab.New()); !errors.Is(err, ErrNodeExists) {
		t.Errorf("duplicate node: %v", err)
	}
	if err := m.AddLink("a", "nope", 1, 1e6, 0); !errors.Is(err, ErrNoNode) {
		t.Errorf("missing to-node: %v", err)
	}
	if err := m.AddHost("h"); err != nil {
		t.Fatal(err)
	}
	if err := m.AddLink("h", "a", 1, 1e6, 0); err == nil {
		t.Error("host forwarding not rejected")
	}
	if err := m.AddLink("a", "h", 1, 1e6, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.AddLink("a", "h", 2, 1e6, 0); !errors.Is(err, ErrLinkExists) {
		t.Errorf("duplicate link: %v", err)
	}
	if _, err := m.Route("a"); err == nil {
		t.Error("single-node route not rejected")
	}
	if _, err := m.Route("a", "missing"); !errors.Is(err, ErrNoLink) && !errors.Is(err, ErrNoNode) {
		t.Errorf("unroutable pair: %v", err)
	}
	if _, err := m.Route("h", "a"); err == nil {
		t.Error("route through a host not rejected")
	}
}

func TestSetupAndTeardown(t *testing.T) {
	reg := metrics.NewRegistry()
	ring := metrics.NewEventLog(64)
	m, hops, sws := line(t, 3, 1e6, 0, WithMetrics(reg), WithEvents(ring))
	ctx := context.Background()
	id := switchfab.MakeVCID(1, 7)
	p, err := m.SetupPath(ctx, id, hops, 300e3)
	if err != nil {
		t.Fatal(err)
	}
	if p.Rate() != 300e3 || p.Hops() != 3 || p.VCID() != id {
		t.Fatalf("path state: rate=%v hops=%d id=%s", p.Rate(), p.Hops(), p.VCID())
	}
	for i, sw := range sws {
		reserved, _, err := sw.PortLoad(1)
		if err != nil || reserved != 300e3 {
			t.Fatalf("%s reserved = %v, %v", hops[i].Name(), reserved, err)
		}
	}
	if err := p.Teardown(ctx); err != nil {
		t.Fatal(err)
	}
	for i, sw := range sws {
		if reserved, _, _ := sw.PortLoad(1); reserved != 0 {
			t.Fatalf("%s reserved after teardown = %v", hops[i].Name(), reserved)
		}
	}
	// Idempotent: a second teardown is a no-op, and renegotiation fails.
	if err := p.Teardown(ctx); err != nil {
		t.Fatalf("second teardown: %v", err)
	}
	if _, err := p.Renegotiate(ctx, 1e5); !errors.Is(err, ErrPathDown) {
		t.Fatalf("renegotiate after teardown: %v", err)
	}
	if c := reg.Counter(MetricMeshSetups).Value(); c != 1 {
		t.Errorf("%s = %d", MetricMeshSetups, c)
	}
	if c := reg.Counter(MetricMeshTeardowns).Value(); c != 1 {
		t.Errorf("%s = %d", MetricMeshTeardowns, c)
	}
}

func TestSetupMidPathFailureUnwinds(t *testing.T) {
	reg := metrics.NewRegistry()
	m, hops, sws := line(t, 3, 1e6, 0, WithMetrics(reg))
	ctx := context.Background()
	// Fill hop c so the third hop rejects the setup.
	if _, err := m.SetupPath(ctx, 1, hops[2:], 900e3); err != nil {
		t.Fatal(err)
	}
	_, err := m.SetupPath(ctx, 2, hops, 300e3)
	if !errors.Is(err, switchfab.ErrCapacity) {
		t.Fatalf("want capacity error, got %v", err)
	}
	// Hops a and b reserved for VC 2 and then unwound.
	for i, sw := range sws[:2] {
		if reserved, _, _ := sw.PortLoad(1); reserved != 0 {
			t.Fatalf("%s reserved after failed setup = %v", hops[i].Name(), reserved)
		}
	}
	if c := reg.Counter(MetricMeshSetupFails).Value(); c != 1 {
		t.Errorf("%s = %d", MetricMeshSetupFails, c)
	}
	if c := reg.Counter(MetricMeshRollbackHops).Value(); c != 2 {
		t.Errorf("%s = %d", MetricMeshRollbackHops, c)
	}
}

func TestRenegotiateFullAndDecrease(t *testing.T) {
	m, hops, sws := line(t, 4, 1e6, 0)
	ctx := context.Background()
	p, err := m.SetupPath(ctx, 9, hops, 100e3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Renegotiate(ctx, 700e3)
	if err != nil || got != 700e3 {
		t.Fatalf("full grant: %v, %v", got, err)
	}
	got, err = p.Renegotiate(ctx, 200e3)
	if err != nil || got != 200e3 {
		t.Fatalf("decrease: %v, %v", got, err)
	}
	for i, sw := range sws {
		if reserved, _, _ := sw.PortLoad(1); reserved != 200e3 {
			t.Fatalf("%s reserved = %v", hops[i].Name(), reserved)
		}
	}
	// No-op renegotiation.
	if got, err = p.Renegotiate(ctx, 200e3); err != nil || got != 200e3 {
		t.Fatalf("no-op: %v, %v", got, err)
	}
	if _, err := p.Renegotiate(ctx, -1); !errors.Is(err, switchfab.ErrInvalidRate) {
		t.Fatalf("negative rate: %v", err)
	}
}

func TestRenegotiatePartialSettlesAtMin(t *testing.T) {
	reg := metrics.NewRegistry()
	m, hops, sws := line(t, 3, 1e6, 0, WithMetrics(reg))
	ctx := context.Background()
	// A competing VC narrows hop b to 400k of headroom for the path.
	if _, err := m.SetupPath(ctx, 1, hops[1:2], 500e3); err != nil {
		t.Fatal(err)
	}
	p, err := m.SetupPath(ctx, 2, hops, 100e3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Renegotiate(ctx, 900e3)
	var re *RateError
	if !errors.As(err, &re) {
		t.Fatalf("want *RateError, got %v", err)
	}
	if !errors.Is(err, switchfab.ErrCapacity) {
		t.Fatalf("RateError must unwrap to ErrCapacity: %v", err)
	}
	// Hop b could move VC 2 from 100k to 500k (1M cap - 500k other VC).
	if got != 500e3 || re.Offered != 500e3 || re.Requested != 900e3 || re.HopName != "b" {
		t.Fatalf("partial settle: got=%v err=%+v", got, re)
	}
	if p.Rate() != 500e3 {
		t.Fatalf("path rate after partial = %v", p.Rate())
	}
	// The backward settle pass gave hop a's and c's excess back: every
	// hop holds exactly the end-to-end rate.
	for _, i := range []int{0, 2} {
		if reserved, _, _ := sws[i].PortLoad(1); reserved != 500e3 {
			t.Fatalf("%s reserved = %v (settle pass failed)", hops[i].Name(), reserved)
		}
	}
	if reserved, _, _ := sws[1].PortLoad(1); reserved != 1e6 {
		t.Fatalf("b reserved = %v", reserved)
	}
	if c := reg.Counter(MetricMeshPartials).Value(); c != 1 {
		t.Errorf("%s = %d", MetricMeshPartials, c)
	}
}

func TestRenegotiateFlatDenialRollsBack(t *testing.T) {
	reg := metrics.NewRegistry()
	ring := metrics.NewEventLog(64)
	m, hops, sws := line(t, 3, 1e6, 0, WithMetrics(reg), WithEvents(ring))
	ctx := context.Background()
	// Saturate hop c completely: zero headroom for any increase.
	if _, err := m.SetupPath(ctx, 1, hops[2:], 900e3); err != nil {
		t.Fatal(err)
	}
	p, err := m.SetupPath(ctx, 2, hops, 100e3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Renegotiate(ctx, 600e3)
	var re *RateError
	if !errors.As(err, &re) || !errors.Is(err, switchfab.ErrCapacity) {
		t.Fatalf("want capacity RateError, got %v", err)
	}
	if got != 100e3 || re.Offered != 100e3 || re.Hop != 2 || re.HopName != "c" {
		t.Fatalf("flat denial: got=%v err=%+v", got, re)
	}
	if p.Rate() != 100e3 {
		t.Fatalf("rate after denial = %v", p.Rate())
	}
	// Hops a and b briefly held 600k and were rolled back.
	for i, sw := range sws[:2] {
		if reserved, _, _ := sw.PortLoad(1); reserved != 100e3 {
			t.Fatalf("%s reserved after rollback = %v", hops[i].Name(), reserved)
		}
	}
	if c := reg.Counter(MetricMeshDenials).Value(); c != 1 {
		t.Errorf("%s = %d", MetricMeshDenials, c)
	}
	if c := reg.Counter(MetricMeshRollbackHops).Value(); c != 2 {
		t.Errorf("%s = %d", MetricMeshRollbackHops, c)
	}
	var sawDeny, sawRollback bool
	for _, e := range ring.Events() {
		switch e.Kind {
		case metrics.EventPathDeny:
			sawDeny = true
		case metrics.EventHopRollback:
			sawRollback = true
		}
	}
	if !sawDeny || !sawRollback {
		t.Errorf("event trace missing deny/rollback: deny=%v rollback=%v", sawDeny, sawRollback)
	}
	if got, err := p.Renegotiate(ctx, 50e3); err != nil || got != 50e3 {
		t.Fatalf("granted decrease: %v, %v", got, err)
	}
}

// errTeardown is the injected mid-path teardown failure.
var errTeardown = errors.New("mesh_test: teardown refused")

// failingTeardown wraps a transport, failing Teardown on command.
type failingTeardown struct {
	Transport
	fail bool
}

func (f *failingTeardown) Teardown(ctx context.Context, id switchfab.VCID) error {
	if f.fail {
		return errTeardown
	}
	return f.Transport.Teardown(ctx, id)
}

func TestTeardownAttemptsEveryHopAfterError(t *testing.T) {
	m := New()
	swA, swB, swC := switchfab.New(), switchfab.New(), switchfab.New()
	flaky := &failingTeardown{Transport: SwitchTransport{Switch: swB}}
	if err := swB.AddPort(1, 1e6); err != nil {
		t.Fatal(err)
	}
	for _, step := range []error{
		m.AddSwitch("a", swA),
		m.AddTransport("b", flaky),
		m.AddSwitch("c", swC),
		m.AddHost("dst"),
		m.AddLink("a", "b", 1, 1e6, 0),
		m.AddLink("b", "c", 1, 1e6, 0),
		m.AddLink("c", "dst", 1, 1e6, 0),
	} {
		if step != nil {
			t.Fatal(step)
		}
	}
	hops, err := m.Route("a", "b", "c", "dst")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	p, err := m.SetupPath(ctx, 5, hops, 200e3)
	if err != nil {
		t.Fatal(err)
	}
	flaky.fail = true
	err = p.Teardown(ctx)
	if !errors.Is(err, errTeardown) {
		t.Fatalf("first error not reported: %v", err)
	}
	// The mid-path failure must not have stopped the sweep: hops a and c
	// released their reservations.
	for name, sw := range map[string]*switchfab.Switch{"a": swA, "c": swC} {
		if reserved, _, _ := sw.PortLoad(1); reserved != 0 {
			t.Fatalf("%s reserved after teardown error = %v (hop skipped)", name, reserved)
		}
	}
	if reserved, _, _ := swB.PortLoad(1); reserved != 200e3 {
		t.Fatalf("b reserved = %v (expected the failed hop to keep its reservation)", reserved)
	}
}

// stuck blocks every renegotiation until its context dies: a wedged hop.
type stuck struct {
	Transport
}

func (s stuck) RenegotiateBest(ctx context.Context, id switchfab.VCID, current, target float64) (float64, bool, error) {
	<-ctx.Done()
	return 0, false, ctx.Err()
}

func TestHopTimeoutUnwedgesPath(t *testing.T) {
	reg := metrics.NewRegistry()
	ring := metrics.NewEventLog(64)
	m := New(WithHopTimeout(25*time.Millisecond), WithMetrics(reg), WithEvents(ring))
	swA, swB := switchfab.New(), switchfab.New()
	if err := swB.AddPort(1, 1e6); err != nil {
		t.Fatal(err)
	}
	for _, step := range []error{
		m.AddSwitch("a", swA),
		m.AddTransport("sat", stuck{Transport: SwitchTransport{Switch: swB}}),
		m.AddHost("dst"),
		m.AddLink("a", "sat", 1, 1e6, time.Millisecond),
		m.AddLink("sat", "dst", 1, 1e6, time.Millisecond),
	} {
		if step != nil {
			t.Fatal(step)
		}
	}
	hops, err := m.Route("a", "sat", "dst")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	p, err := m.SetupPath(ctx, 3, hops, 100e3)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	got, err := p.Renegotiate(ctx, 500e3)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want deadline error from the wedged hop, got %v", err)
	}
	if got != 100e3 || p.Rate() != 100e3 {
		t.Fatalf("rate after hop timeout = %v / %v", got, p.Rate())
	}
	if elapsed > 2*time.Second {
		t.Fatalf("per-hop budget did not bound the wedged hop: %v", elapsed)
	}
	// Hop a's grant to 500k was rolled back.
	if reserved, _, _ := swA.PortLoad(1); reserved != 100e3 {
		t.Fatalf("a reserved after timeout rollback = %v", reserved)
	}
	if c := reg.Counter(MetricMeshHopTimeouts).Value(); c != 1 {
		t.Errorf("%s = %d", MetricMeshHopTimeouts, c)
	}
	var sawTimeout bool
	for _, e := range ring.Events() {
		if e.Kind == metrics.EventHopTimeout && e.Hop == "sat" {
			sawTimeout = true
		}
	}
	if !sawTimeout {
		t.Error("no hop-timeout event for the wedged hop")
	}
}

func TestDelayAndRTT(t *testing.T) {
	m, hops, _ := line(t, 3, 1e6, 10*time.Millisecond)
	ctx := context.Background()
	p, err := m.SetupPath(ctx, 1, hops, 100e3)
	if err != nil {
		t.Fatal(err)
	}
	// Signaling crosses a->b and b->c; c's egress link carries only data.
	if rtt := p.RTT(); rtt != 40*time.Millisecond {
		t.Fatalf("RTT = %v", rtt)
	}
	start := time.Now()
	if _, err := p.Renegotiate(ctx, 200e3); err != nil {
		t.Fatal(err)
	}
	// Forward waits (10+10) plus the backward reply (20) = 40ms nominal.
	if elapsed := time.Since(start); elapsed < 35*time.Millisecond {
		t.Fatalf("renegotiation did not pay the propagation delay: %v", elapsed)
	}
	// With the scale at zero the same topology is instantaneous.
	m0, hops0, _ := line(t, 3, 1e6, 10*time.Millisecond, WithDelayScale(0))
	p0, err := m0.SetupPath(ctx, 1, hops0, 100e3)
	if err != nil {
		t.Fatal(err)
	}
	if rtt := p0.RTT(); rtt != 40*time.Millisecond {
		t.Fatalf("virtual-time RTT = %v", rtt)
	}
	start = time.Now()
	if _, err := p0.Renegotiate(ctx, 200e3); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("scaled-out delay still waited: %v", elapsed)
	}
}

// wedgeable blocks renegotiations until their context dies while wedged is
// set, and passes them through otherwise.
type wedgeable struct {
	Transport
	wedged bool
}

func (w *wedgeable) RenegotiateBest(ctx context.Context, id switchfab.VCID, current, target float64) (float64, bool, error) {
	if w.wedged {
		<-ctx.Done()
		return 0, false, ctx.Err()
	}
	return w.Transport.RenegotiateBest(ctx, id, current, target)
}

// TestEveryMeshCounterCountsItsEvents drives one path through every outcome
// a mesh transaction has and then holds each mesh counter to the number of
// events of its kind in a log too large to wrap: one fact, one count.
func TestEveryMeshCounterCountsItsEvents(t *testing.T) {
	reg := metrics.NewRegistry()
	ring := metrics.NewEventLog(1024)
	m := New(WithHopTimeout(25*time.Millisecond), WithMetrics(reg), WithEvents(ring))
	swB := switchfab.New()
	if err := swB.AddPort(1, 1e6); err != nil {
		t.Fatal(err)
	}
	b := &wedgeable{Transport: SwitchTransport{Switch: swB}}
	for _, step := range []error{
		m.AddSwitch("a", switchfab.New()),
		m.AddTransport("b", b),
		m.AddSwitch("c", switchfab.New()),
		m.AddHost("dst"),
		m.AddLink("a", "b", 1, 1e6, 0),
		m.AddLink("b", "c", 1, 1e6, 0),
		m.AddLink("c", "dst", 1, 1e6, 0),
	} {
		if step != nil {
			t.Fatal(step)
		}
	}
	hops, err := m.Route("a", "b", "c", "dst")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	other, err := m.SetupPath(ctx, 100, hops[2:], 500e3) // c: 500k of 1M taken
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.SetupPath(ctx, 1, hops, 100e3)
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct {
		target, want float64
		wedge        bool
	}{
		{300e3, 300e3, false}, // full grant
		{900e3, 500e3, false}, // partial: c bounds the path, and is now full
		{600e3, 500e3, false}, // flat denial at c; a and b roll back
		{200e3, 200e3, false}, // decrease
		{250e3, 200e3, true},  // hop timeout at b; a rolls back
	} {
		b.wedged = step.wedge
		if got, _ := p.Renegotiate(ctx, step.target); got != step.want {
			t.Fatalf("Renegotiate(%g) = %g, want %g", step.target, got, step.want)
		}
	}
	b.wedged = false
	if _, err := m.SetupPath(ctx, 2, hops, 600e3); !errors.Is(err, switchfab.ErrCapacity) {
		t.Fatalf("mid-path setup failure at c: %v", err)
	}
	for _, q := range []*Path{p, other} {
		if err := q.Teardown(ctx); err != nil {
			t.Fatal(err)
		}
	}

	if ring.Total() != uint64(len(ring.Events())) {
		t.Fatalf("event log wrapped: %d recorded, %d retained", ring.Total(), len(ring.Events()))
	}
	seen := map[metrics.EventKind]int64{}
	for _, e := range ring.Events() {
		seen[e.Kind]++
	}
	snap := reg.Snapshot()
	for name, kind := range map[string]metrics.EventKind{
		MetricMeshSetups:       metrics.EventPathSetup,
		MetricMeshSetupFails:   metrics.EventPathSetupFail,
		MetricMeshTeardowns:    metrics.EventPathTeardown,
		MetricMeshGrants:       metrics.EventPathGrant,
		MetricMeshPartials:     metrics.EventPathPartial,
		MetricMeshDenials:      metrics.EventPathDeny,
		MetricMeshRollbackHops: metrics.EventHopRollback,
		MetricMeshHopTimeouts:  metrics.EventHopTimeout,
	} {
		if got := snap.Counters[name]; got != seen[kind] || got == 0 {
			t.Errorf("%s = %d, %s events = %d; want equal and nonzero", name, got, kind, seen[kind])
		}
	}
	if got := snap.Counters[MetricMeshRenegs]; got != 5 {
		t.Errorf("%s = %d, want 5", MetricMeshRenegs, got)
	}
}

// TestRenegotiateAllocs pins an in-process 3-hop round trip, up then down,
// to the two allocations the walks' granted-rate slices cost: the closures
// a walk and an unwind take must stay on the stack.
func TestRenegotiateAllocs(t *testing.T) {
	m, hops, _ := line(t, 3, 10e6, 0, WithDelayScale(0))
	ctx := context.Background()
	p, err := m.SetupPath(ctx, 1, hops, 100e3)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		_, _ = p.Renegotiate(ctx, 500e3)
		_, _ = p.Renegotiate(ctx, 100e3)
	}); allocs > 2 {
		t.Fatalf("a renegotiation round trip allocates %.1f times, want at most 2", allocs)
	}
}
