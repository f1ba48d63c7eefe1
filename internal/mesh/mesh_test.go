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
// given per-link delay. It returns the mesh and the route's hops.
func line(t *testing.T, nHops int, capacity float64, delay time.Duration, opts ...Option) (*Mesh, []Hop) {
	t.Helper()
	m := New(opts...)
	names := make([]string, 0, nHops+1)
	for i := 0; i < nHops; i++ {
		name := string(rune('a' + i))
		if err := m.AddSwitch(name, switchfab.New()); err != nil {
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
	return m, hops
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
	m, hops := line(t, 3, 1e6, 0, WithMetrics(reg), WithEvents(ring))
	ctx := context.Background()
	id := switchfab.MakeVCID(1, 7)
	p, err := m.SetupPath(ctx, id, hops, 300e3)
	if err != nil {
		t.Fatal(err)
	}
	if p.Rate() != 300e3 || p.Hops() != 3 || p.VCID() != id {
		t.Fatalf("path state: rate=%v hops=%d id=%s", p.Rate(), p.Hops(), p.VCID())
	}
	for _, name := range []string{"a", "b", "c"} {
		reserved, _, err := m.PortLoad(name, 1)
		if err != nil || reserved != 300e3 {
			t.Fatalf("%s reserved = %v, %v", name, reserved, err)
		}
	}
	if err := p.Teardown(ctx); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b", "c"} {
		if reserved, _, _ := m.PortLoad(name, 1); reserved != 0 {
			t.Fatalf("%s reserved after teardown = %v", name, reserved)
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
	m, hops := line(t, 3, 1e6, 0, WithMetrics(reg))
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
	for _, name := range []string{"a", "b"} {
		if reserved, _, _ := m.PortLoad(name, 1); reserved != 0 {
			t.Fatalf("%s reserved after failed setup = %v", name, reserved)
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
	m, hops := line(t, 4, 1e6, 0)
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
	for _, name := range []string{"a", "b", "c", "d"} {
		if reserved, _, _ := m.PortLoad(name, 1); reserved != 200e3 {
			t.Fatalf("%s reserved = %v", name, reserved)
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
	m, hops := line(t, 3, 1e6, 0, WithMetrics(reg))
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
	for _, name := range []string{"a", "c"} {
		if reserved, _, _ := m.PortLoad(name, 1); reserved != 500e3 {
			t.Fatalf("%s reserved = %v (settle pass failed)", name, reserved)
		}
	}
	if reserved, _, _ := m.PortLoad("b", 1); reserved != 1e6 {
		t.Fatalf("b reserved = %v", reserved)
	}
	if c := reg.Counter(MetricMeshPartials).Value(); c != 1 {
		t.Errorf("%s = %d", MetricMeshPartials, c)
	}
}

func TestRenegotiateFlatDenialRollsBack(t *testing.T) {
	reg := metrics.NewRegistry()
	ring := metrics.NewEventLog(64)
	m, hops := line(t, 3, 1e6, 0, WithMetrics(reg), WithEvents(ring))
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
	for _, name := range []string{"a", "b"} {
		if reserved, _, _ := m.PortLoad(name, 1); reserved != 100e3 {
			t.Fatalf("%s reserved after rollback = %v", name, reserved)
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
	// Every hop decided the denied increase and now a granted decrease:
	// two observations each in its latency histogram (rollbacks are not
	// timed). A histogram created and never fed reads as "nothing is slow".
	if got, err := p.Renegotiate(ctx, 50e3); err != nil || got != 50e3 {
		t.Fatalf("granted decrease: %v, %v", got, err)
	}
	snap := reg.Snapshot()
	for _, name := range []string{"a", "b", "c"} {
		if n := snap.Histograms[HopRenegLatencyHistogram(name)].Count; n != 2 {
			t.Errorf("%s observations = %d, want 2", HopRenegLatencyHistogram(name), n)
		}
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
	m, hops := line(t, 3, 1e6, 10*time.Millisecond)
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
	m0, hops0 := line(t, 3, 1e6, 10*time.Millisecond, WithDelayScale(0))
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
