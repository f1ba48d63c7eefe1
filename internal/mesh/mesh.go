package mesh

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"rcbr/internal/metrics"
	"rcbr/internal/switchfab"
)

// Errors returned by topology construction and path operations.
var (
	ErrNoNode     = errors.New("mesh: no such node")
	ErrNodeExists = errors.New("mesh: node already exists")
	ErrNoLink     = errors.New("mesh: no link between nodes")
	ErrLinkExists = errors.New("mesh: link already exists")
	ErrPathDown   = errors.New("mesh: path is torn down")
)

// Mesh metric names (see README metric tables).
const (
	// MetricMeshSetups counts paths established end to end.
	MetricMeshSetups = "mesh.setups"
	// MetricMeshSetupFails counts setups that failed mid-path (the hops
	// already reserved were unwound).
	MetricMeshSetupFails = "mesh.setup_fails"
	// MetricMeshTeardowns counts paths torn down.
	MetricMeshTeardowns = "mesh.teardowns"
	// MetricMeshRenegs counts end-to-end renegotiation attempts.
	MetricMeshRenegs = "mesh.renegotiations"
	// MetricMeshGrants counts renegotiations granted in full at every hop.
	MetricMeshGrants = "mesh.renegotiation_grants"
	// MetricMeshPartials counts renegotiations settled strictly between
	// the old and the requested rate (the min along the path bound them).
	MetricMeshPartials = "mesh.renegotiation_partial_grants"
	// MetricMeshDenials counts increases denied outright by a
	// zero-headroom hop; the path keeps its old rate.
	MetricMeshDenials = "mesh.renegotiation_denials"
	// MetricMeshRollbackHops counts hop reservations unwound by the
	// rollback protocol (setup unwinds and rate rollbacks both).
	MetricMeshRollbackHops = "mesh.rollback_hops"
	// MetricMeshHopTimeouts counts hop operations abandoned because the
	// per-hop budget (or the caller's context) expired.
	MetricMeshHopTimeouts = "mesh.hop_timeouts"
)

// node is one registered hop: a name and its signaling transport (nil for
// a pure endpoint host).
type node struct {
	name string
	tr   Transport
}

// Link joins two registered nodes. Capacity is realized as the egress
// port's capacity on the upstream switch; Delay is the one-way propagation
// delay signaling pays to cross the link.
type Link struct {
	From, To string
	Port     int
	Capacity float64
	Delay    time.Duration
}

type linkKey struct{ from, to string }

// Mesh is a network of RCBR switches. Build the topology with
// AddSwitch/AddTransport/AddHost and AddLink, resolve routes with Route,
// and establish connections with SetupPath. All methods are safe for
// concurrent use; the internal mutex guards only the topology maps and is
// never held across hop I/O.
type Mesh struct {
	hopTimeout time.Duration
	delayScale float64
	reg        *metrics.Registry
	events     *metrics.EventLog
	// renegs counts renegotiation attempts; counters holds one counter per
	// event kind the mesh emits. All are nil-safe no-ops when no registry
	// is configured.
	renegs   *metrics.Counter
	counters map[metrics.EventKind]*metrics.Counter

	mu    sync.Mutex
	nodes map[string]*node
	links map[linkKey]*Link
}

// Option configures a Mesh.
type Option func(*Mesh)

// WithHopTimeout bounds each hop's share of a path operation — the
// propagation wait into the hop plus the hop's own processing — so one
// slow (e.g. satellite) hop cannot wedge the whole path. Zero, the
// default, leaves hops bounded only by the caller's context.
func WithHopTimeout(d time.Duration) Option {
	return func(m *Mesh) { m.hopTimeout = d }
}

// WithMetrics directs the mesh's counters into reg.
func WithMetrics(reg *metrics.Registry) Option {
	return func(m *Mesh) { m.reg = reg }
}

// WithEvents records path- and hop-level lifecycle events into ring. Only
// tests pass it today; it stays for its named caller — rcbrd's /trace,
// which reads one renegotiation hop by hop out of this ring — and
// is the one entry on TestEveryOptionHasACaller's allow-list for that reason.
func WithEvents(ring *metrics.EventLog) Option {
	return func(m *Mesh) { m.events = ring }
}

// WithDelayScale scales every modeled propagation wait; 1 (the default)
// waits link delays out in real time, 0 disables waiting entirely for
// virtual-time simulation (Path.RTT still reports the nominal figure).
func WithDelayScale(s float64) Option {
	return func(m *Mesh) { m.delayScale = s }
}

// New returns an empty mesh.
func New(opts ...Option) *Mesh {
	m := &Mesh{
		delayScale: 1,
		nodes:      make(map[string]*node),
		links:      make(map[linkKey]*Link),
	}
	for _, opt := range opts {
		opt(m)
	}
	m.renegs = m.reg.Counter(MetricMeshRenegs)
	m.counters = map[metrics.EventKind]*metrics.Counter{
		metrics.EventPathSetup:     m.reg.Counter(MetricMeshSetups),
		metrics.EventPathSetupFail: m.reg.Counter(MetricMeshSetupFails),
		metrics.EventPathTeardown:  m.reg.Counter(MetricMeshTeardowns),
		metrics.EventPathGrant:     m.reg.Counter(MetricMeshGrants),
		metrics.EventPathPartial:   m.reg.Counter(MetricMeshPartials),
		metrics.EventPathDeny:      m.reg.Counter(MetricMeshDenials),
		metrics.EventHopRollback:   m.reg.Counter(MetricMeshRollbackHops),
		metrics.EventHopTimeout:    m.reg.Counter(MetricMeshHopTimeouts),
	}
	return m
}

// addNode registers a named node; tr may be nil for a pure endpoint.
func (m *Mesh) addNode(name string, tr Transport) error {
	if name == "" {
		return fmt.Errorf("mesh: empty node name")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.nodes[name]; dup {
		return fmt.Errorf("%w: %s", ErrNodeExists, name)
	}
	m.nodes[name] = &node{name: name, tr: tr}
	return nil
}

// AddSwitch registers an in-process switch as a named node.
func (m *Mesh) AddSwitch(name string, sw *switchfab.Switch) error {
	if sw == nil {
		return fmt.Errorf("mesh: nil switch for node %q", name)
	}
	return m.addNode(name, SwitchTransport{Switch: sw})
}

// AddTransport registers a node reached through an arbitrary Transport —
// typically a ClientTransport wrapping a netproto connection to a remote
// switch.
func (m *Mesh) AddTransport(name string, tr Transport) error {
	if tr == nil {
		return fmt.Errorf("mesh: nil transport for node %q", name)
	}
	return m.addNode(name, tr)
}

// AddHost registers a transportless endpoint: it can terminate a route
// but never forwards.
func (m *Mesh) AddHost(name string) error {
	return m.addNode(name, nil)
}

// AddLink joins from to to with the given egress port, capacity
// (bits/second), and one-way propagation delay. When from is backed by an
// in-process switch the port is created on it with the link's capacity;
// for other transports the remote switch owns the port. Links are
// directed; add both directions for duplex topologies.
func (m *Mesh) AddLink(from, to string, port int, capacity float64, delay time.Duration) error {
	if delay < 0 {
		return fmt.Errorf("mesh: negative link delay %v", delay)
	}
	m.mu.Lock()
	src, okFrom := m.nodes[from]
	_, okTo := m.nodes[to]
	m.mu.Unlock()
	if !okFrom {
		return fmt.Errorf("%w: %s", ErrNoNode, from)
	}
	if !okTo {
		return fmt.Errorf("%w: %s", ErrNoNode, to)
	}
	if src.tr == nil {
		return fmt.Errorf("mesh: host %s cannot forward; links must leave a switch node", from)
	}
	if st, ok := src.tr.(SwitchTransport); ok {
		if err := st.Switch.AddPort(port, capacity); err != nil {
			return fmt.Errorf("mesh: link %s->%s: %w", from, to, err)
		}
	}
	key := linkKey{from: from, to: to}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.links[key]; dup {
		return fmt.Errorf("%w: %s->%s", ErrLinkExists, from, to)
	}
	m.links[key] = &Link{From: from, To: to, Port: port, Capacity: capacity, Delay: delay}
	return nil
}

// Hop is one switch on a resolved route, bound to the egress port the
// route uses there and the propagation delay of the link it leads into.
type Hop struct {
	node  *node
	port  int
	delay time.Duration
}

// Name returns the hop's node name.
func (h Hop) Name() string { return h.node.name }

// Port returns the egress port the route uses at this hop.
func (h Hop) Port() int { return h.port }

// Delay returns the one-way propagation delay of the link the hop's
// egress leads into.
func (h Hop) Delay() time.Duration { return h.delay }

// Route resolves a node sequence (source switch first, destination last)
// into the hops a path crosses: one per forwarding node, each bound to the
// egress port of the link toward the next name. The final name only
// terminates the route and contributes no hop.
func (m *Mesh) Route(names ...string) ([]Hop, error) {
	if len(names) < 2 {
		return nil, fmt.Errorf("mesh: a route needs at least two nodes, got %d", len(names))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	hops := make([]Hop, 0, len(names)-1)
	for i := 0; i < len(names)-1; i++ {
		n, ok := m.nodes[names[i]]
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrNoNode, names[i])
		}
		if n.tr == nil {
			return nil, fmt.Errorf("mesh: host %s cannot forward", names[i])
		}
		l, ok := m.links[linkKey{from: names[i], to: names[i+1]}]
		if !ok {
			return nil, fmt.Errorf("%w: %s->%s", ErrNoLink, names[i], names[i+1])
		}
		hops = append(hops, Hop{node: n, port: l.Port, delay: l.Delay})
	}
	return hops, nil
}

// wait blocks for the scaled propagation delay d, or until ctx is done.
func (m *Mesh) wait(ctx context.Context, d time.Duration) error {
	d = time.Duration(float64(d) * m.delayScale)
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// hopBudget derives the context one hop's share of an operation runs
// under: the caller's context, additionally bounded by the per-hop
// timeout when one is configured.
func (m *Mesh) hopBudget(ctx context.Context) (context.Context, context.CancelFunc) {
	if m.hopTimeout <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, m.hopTimeout)
}

// detached derives a bounded context for compensating work — rollbacks
// and teardowns that must proceed even after the caller's context died,
// or half-applied reservations would leak. It inherits ctx's values but
// not its cancellation, and is bounded by the hop timeout (one second
// when none is configured).
func (m *Mesh) detached(ctx context.Context) (context.Context, context.CancelFunc) {
	d := m.hopTimeout
	if d <= 0 {
		d = time.Second
	}
	return context.WithTimeout(context.WithoutCancel(ctx), d)
}

// emit accounts one mesh fact: it bumps the counter for e.Kind and records
// e in the event log.
func (m *Mesh) emit(e metrics.Event) {
	m.counters[e.Kind].Inc()
	m.events.Record(e)
}
