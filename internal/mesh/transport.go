// Package mesh implements the paper's end-to-end RCBR service over a
// network of switches (Section III-C): a VC traverses several hops, an RM
// cell is processed hop by hop on its way downstream, and the rate granted
// to the source is the minimum any hop along the path can honor. "As the
// mean number of hops in the network increases, the probability of
// renegotiation failure is likely to increase since each hop is a possible
// point of failure" — so rate increases carry a rollback protocol: a hop
// that denies (or times out) unwinds the grants already taken upstream,
// leaving every reservation table consistent.
//
// Topology is explicit: AddSwitch/AddTransport register named hops,
// AddLink joins two of them with a propagation delay and a link capacity
// (realized as the egress port's capacity on the upstream switch), and
// Route resolves a node sequence into the []Hop that SetupPath consumes.
// Links model signaling latency only — each hop's operation waits out the
// inbound propagation delay before the RM cell "arrives", and the backward
// reply waits out the cumulative path delay — so heterogeneous paths (a
// ~1 ms terrestrial hop next to a ~275 ms satellite hop) expose exactly
// the renegotiation-latency asymmetry the ABR-over-satellite literature
// measures. WithDelayScale(0) turns the waits off for virtual-time
// simulation; per-hop budgets (WithHopTimeout) bound how long one slow hop
// can wedge the whole path either way.
//
// Concurrency: a Path serializes its multi-hop transactions with a
// channel-based semaphore, deliberately not a mutex — a transaction spans
// propagation waits and (for netproto-backed hops) real network I/O, and
// TestNoLockHeldAcrossBlockingCall forbids holding a sync.Mutex across
// either. The mesh's own mutex guards only the topology maps and is never
// held across hop I/O. Per-switch locking is switchfab's (one port mutex
// per operation, the VC table's writer mutex a leaf under it); the mesh
// layer adds no lock that nests inside those.
package mesh

import (
	"context"
	"errors"
	"fmt"

	"rcbr/internal/netproto"
	"rcbr/internal/switchfab"
)

// Transport is one hop's signaling surface: the three verbs a path needs
// from a switch, whether the switch is in-process or behind a netproto
// connection. Implementations must be safe for concurrent use.
type Transport interface {
	// Setup reserves rate for the VC on the hop's egress port.
	Setup(ctx context.Context, id switchfab.VCID, port int, rate float64) error
	// RenegotiateBest moves the VC from current toward target, granting
	// the most the hop can carry (at least the current rate on an
	// increase; decreases settle in full). full reports whether the
	// target itself was granted, at the hop's precision.
	RenegotiateBest(ctx context.Context, id switchfab.VCID, current, target float64) (granted float64, full bool, err error)
	// Teardown releases the VC's reservation.
	Teardown(ctx context.Context, id switchfab.VCID) error
}

// SwitchTransport adapts an in-process switchfab.Switch to the Transport
// interface. Operations are synchronous and instantaneous; propagation
// delay is modeled by the mesh around the call.
type SwitchTransport struct {
	Switch *switchfab.Switch
}

// Setup implements Transport.
func (t SwitchTransport) Setup(ctx context.Context, id switchfab.VCID, port int, rate float64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return t.Switch.SetupID(id, port, rate)
}

// RenegotiateBest implements Transport using the switch's atomic
// partial-grant primitive; current is unused in-process because the switch
// holds the authoritative rate.
func (t SwitchTransport) RenegotiateBest(ctx context.Context, id switchfab.VCID, _, target float64) (float64, bool, error) {
	if err := ctx.Err(); err != nil {
		return 0, false, err
	}
	return t.Switch.RenegotiateBestID(id, target)
}

// Teardown implements Transport.
func (t SwitchTransport) Teardown(ctx context.Context, id switchfab.VCID) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return t.Switch.TeardownID(id)
}

// ErrWireVPI is returned by ClientTransport for VCIDs outside VPI 0: the
// wire setup/teardown frames carry a bare 16-bit VCI.
var ErrWireVPI = errors.New("mesh: netproto transport addresses VPI 0 only")

// ClientTransport adapts a netproto signaling client to the Transport
// interface, making a remote switch usable as one hop of a path. Three wire
// limits apply: only VPI 0 is addressable (the setup frame carries a bare
// VCI); an increase that does not fit is denied outright (full = false),
// not settled at the hop's best rate; and granted is the reply's 16-bit RM
// rate code of the switch's booking.
type ClientTransport struct {
	Client *netproto.Client
}

// Setup implements Transport.
func (t ClientTransport) Setup(ctx context.Context, id switchfab.VCID, port int, rate float64) error {
	if id.VPI() != 0 {
		return fmt.Errorf("%w: %s", ErrWireVPI, id)
	}
	return t.Client.Setup(ctx, id.VCI(), port, rate)
}

// RenegotiateBest implements Transport; see the type comment for the
// all-or-nothing fallback on increases.
func (t ClientTransport) RenegotiateBest(ctx context.Context, id switchfab.VCID, current, target float64) (float64, bool, error) {
	if id.VPI() != 0 {
		return 0, false, fmt.Errorf("%w: %s", ErrWireVPI, id)
	}
	granted, ok, err := t.Client.Renegotiate(ctx, id.VCI(), current, target)
	if err != nil {
		return 0, false, err
	}
	return granted, ok, nil
}

// Teardown implements Transport.
func (t ClientTransport) Teardown(ctx context.Context, id switchfab.VCID) error {
	if id.VPI() != 0 {
		return fmt.Errorf("%w: %s", ErrWireVPI, id)
	}
	return t.Client.Teardown(ctx, id.VCI())
}
