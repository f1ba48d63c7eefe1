package netproto

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"rcbr/internal/metrics"
	"rcbr/internal/switchfab"
)

// scriptedConn is an in-memory net.PacketConn replaying a fixed sequence of
// read outcomes (datagrams or errors), then blocking until Close. Replies
// written by the server are captured on wrote.
type scriptedConn struct {
	mu    sync.Mutex
	steps []scriptStep
	wrote chan []byte

	// gate, when non-nil, holds every WriteTo until the test closes it.
	// writing is closed when the first WriteTo arrives, drained when ReadFrom
	// finds the script used up: whoever read the last step is done with it.
	gate                   chan struct{}
	writing, drained       chan struct{}
	writingOnce, drainOnce sync.Once

	done      chan struct{}
	closeOnce sync.Once
}

// scriptStep is one ReadFrom outcome; after, when non-nil, delays it until
// that channel is closed.
type scriptStep struct {
	after <-chan struct{}
	data  []byte
	err   error
}

type scriptedAddr struct{}

func (scriptedAddr) Network() string { return "scripted" }
func (scriptedAddr) String() string  { return "scripted" }

func newScriptedConn(steps ...scriptStep) *scriptedConn {
	return &scriptedConn{
		steps:   steps,
		wrote:   make(chan []byte, 16),
		writing: make(chan struct{}),
		drained: make(chan struct{}),
		done:    make(chan struct{}),
	}
}

func (c *scriptedConn) ReadFrom(p []byte) (int, net.Addr, error) {
	c.mu.Lock()
	if len(c.steps) > 0 {
		st := c.steps[0]
		c.steps = c.steps[1:]
		c.mu.Unlock()
		if st.after != nil {
			<-st.after
		}
		if st.err != nil {
			return 0, nil, st.err
		}
		return copy(p, st.data), scriptedAddr{}, nil
	}
	c.mu.Unlock()
	c.drainOnce.Do(func() { close(c.drained) })
	<-c.done
	return 0, nil, net.ErrClosed
}

func (c *scriptedConn) WriteTo(p []byte, _ net.Addr) (int, error) {
	c.writingOnce.Do(func() { close(c.writing) })
	if c.gate != nil {
		<-c.gate
	}
	cp := append([]byte(nil), p...)
	select {
	case c.wrote <- cp:
	default:
	}
	return len(p), nil
}

func (c *scriptedConn) Close() error {
	c.closeOnce.Do(func() { close(c.done) })
	return nil
}

func (c *scriptedConn) LocalAddr() net.Addr              { return scriptedAddr{} }
func (c *scriptedConn) SetDeadline(time.Time) error      { return nil }
func (c *scriptedConn) SetReadDeadline(time.Time) error  { return nil }
func (c *scriptedConn) SetWriteDeadline(time.Time) error { return nil }

// TestServeSurvivesTransientReadErrors scripts two read failures ahead of a
// valid setup request: the server must count and absorb the errors, still
// process the request, and return only after Close (wrapping net.ErrClosed)
// — not die on the first transient socket error.
func TestServeSurvivesTransientReadErrors(t *testing.T) {
	sw := switchfab.New()
	if err := sw.AddPort(1, 1e6); err != nil {
		t.Fatal(err)
	}
	transient := errors.New("transient socket error")
	conn := newScriptedConn(
		scriptStep{err: transient},
		scriptStep{err: transient},
		scriptStep{data: AppendSetup(nil, 7, SetupReq{VCI: 3, Port: 1, Rate: 1e5})},
	)
	reg := metrics.NewRegistry()
	srv := NewServerWithConn(conn, sw, WithServerMetrics(reg), WithWorkers(2))
	served := make(chan error, 1)
	go func() { served <- srv.Serve() }()

	// The setup behind the two errors must still be handled and acked.
	select {
	case reply := <-conn.wrote:
		f, err := ParseFrame(reply)
		if err != nil || f.Type != TypeSetupOK || f.ReqID != 7 {
			t.Fatalf("reply frame %+v, %v", f, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server never processed the datagram behind the read errors")
	}
	if sw.VCCount() != 1 {
		t.Fatalf("VC count = %d, want 1", sw.VCCount())
	}
	select {
	case err := <-served:
		t.Fatalf("Serve returned early: %v", err)
	default:
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-served:
		if !errors.Is(err, net.ErrClosed) {
			t.Fatalf("Serve returned %v, want net.ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Close")
	}

	s := reg.Snapshot()
	if got := s.Counters[MetricServerReadErrors]; got != 2 {
		t.Fatalf("%s = %d, want 2", MetricServerReadErrors, got)
	}
	if got := s.Counters[MetricServerRx]; got != 1 {
		t.Fatalf("%s = %d, want 1", MetricServerRx, got)
	}
	if got := s.Counters[MetricServerDropped]; got != 0 {
		t.Fatalf("%s = %d, want 0", MetricServerDropped, got)
	}
}

// wedgedServer starts a one-worker, queue-of-two server over a scripted conn
// whose WriteTo is held on a gate, scripts n setups of VCIs 1..n at it and
// returns once the reader has taken them all. The second datagram is read
// only after the worker is inside the first one's WriteTo, so the state is
// exact: one job in the worker (applied, its reply held), two in the queue,
// and every datagram after the third shed.
func wedgedServer(t *testing.T, n int) (*switchfab.Switch, *scriptedConn, *metrics.Registry, *Server, chan error) {
	t.Helper()
	sw := switchfab.New()
	if err := sw.AddPort(1, 1e9); err != nil {
		t.Fatal(err)
	}
	conn := newScriptedConn()
	conn.gate = make(chan struct{})
	for i := 1; i <= n; i++ {
		conn.steps = append(conn.steps, scriptStep{data: AppendSetup(nil, uint32(i), SetupReq{VCI: uint16(i), Port: 1, Rate: 1e3})})
	}
	conn.steps[1].after = conn.writing
	reg := metrics.NewRegistry()
	srv := NewServerWithConn(conn, sw, WithServerMetrics(reg), WithWorkers(1), WithQueue(2))
	served := make(chan error, 1)
	go func() { served <- srv.Serve() }()
	select {
	case <-conn.drained:
	case <-time.After(5 * time.Second):
		t.Fatal("reader never finished the script")
	}
	return sw, conn, reg, srv, served
}

// TestServeShedsLoadWhenQueueFull wedges the single worker on a held reply
// write and offers far more than worker + queue can hold: the excess is
// dropped and counted, exactly, not buffered without bound; what was
// admitted is served once the write goes through; and a Close that finds
// jobs queued drains them before Serve returns.
func TestServeShedsLoadWhenQueueFull(t *testing.T) {
	const n, held = 50, 3 // one in the worker, two queued
	sw, conn, reg, srv, served := wedgedServer(t, n)
	s := reg.Snapshot()
	if rx, dropped := s.Counters[MetricServerRx], s.Counters[MetricServerDropped]; rx != n || dropped != n-held {
		t.Fatalf("wedged: received %d, dropped %d; want %d, %d", rx, dropped, n, n-held)
	}
	close(conn.gate)
	for i := 1; i <= held; i++ {
		select {
		case reply := <-conn.wrote:
			if f, err := ParseFrame(reply); err != nil || f.Type != TypeSetupOK || f.ReqID != uint32(i) {
				t.Fatalf("reply %d: frame %+v, %v", i, f, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("reply %d of %d never written", i, held)
		}
	}
	// The third reply is counted before it is written, so the books are
	// final: nothing was handled that was not admitted, nothing admitted
	// went unanswered.
	s = reg.Snapshot()
	rx, setups, dropped, tx := s.Counters[MetricServerRx], s.Counters[MetricServerSetups], s.Counters[MetricServerDropped], s.Counters[MetricServerTx]
	if rx != setups+dropped || setups != held || tx != held || len(conn.wrote) != 0 || sw.VCCount() != held {
		t.Fatalf("received %d = %d handled + %d dropped; %d replies counted, %d unread, %d VCs; want %d handled and answered",
			rx, setups, dropped, tx, len(conn.wrote), sw.VCCount(), held)
	}
	srv.Close()
	<-served

	// Close with one job in the worker and two queued: Serve may not return
	// while the worker is held, and by the time it does both queued setups
	// are on the switch.
	sw, conn, _, srv, served = wedgedServer(t, held)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-served:
		t.Fatalf("Serve returned %v with the worker held and two jobs queued", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(conn.gate)
	select {
	case err := <-served:
		if !errors.Is(err, net.ErrClosed) {
			t.Fatalf("Serve returned %v, want net.ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Close")
	}
	if sw.VCCount() != held || len(conn.wrote) != held {
		t.Fatalf("after Serve returned: %d VCs, %d replies; want %d of each", sw.VCCount(), len(conn.wrote), held)
	}
}
