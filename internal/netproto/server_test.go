package netproto

import (
	"context"
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

	done      chan struct{}
	closeOnce sync.Once
}

type scriptStep struct {
	data []byte
	err  error
}

type scriptedAddr struct{}

func (scriptedAddr) Network() string { return "scripted" }
func (scriptedAddr) String() string  { return "scripted" }

func newScriptedConn(steps ...scriptStep) *scriptedConn {
	return &scriptedConn{
		steps: steps,
		wrote: make(chan []byte, 16),
		done:  make(chan struct{}),
	}
}

func (c *scriptedConn) ReadFrom(p []byte) (int, net.Addr, error) {
	c.mu.Lock()
	if len(c.steps) > 0 {
		st := c.steps[0]
		c.steps = c.steps[1:]
		c.mu.Unlock()
		if st.err != nil {
			return 0, nil, st.err
		}
		return copy(p, st.data), scriptedAddr{}, nil
	}
	c.mu.Unlock()
	<-c.done
	return 0, nil, net.ErrClosed
}

func (c *scriptedConn) WriteTo(p []byte, _ net.Addr) (int, error) {
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

// TestServeShedsLoadWhenQueueFull wedges the single worker on a slow
// request and floods the reader: excess datagrams must be dropped and
// counted, not buffered without bound, and the server must keep serving
// afterwards.
func TestServeShedsLoadWhenQueueFull(t *testing.T) {
	sw := switchfab.New()
	if err := sw.AddPort(1, 1e6); err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	srv, err := NewServer("127.0.0.1:0", sw,
		WithServerMetrics(reg), WithWorkers(1), WithQueue(2))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	go srv.Serve() //nolint:errcheck

	conn, err := net.Dial("udp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Burst far more datagrams than worker+queue can hold. The reader
	// keeps up with loopback sends only because handling (switch work +
	// reply write) is slower than dropping; some datagrams must be shed.
	const burst = 2000
	pkt := AppendSetup(nil, 1, SetupReq{VCI: 1, Port: 1, Rate: 1e3})
	for i := 0; i < burst; i++ {
		if _, err := conn.Write(pkt); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for reg.Snapshot().Counters[MetricServerDropped] == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	s := reg.Snapshot()
	if s.Counters[MetricServerDropped] == 0 {
		t.Skipf("no drops after %d-datagram burst (reader outpaced by kernel); counters %+v",
			burst, s.Counters)
	}
	// The server is still alive and serving.
	cl, err := DialContext(context.Background(), srv.Addr().String(), WithTimeout(500*time.Millisecond), WithRetries(5))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Setup(ctx, 99, 1, 1e3); err != nil {
		t.Fatalf("setup after shed burst: %v", err)
	}
}
