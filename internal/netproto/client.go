package netproto

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"rcbr/internal/cell"
	"rcbr/internal/metrics"
)

// Metric names exposed by the signaling client.
const (
	MetricClientRequests = "signal.client.requests"
	MetricClientSent     = "signal.client.datagrams_sent"
	MetricClientRecv     = "signal.client.replies_received"
	MetricClientRetries  = "signal.client.retries"
	MetricClientTimeouts = "signal.client.timeouts"
	MetricClientRMSent   = "signal.client.rm_cells_sent"
	MetricClientRMRecv   = "signal.client.rm_cells_received"
	MetricClientRTT      = "signal.client.rtt_seconds"
)

// clientInstruments caches the client's registry handles; every field is a
// nil-safe no-op when metrics are disabled.
type clientInstruments struct {
	requests *metrics.Counter
	sent     *metrics.Counter
	recv     *metrics.Counter
	retries  *metrics.Counter
	timeouts *metrics.Counter
	rmSent   *metrics.Counter
	rmRecv   *metrics.Counter
	rtt      *metrics.Histogram
}

// rxResult is one delivery from the reader goroutine to a waiting request:
// either the reply frame matching its ReqID, or the socket error that ended
// the wait.
type rxResult struct {
	frame Frame
	err   error
}

// Client signals an RCBR switch daemon over UDP. It is safe for concurrent
// use: a single reader goroutine demultiplexes replies by request ID to
// per-request channels, so any number of Setup/Renegotiate/Resync calls can
// be in flight on the one socket at once, each pacing its own retries.
// Every request method takes a context for cancellation and deadlines: the
// context bounds the whole request including retransmissions, while the
// per-attempt reply timeout (WithTimeout) paces the retries within it.
type Client struct {
	conn    net.Conn
	timeout time.Duration
	retries int
	ins     clientInstruments

	nextID  atomic.Uint32
	nextSeq atomic.Uint32

	mu      sync.Mutex // guards pending and closed
	pending map[uint32]chan rxResult
	closed  bool

	readerDone chan struct{}
}

// pktPool holds request-encode buffers so the steady-state signaling path
// reuses one buffer per in-flight request instead of allocating per
// datagram.
var pktPool = sync.Pool{New: func() any {
	b := make([]byte, 0, maxFrame)
	return &b
}}

// ErrTimeout is returned when a request exhausts its retries.
var ErrTimeout = errors.New("netproto: request timed out")

// ErrRemote wraps an error reported by the switch. Remote errors carry the
// switch's sentinel across the wire, so errors.Is(err, switchfab.ErrCapacity)
// and friends work on the client side too.
var ErrRemote = errors.New("netproto: remote error")

// ClientOption configures a Client at dial time.
type ClientOption func(*Client)

// WithTimeout sets the per-attempt reply deadline (default 500ms).
func WithTimeout(d time.Duration) ClientOption {
	return func(c *Client) {
		if d > 0 {
			c.timeout = d
		}
	}
}

// WithRetries sets the number of additional attempts after the first
// (default 3).
func WithRetries(n int) ClientOption {
	return func(c *Client) {
		if n >= 0 {
			c.retries = n
		}
	}
}

// WithClientMetrics publishes the client's signaling counters (datagrams
// sent/received, retries, timeouts, RM cells) and round-trip histogram into
// reg.
func WithClientMetrics(reg *metrics.Registry) ClientOption {
	return func(c *Client) {
		if reg == nil {
			return
		}
		c.ins = clientInstruments{
			requests: reg.Counter(MetricClientRequests),
			sent:     reg.Counter(MetricClientSent),
			recv:     reg.Counter(MetricClientRecv),
			retries:  reg.Counter(MetricClientRetries),
			timeouts: reg.Counter(MetricClientTimeouts),
			rmSent:   reg.Counter(MetricClientRMSent),
			rmRecv:   reg.Counter(MetricClientRMRecv),
			rtt:      reg.Histogram(MetricClientRTT, metrics.FastBuckets),
		}
	}
}

// DialContext connects to a switch daemon with default settings (500ms
// per-attempt timeout, 3 retries) unless overridden by options, honoring the
// context during address resolution and socket setup.
func DialContext(ctx context.Context, addr string, opts ...ClientOption) (*Client, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "udp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{
		conn:       conn,
		timeout:    500 * time.Millisecond,
		retries:    3,
		pending:    make(map[uint32]chan rxResult),
		readerDone: make(chan struct{}),
	}
	for _, opt := range opts {
		opt(c)
	}
	go c.readLoop()
	return c, nil
}

// Close releases the socket, fails any in-flight requests, and waits for
// the reader goroutine to exit. It is idempotent.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		<-c.readerDone
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	err := c.conn.Close()
	<-c.readerDone
	return err
}

// readLoop is the single socket reader: it parses every incoming datagram
// and routes it to the in-flight request with the matching ReqID. A socket
// error is delivered to every in-flight request (on a connected UDP socket
// it concerns them all — e.g. an ICMP unreachable); the loop exits only
// when the socket is closed.
func (c *Client) readLoop() {
	defer close(c.readerDone)
	buf := make([]byte, maxFrame)
	for {
		n, err := c.conn.Read(buf)
		if err != nil {
			if c.deliverError(err) {
				return
			}
			continue
		}
		f, perr := ParseFrame(buf[:n])
		if perr != nil {
			continue // garbage datagram; nobody to attribute it to
		}
		// Copy the payload out of the shared read buffer before handing the
		// frame to another goroutine.
		payload := make([]byte, len(f.Payload))
		copy(payload, f.Payload)
		f.Payload = payload
		c.mu.Lock()
		ch := c.pending[f.ReqID]
		c.mu.Unlock()
		if ch != nil {
			select {
			case ch <- rxResult{frame: f}:
			default: // duplicate reply; the first one already won
			}
		}
	}
}

// deliverError fans a socket error out to every in-flight request and
// reports whether the reader should exit (the socket is closed).
func (c *Client) deliverError(err error) (done bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	done = c.closed || errors.Is(err, net.ErrClosed)
	if done {
		err = net.ErrClosed
	}
	for _, ch := range c.pending {
		select {
		case ch <- rxResult{err: err}:
		default:
		}
	}
	return done
}

// register enters a request into the demux table; it fails once the client
// is closed.
func (c *Client) register(reqID uint32, ch chan rxResult) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return net.ErrClosed
	}
	c.pending[reqID] = ch
	return nil
}

func (c *Client) unregister(reqID uint32) {
	c.mu.Lock()
	delete(c.pending, reqID)
	c.mu.Unlock()
}

// roundTrip sends the datagram and waits for a frame echoing reqID,
// retransmitting on timeout, until ctx is done or the retries are
// exhausted. resend generates the datagram for each attempt (attempt 0 is
// the original), letting callers switch to an idempotent encoding for
// retries. rmCells is how many RM cells the datagram carries (0 for setup
// and teardown), for the metrics split; an RM reply counts the cells it
// brings back. Concurrent round trips share the socket; each paces its own
// timer.
func (c *Client) roundTrip(ctx context.Context, reqID uint32, rmCells int, resend func(attempt int) ([]byte, error)) (Frame, error) {
	c.ins.requests.Inc()
	ch := make(chan rxResult, 1)
	if err := c.register(reqID, ch); err != nil {
		return Frame{}, err
	}
	defer c.unregister(reqID)
	var timer *time.Timer
	for attempt := 0; attempt <= c.retries; attempt++ {
		if err := ctx.Err(); err != nil {
			return Frame{}, err
		}
		if attempt > 0 {
			c.ins.retries.Inc()
		}
		pkt, err := resend(attempt)
		if err != nil {
			return Frame{}, err
		}
		sentAt := metrics.Nanotime()
		if _, err := c.conn.Write(pkt); err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return Frame{}, cerr
			}
			return Frame{}, err
		}
		c.ins.sent.Inc()
		if rmCells > 0 {
			c.ins.rmSent.Add(int64(rmCells))
		}
		if timer == nil {
			timer = time.NewTimer(c.timeout)
			defer timer.Stop()
		} else {
			// The previous attempt left timer.C drained (its timeout is the
			// only way to reach another attempt), so Reset is safe.
			timer.Reset(c.timeout)
		}
		select {
		case r := <-ch:
			if r.err != nil {
				return Frame{}, r.err
			}
			c.ins.recv.Inc()
			if r.frame.Type == TypeRMReply {
				c.ins.rmRecv.Add(int64(len(r.frame.Payload) / cell.Size))
			}
			c.ins.rtt.ObserveSince(sentAt)
			return r.frame, nil
		case <-timer.C:
			c.ins.timeouts.Inc() // next attempt, if any remain
		case <-ctx.Done():
			return Frame{}, ctx.Err()
		}
	}
	return Frame{}, ErrTimeout
}

func (c *Client) newID() uint32 {
	return c.nextID.Add(1)
}

// Setup establishes a VC on the switch.
func (c *Client) Setup(ctx context.Context, vci uint16, port int, rate float64) error {
	return c.control(ctx, TypeSetupOK, func(dst []byte, id uint32) []byte {
		return AppendSetup(dst, id, SetupReq{VCI: vci, Port: uint16(port), Rate: rate})
	})
}

// Teardown releases a VC.
func (c *Client) Teardown(ctx context.Context, vci uint16) error {
	return c.control(ctx, TypeTeardownOK, func(dst []byte, id uint32) []byte {
		return AppendTeardown(dst, id, vci)
	})
}

// control runs one setup or teardown round trip: encode appends the request
// to a pooled buffer, every attempt resends it unchanged, and the reply
// must be okType or a remote error.
func (c *Client) control(ctx context.Context, okType uint8, encode func(dst []byte, id uint32) []byte) error {
	id := c.newID()
	bufp := pktPool.Get().(*[]byte)
	defer pktPool.Put(bufp)
	pkt := encode((*bufp)[:0], id)
	f, err := c.roundTrip(ctx, id, 0, func(int) ([]byte, error) { return pkt, nil })
	if err != nil {
		return err
	}
	switch f.Type {
	case okType:
		return nil
	case TypeErr:
		return remoteError(f.Payload)
	default:
		return fmt.Errorf("%w: unexpected reply type %d", ErrFrame, f.Type)
	}
}

// Renegotiate requests a rate change from current to target bits/second on
// the VC, using a delta RM cell on the first attempt and idempotent resync
// cells on retries (a lost delta must not be applied twice). Every attempt
// carries a fresh sequence number, so the switch can recognize — and drop —
// a delayed delta arriving after its resync retry. It returns the rate now
// in force and whether the request was granted in full.
func (c *Client) Renegotiate(ctx context.Context, vci uint16, current, target float64) (granted float64, ok bool, err error) {
	id := c.newID()
	h := cell.Header{VCI: vci}
	bufp := pktPool.Get().(*[]byte)
	defer pktPool.Put(bufp)
	f, err := c.roundTrip(ctx, id, 1, func(attempt int) ([]byte, error) {
		seq := c.nextSeq.Add(1)
		if attempt == 0 {
			return AppendRM((*bufp)[:0], id, h, deltaRM(current, target, seq))
		}
		return AppendRM((*bufp)[:0], id, h, cell.RM{Resync: true, ER: target, Seq: seq})
	})
	if err != nil {
		return 0, false, err
	}
	return c.parseRMReply(f)
}

// deltaRM builds the sequenced delta RM message requesting a move from
// current to target.
func deltaRM(current, target float64, seq uint32) cell.RM {
	delta := target - current
	m := cell.RM{Seq: seq}
	if delta < 0 {
		m.Decrease = true
		m.ER = -delta
	} else {
		m.ER = delta
	}
	return m
}

// Resync asserts the VC's absolute rate (periodic drift repair).
func (c *Client) Resync(ctx context.Context, vci uint16, rate float64) (granted float64, ok bool, err error) {
	id := c.newID()
	h := cell.Header{VCI: vci}
	bufp := pktPool.Get().(*[]byte)
	defer pktPool.Put(bufp)
	f, err := c.roundTrip(ctx, id, 1, func(int) ([]byte, error) {
		return AppendRM((*bufp)[:0], id, h, cell.RM{Resync: true, ER: rate, Seq: c.nextSeq.Add(1)})
	})
	if err != nil {
		return 0, false, err
	}
	return c.parseRMReply(f)
}

func (c *Client) parseRMReply(f Frame) (float64, bool, error) {
	switch f.Type {
	case TypeRMReply:
		_, m, err := DecodeRM(f.Payload)
		if err != nil {
			return 0, false, err
		}
		return m.ER, !m.Deny, nil
	case TypeErr:
		return 0, false, remoteError(f.Payload)
	default:
		return 0, false, fmt.Errorf("%w: unexpected reply type %d", ErrFrame, f.Type)
	}
}

// wireError is a remote failure reconstructed from an Err payload: its text
// is the remote message, and it unwraps to both ErrRemote and the sentinel
// decoded from the wire code (so errors.Is(err, switchfab.ErrCapacity)
// holds across the network).
type wireError struct {
	sentinel error // may be nil for generic remote errors
	msg      string
}

func (e *wireError) Error() string { return "netproto: remote error: " + e.msg }

func (e *wireError) Unwrap() []error {
	if e.sentinel == nil {
		return []error{ErrRemote}
	}
	return []error{ErrRemote, e.sentinel}
}

// remoteError rebuilds a client-side error from an Err payload.
func remoteError(payload []byte) error {
	code, msg := DecodeErr(payload)
	return &wireError{sentinel: codeSentinel(code), msg: msg}
}
