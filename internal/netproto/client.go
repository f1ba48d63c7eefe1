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

// waiter is one in-flight request's wait state: the channel its one
// delivery arrives on and the buffer the reader copies the reply payload
// into, so the frame a request receives is its own and not the reader's
// next datagram. Waiters are recycled through the client's free list.
// Every delivery and every recycling happens under Client.mu, and a waiter
// takes one delivery per registration (delivered), so a duplicate or late
// reply is dropped rather than overwriting a buffer its request is still
// decoding, and none reaches a waiter recycled for another request.
type waiter struct {
	ch        chan rxResult // capacity 1: the reader never blocks on it
	delivered bool          // guarded by Client.mu
	buf       [maxFrame]byte
}

// Client signals an RCBR switch daemon over UDP. It is safe for concurrent
// use: a single reader goroutine demultiplexes replies by request ID to
// per-request waiters, so any number of Setup/Renegotiate/Resync calls can
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

	mu      sync.Mutex // guards pending, free, closed and every waiter's delivery
	pending map[uint32]*waiter
	free    []*waiter // recycled waiters: as many as requests were ever in flight at once
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
		pending:    make(map[uint32]*waiter),
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
		c.deliver(f)
	}
}

// deliver hands a reply to the request in flight with its ReqID. A reply
// for no request in flight is late, and a second one for a request already
// answered is a duplicate: either way the first delivery won, and the
// reply is dropped.
func (c *Client) deliver(f Frame) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if w := c.pending[f.ReqID]; w != nil && !w.delivered {
		// Copy the payload out of the shared read buffer before handing the
		// frame to another goroutine.
		f.Payload = w.buf[:copy(w.buf[:], f.Payload)]
		w.delivered = true
		select {
		case w.ch <- rxResult{frame: f}:
		default: // never taken: the one delivery finds the slot empty
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
	for _, w := range c.pending {
		if !w.delivered {
			w.delivered = true
			select {
			case w.ch <- rxResult{err: err}:
			default: // never taken, as in deliver
			}
		}
	}
	return done
}

// register enters a request into the demux table under a recycled (or new)
// waiter; it fails once the client is closed.
func (c *Client) register(reqID uint32) (*waiter, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, net.ErrClosed
	}
	var w *waiter
	if n := len(c.free); n > 0 {
		w = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		w = &waiter{ch: make(chan rxResult, 1)}
	}
	c.pending[reqID] = w
	return w, nil
}

// unregister takes the request out of the demux table and recycles its
// waiter. Under c.mu no delivery can be in progress, and once the entry is
// gone none can come, so the waiter is emptied of a delivery its request
// did not wait for and is clean for the next request.
func (c *Client) unregister(reqID uint32, w *waiter) {
	c.mu.Lock()
	delete(c.pending, reqID)
	if w.delivered {
		select {
		case <-w.ch:
		default:
		}
		w.delivered = false
	}
	c.free = append(c.free, w)
	c.mu.Unlock()
}

// roundTrip sends the datagram and waits for a frame echoing reqID,
// retransmitting on timeout, until ctx is done or the retries are
// exhausted. resend generates the datagram for each attempt (attempt 0 is
// the original), letting callers switch to an idempotent encoding for
// retries. reply decodes the frame that answered: its payload lives in the
// request's waiter, which is recycled when roundTrip returns. rmCells is
// how many RM cells the datagram carries (0 for setup and teardown), for
// the metrics split; an RM reply counts the cells it brings back.
// Concurrent round trips share the socket; each paces its own timer.
func (c *Client) roundTrip(ctx context.Context, reqID uint32, rmCells int, resend func(attempt int) ([]byte, error), reply func(Frame) error) error {
	c.ins.requests.Inc()
	w, err := c.register(reqID)
	if err != nil {
		return err
	}
	// One timer per request, started here and reset for each retry. Under
	// go.mod's go 1.22 timer channels are asynchronous and Stop does not
	// promise to empty one, so no timer is carried to the next request.
	timer := time.NewTimer(c.timeout)
	r := c.await(ctx, w, timer, rmCells, resend)
	timer.Stop()
	if r.err == nil {
		r.err = reply(r.frame)
	}
	c.unregister(reqID, w)
	return r.err
}

// await runs the attempts of one round trip and returns what ended them:
// the reply frame, or the error.
func (c *Client) await(ctx context.Context, w *waiter, timer *time.Timer, rmCells int, resend func(attempt int) ([]byte, error)) rxResult {
	for attempt := 0; attempt <= c.retries; attempt++ {
		if err := ctx.Err(); err != nil {
			return rxResult{err: err}
		}
		if attempt > 0 {
			c.ins.retries.Inc()
		}
		pkt, err := resend(attempt)
		if err != nil {
			return rxResult{err: err}
		}
		sentAt := metrics.Nanotime()
		if _, err := c.conn.Write(pkt); err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return rxResult{err: cerr}
			}
			return rxResult{err: err}
		}
		c.ins.sent.Inc()
		if rmCells > 0 {
			c.ins.rmSent.Add(int64(rmCells))
		}
		if attempt > 0 {
			// The previous attempt left timer.C drained (its timeout is the
			// only way to reach another attempt), so Reset is safe.
			timer.Reset(c.timeout)
		}
		select {
		case r := <-w.ch:
			if r.err != nil {
				return r
			}
			c.ins.recv.Inc()
			if r.frame.Type == TypeRMReply {
				c.ins.rmRecv.Add(int64(len(r.frame.Payload) / cell.Size))
			}
			c.ins.rtt.ObserveSince(sentAt)
			return r
		case <-timer.C:
			c.ins.timeouts.Inc() // next attempt, if any remain
		case <-ctx.Done():
			return rxResult{err: ctx.Err()}
		}
	}
	return rxResult{err: ErrTimeout}
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
	return c.roundTrip(ctx, id, 0, func(int) ([]byte, error) { return pkt, nil }, func(f Frame) error {
		switch f.Type {
		case okType:
			return nil
		case TypeErr:
			return remoteError(f.Payload)
		default:
			return fmt.Errorf("%w: unexpected reply type %d", ErrFrame, f.Type)
		}
	})
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
	err = c.roundTrip(ctx, id, 1, func(attempt int) ([]byte, error) {
		seq := c.nextSeq.Add(1)
		if attempt == 0 {
			return AppendRM((*bufp)[:0], id, h, deltaRM(current, target, seq))
		}
		return AppendRM((*bufp)[:0], id, h, cell.RM{Resync: true, ER: target, Seq: seq})
	}, func(f Frame) (err error) {
		granted, ok, err = parseRMReply(f)
		return err
	})
	return granted, ok, err
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
	err = c.roundTrip(ctx, id, 1, func(int) ([]byte, error) {
		return AppendRM((*bufp)[:0], id, h, cell.RM{Resync: true, ER: rate, Seq: c.nextSeq.Add(1)})
	}, func(f Frame) (err error) {
		granted, ok, err = parseRMReply(f)
		return err
	})
	return granted, ok, err
}

// parseRMReply decodes the reply to a renegotiation or resync: the rate in
// force and whether the request was granted, or the remote error.
func parseRMReply(f Frame) (float64, bool, error) {
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
