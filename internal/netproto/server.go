package netproto

import (
	"errors"
	"log"
	"net"
	"sync"
	"time"

	"rcbr/internal/cell"
	"rcbr/internal/metrics"
	"rcbr/internal/switchfab"
)

// Metric names exposed by the signaling server.
const (
	MetricServerRx         = "signal.server.datagrams_received"
	MetricServerTx         = "signal.server.replies_sent"
	MetricServerBadFrames  = "signal.server.bad_frames"
	MetricServerSetups     = "signal.server.setup_requests"
	MetricServerTeardowns  = "signal.server.teardown_requests"
	MetricServerRM         = "signal.server.rm_requests"
	MetricServerErrors     = "signal.server.error_replies"
	MetricServerDropped    = "signal.server.dropped_datagrams"
	MetricServerReadErrors = "signal.server.read_errors"
	// MetricServerBatchCells counts the RM cells the RM frames carried
	// (MetricServerRM counts the frames).
	MetricServerBatchCells = "signal.batch.server_cells"
)

// Worker-pool defaults and the read-error backoff bounds.
const (
	DefaultWorkers = 4
	DefaultQueue   = 256

	readErrBackoffMin = time.Millisecond
	readErrBackoffMax = 100 * time.Millisecond
)

// serverInstruments caches the server's registry handles; nil fields are
// no-ops.
type serverInstruments struct {
	rx         *metrics.Counter
	tx         *metrics.Counter
	badFrames  *metrics.Counter
	setups     *metrics.Counter
	teardowns  *metrics.Counter
	rm         *metrics.Counter
	errors     *metrics.Counter
	dropped    *metrics.Counter
	readErrors *metrics.Counter
	batchCells *metrics.Counter
}

// Server serves RCBR signaling over UDP for one switch.
//
// Serve runs one reader goroutine feeding a bounded queue of datagrams to a
// pool of handler workers, so a slow request (or a burst on one VC) does not
// stall the others; when the queue is full the datagram is dropped and
// counted (signal.server.dropped_datagrams) rather than buffered without
// bound — the client's retry path recovers, exactly as it does from network
// loss. Transient socket read errors are counted, logged, and retried with a
// short exponential backoff; Serve returns only after Close.
type Server struct {
	sw      *switchfab.Switch
	conn    net.PacketConn
	log     *log.Logger
	ins     serverInstruments
	workers int
	queue   int

	mu     sync.Mutex
	closed bool
	done   chan struct{}
}

// ServerOption configures a Server at construction time.
type ServerOption func(*Server)

// WithLogger directs signaling errors to logger; the default discards them.
func WithLogger(logger *log.Logger) ServerOption {
	return func(s *Server) { s.log = logger }
}

// WithWorkers sets the number of concurrent datagram handlers (default
// DefaultWorkers). One worker reproduces the strictly serial
// read-handle-write behavior, with the queue absorbing bursts.
func WithWorkers(n int) ServerOption {
	return func(s *Server) {
		if n > 0 {
			s.workers = n
		}
	}
}

// WithQueue bounds the backlog of received-but-unhandled datagrams (default
// DefaultQueue). When the queue is full further datagrams are dropped and
// counted, not buffered without bound.
func WithQueue(n int) ServerOption {
	return func(s *Server) {
		if n > 0 {
			s.queue = n
		}
	}
}

// WithServerMetrics publishes the server's datagram and per-request-type
// counters into reg.
func WithServerMetrics(reg *metrics.Registry) ServerOption {
	return func(s *Server) {
		if reg == nil {
			return
		}
		s.ins = serverInstruments{
			rx:         reg.Counter(MetricServerRx),
			tx:         reg.Counter(MetricServerTx),
			badFrames:  reg.Counter(MetricServerBadFrames),
			setups:     reg.Counter(MetricServerSetups),
			teardowns:  reg.Counter(MetricServerTeardowns),
			rm:         reg.Counter(MetricServerRM),
			errors:     reg.Counter(MetricServerErrors),
			dropped:    reg.Counter(MetricServerDropped),
			readErrors: reg.Counter(MetricServerReadErrors),
			batchCells: reg.Counter(MetricServerBatchCells),
		}
	}
}

// NewServer binds a UDP listener on addr (e.g. "127.0.0.1:0") for the given
// switch.
func NewServer(addr string, sw *switchfab.Switch, opts ...ServerOption) (*Server, error) {
	conn, err := net.ListenPacket("udp", addr)
	if err != nil {
		return nil, err
	}
	return NewServerWithConn(conn, sw, opts...), nil
}

// NewServerWithConn wraps an already-open packet connection (a custom
// transport, or a fake in tests). The server owns conn: Close closes it.
func NewServerWithConn(conn net.PacketConn, sw *switchfab.Switch, opts ...ServerOption) *Server {
	s := &Server{
		sw:      sw,
		conn:    conn,
		workers: DefaultWorkers,
		queue:   DefaultQueue,
		done:    make(chan struct{}),
	}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// Addr returns the bound address (useful with ":0").
func (s *Server) Addr() net.Addr { return s.conn.LocalAddr() }

// job is one received datagram awaiting a handler worker. buf is the pooled
// backing array; data the received bytes within it.
type job struct {
	buf  *[]byte
	data []byte
	from net.Addr
}

// scratch is one worker's reusable working memory: the reply frame under
// construction. Each worker owns one scratch and finishes writing a reply
// before handling the next datagram, so the steady-state request path
// (decode, switch call, reply encode) allocates nothing.
type scratch struct {
	reply []byte
}

func newScratch() *scratch {
	return &scratch{reply: make([]byte, 0, maxFrame)}
}

// Serve processes datagrams until Close. It always returns a non-nil error;
// after Close the error wraps net.ErrClosed. Transient read errors do not
// stop the server (they are counted, logged, and paced by a short backoff).
func (s *Server) Serve() error {
	pool := sync.Pool{New: func() any {
		b := make([]byte, maxFrame)
		return &b
	}}
	jobs := make(chan job, s.queue)
	var wg sync.WaitGroup
	for i := 0; i < s.workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := newScratch()
			for j := range jobs {
				reply := s.handle(j.data, sc)
				pool.Put(j.buf)
				if reply == nil {
					continue
				}
				// Counted before the write: the write is what lets the
				// client return, and whoever it releases must find the
				// reply already counted. A failed write takes it back.
				s.ins.tx.Inc()
				if _, err := s.conn.WriteTo(reply, j.from); err != nil {
					s.ins.tx.Add(-1)
					if s.log != nil {
						s.log.Printf("netproto: write to %v: %v", j.from, err)
					}
				}
			}
		}()
	}
	defer func() {
		close(jobs)
		wg.Wait()
	}()

	backoff := time.Duration(0)
	for {
		bufp := pool.Get().(*[]byte)
		n, from, err := s.conn.ReadFrom(*bufp)
		if err != nil {
			pool.Put(bufp)
			select {
			case <-s.done:
				return net.ErrClosed
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				// The socket is gone for good; nothing left to serve.
				return err
			}
			s.ins.readErrors.Inc()
			if s.log != nil {
				s.log.Printf("netproto: read: %v", err)
			}
			// Repeated failures back off exponentially so a wedged socket
			// does not spin the reader; any success resets the pacing.
			if backoff < readErrBackoffMin {
				backoff = readErrBackoffMin
			} else if backoff *= 2; backoff > readErrBackoffMax {
				backoff = readErrBackoffMax
			}
			select {
			case <-s.done:
				return net.ErrClosed
			case <-time.After(backoff):
			}
			continue
		}
		backoff = 0
		s.ins.rx.Inc()
		select {
		case jobs <- job{buf: bufp, data: (*bufp)[:n], from: from}:
		default:
			// Queue full: shed load here, bounded, and let the client
			// retry — graceful degradation instead of unbounded growth.
			pool.Put(bufp)
			s.ins.dropped.Inc()
		}
	}
}

// errReply builds an error reply carrying err's wire code into the worker's
// scratch buffer, counting it.
func (s *Server) errReply(sc *scratch, reqID uint32, err error) []byte {
	s.ins.errors.Inc()
	return AppendErr(sc.reply[:0], reqID, errCode(err), err.Error())
}

// handle processes one datagram and returns the reply (nil to stay silent,
// e.g. for garbage that cannot even be attributed to a request). It is
// called concurrently by the worker pool; the switch provides the locking.
// The reply is built in sc and aliases its buffers — the caller must finish
// with it before handling another datagram with the same scratch.
func (s *Server) handle(b []byte, sc *scratch) []byte {
	f, err := ParseFrame(b)
	if err != nil {
		s.ins.badFrames.Inc()
		if s.log != nil {
			s.log.Printf("netproto: %v", err)
		}
		return nil
	}
	switch f.Type {
	case TypeSetup:
		s.ins.setups.Inc()
		req, err := DecodeSetup(f.Payload)
		if err != nil {
			return s.errReply(sc, f.ReqID, err)
		}
		id := switchfab.MakeVCID(0, req.VCI)
		if err := s.sw.SetupID(id, int(req.Port), req.Rate); err != nil {
			// A duplicate setup of the same VCI on the same port at the same
			// rate is a retransmission and acknowledged idempotently. On
			// another port it is a different request, which reserved nothing.
			if errors.Is(err, switchfab.ErrVCExists) {
				if vc, verr := s.sw.VC(id); verr == nil && vc.Port == int(req.Port) && vc.Rate == req.Rate {
					return AppendOK(sc.reply[:0], TypeSetupOK, f.ReqID)
				}
			}
			return s.errReply(sc, f.ReqID, err)
		}
		return AppendOK(sc.reply[:0], TypeSetupOK, f.ReqID)

	case TypeTeardown:
		s.ins.teardowns.Inc()
		vci, err := DecodeTeardown(f.Payload)
		if err != nil {
			return s.errReply(sc, f.ReqID, err)
		}
		if err := s.sw.TeardownID(switchfab.MakeVCID(0, vci)); err != nil {
			// A retransmitted teardown finds no VC; acknowledge it.
			if errors.Is(err, switchfab.ErrNoVC) {
				return AppendOK(sc.reply[:0], TypeTeardownOK, f.ReqID)
			}
			return s.errReply(sc, f.ReqID, err)
		}
		return AppendOK(sc.reply[:0], TypeTeardownOK, f.ReqID)

	case TypeRM:
		// One reply cell per cell the switch resolved, in request order. A
		// cell it could not resolve (unknown VC, invalid request) is left
		// out, and the sender matches replies by (VPI, VCI); a frame in
		// which nothing resolved is answered with its first cell's error,
		// which for the frame of one is that renegotiation's error. A cell
		// that fails the codec's checks fails the frame where it stands:
		// the cells ahead of it have been applied, and the sender's
		// fallback is an absolute resync, which that does not disturb.
		s.ins.rm.Inc()
		k, err := rmCells(f.Payload)
		if err != nil {
			return s.errReply(sc, f.ReqID, err)
		}
		s.ins.batchCells.Add(int64(k))
		reply := appendHeader(sc.reply[:0], TypeRMReply, f.ReqID)
		var unresolved error
		for p := f.Payload; len(p) > 0; p = p[cell.Size:] {
			h, m, err := DecodeRM(p[:cell.Size])
			if err != nil {
				return s.errReply(sc, f.ReqID, err)
			}
			resp, err := s.sw.HandleRM(h, m)
			if err == nil {
				reply, err = appendRMCell(reply, h, resp)
			}
			if err != nil && unresolved == nil {
				unresolved = err
			}
		}
		if len(reply) == headerLen {
			return s.errReply(sc, f.ReqID, unresolved)
		}
		return reply

	default:
		s.ins.badFrames.Inc()
		return s.errReply(sc, f.ReqID, ErrFrame)
	}
}

// Close shuts the server down and unblocks Serve.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	close(s.done)
	return s.conn.Close()
}
