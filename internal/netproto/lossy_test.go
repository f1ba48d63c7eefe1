package netproto

import (
	"context"
	"math"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"rcbr/internal/metrics"
	"rcbr/internal/switchfab"
)

// lossyProxy forwards UDP datagrams between a client and a server, dropping
// requests according to drop(i) for the i-th client datagram and optionally
// delaying (reordering) them according to delay(i). Replies are never
// dropped (dropping the request is equivalent for the client's retry logic
// and keeps the bookkeeping simple), but the j-th reply is held for
// replyDelay(j) when that is set.
type lossyProxy struct {
	front net.PacketConn // clients talk to this
	back  *net.UDPConn   // towards the real server

	mu     sync.Mutex
	nReq   int
	drop   func(i int) bool
	delay  func(i int) time.Duration // nil: deliver immediately
	client net.Addr

	nReply     int
	replyDelay func(j int) time.Duration // nil: deliver immediately
	closed     bool
}

func newLossyProxy(t testing.TB, serverAddr string, drop func(i int) bool) *lossyProxy {
	return newShapingProxy(t, serverAddr, drop, nil)
}

// newShapingProxy is newLossyProxy with per-datagram delivery delays: a
// datagram with delay(i) > 0 is held that long before being forwarded,
// while later datagrams pass it — the reordering harness for the
// duplicate-delta tests.
func newShapingProxy(t testing.TB, serverAddr string, drop func(i int) bool, delay func(i int) time.Duration) *lossyProxy {
	t.Helper()
	front, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	raddr, err := net.ResolveUDPAddr("udp", serverAddr)
	if err != nil {
		t.Fatal(err)
	}
	back, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		t.Fatal(err)
	}
	if drop == nil {
		drop = func(int) bool { return false }
	}
	p := &lossyProxy{front: front, back: back, drop: drop, delay: delay}
	go p.clientLoop()
	go p.serverLoop()
	t.Cleanup(func() {
		p.mu.Lock()
		p.closed = true
		p.mu.Unlock()
		front.Close()
		back.Close()
	})
	return p
}

func (p *lossyProxy) Addr() string { return p.front.LocalAddr().String() }

func (p *lossyProxy) clientLoop() {
	buf := make([]byte, 2048)
	for {
		n, from, err := p.front.ReadFrom(buf)
		if err != nil {
			return
		}
		p.mu.Lock()
		p.client = from
		i := p.nReq
		p.nReq++
		dropIt := p.drop(i)
		p.mu.Unlock()
		if dropIt {
			continue
		}
		if p.delay != nil {
			if d := p.delay(i); d > 0 {
				held := append([]byte(nil), buf[:n]...)
				go func() {
					time.Sleep(d)
					p.back.Write(held) //nolint:errcheck
				}()
				continue
			}
		}
		if _, err := p.back.Write(buf[:n]); err != nil {
			return
		}
	}
}

func (p *lossyProxy) serverLoop() {
	buf := make([]byte, 2048)
	for {
		n, err := p.back.Read(buf)
		if err != nil {
			return
		}
		p.mu.Lock()
		to := p.client
		var hold time.Duration
		if p.replyDelay != nil {
			hold = p.replyDelay(p.nReply)
		}
		p.nReply++
		p.mu.Unlock()
		if to == nil {
			continue
		}
		if hold > 0 {
			held := append([]byte(nil), buf[:n]...)
			go func() {
				time.Sleep(hold)
				p.front.WriteTo(held, to) //nolint:errcheck
			}()
			continue
		}
		if _, err := p.front.WriteTo(buf[:n], to); err != nil {
			return
		}
	}
}

func TestRetriesSurvivePacketLoss(t *testing.T) {
	sw := switchfab.New()
	if err := sw.AddPort(1, 1e6); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer("127.0.0.1:0", sw)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	go srv.Serve() //nolint:errcheck

	// Drop every other request datagram: every operation's first attempt
	// may vanish, forcing the retry path.
	proxy := newLossyProxy(t, srv.Addr().String(), func(i int) bool { return i%2 == 0 })
	reg := metrics.NewRegistry()
	cl, err := DialContext(context.Background(), proxy.Addr(),
		WithTimeout(100*time.Millisecond), WithRetries(5), WithClientMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if err := cl.Setup(ctx, 3, 1, 128e3); err != nil {
		t.Fatalf("setup through lossy path: %v", err)
	}
	granted, ok, err := cl.Renegotiate(ctx, 3, 128e3, 256e3)
	if err != nil || !ok {
		t.Fatalf("renegotiate through lossy path: %v %v %v", granted, ok, err)
	}
	// The retry path sends resync cells with the absolute target, so the
	// switch state must land on the target despite the lost delta.
	if vc, _ := sw.VC(3); math.Abs(vc.Rate-256e3)/256e3 > 1.0/256 {
		t.Fatalf("switch rate = %v after lossy renegotiation", vc.Rate)
	}
	if err := cl.Teardown(ctx, 3); err != nil {
		t.Fatalf("teardown through lossy path: %v", err)
	}
	if sw.VCCount() != 0 {
		t.Fatal("VC not torn down")
	}

	// The loss must be visible in the client's signaling metrics: dropped
	// attempts time out and are retried, and the RM books stay balanced.
	s := reg.Snapshot()
	if s.Counters[MetricClientTimeouts] == 0 || s.Counters[MetricClientRetries] == 0 {
		t.Fatalf("lossy path recorded no timeouts/retries: %+v", s.Counters)
	}
	if s.Counters[MetricClientRequests] != 3 {
		t.Fatalf("requests = %d, want 3", s.Counters[MetricClientRequests])
	}
	if sent := s.Counters[MetricClientSent]; sent <= 3 {
		t.Fatalf("datagrams sent = %d, want > requests under loss", sent)
	}
	if s.Counters[MetricClientRMRecv] != 1 || s.Counters[MetricClientRMSent] < 1 {
		t.Fatalf("rm sent/recv = %d/%d",
			s.Counters[MetricClientRMSent], s.Counters[MetricClientRMRecv])
	}
	if s.Histograms[MetricClientRTT].Count != 3 {
		t.Fatalf("rtt observations = %d, want 3", s.Histograms[MetricClientRTT].Count)
	}
	// A round trip takes microseconds: its bounds are the switch's
	// sub-microsecond set, not DefBuckets, whose first bucket holds them all.
	if b := s.Histograms[MetricClientRTT].Bounds; !slices.Equal(b, metrics.FastBuckets) {
		t.Fatalf("rtt bounds = %v, want metrics.FastBuckets", b)
	}
}

func TestDeltaNotAppliedTwiceUnderLoss(t *testing.T) {
	// The dangerous case: the request is delivered but the *reply* is
	// lost from the client's view (simulated by dropping the retry-side
	// duplicate); the client retries with an idempotent resync so the
	// delta cannot be double-applied. Here we drop nothing on the wire but
	// force a timeout on the first attempt by dropping exactly the first
	// datagram after the setup exchange completes.
	sw := switchfab.New()
	if err := sw.AddPort(1, 10e6); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer("127.0.0.1:0", sw)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	go srv.Serve() //nolint:errcheck

	var mu sync.Mutex
	dropNext := false
	proxy := newLossyProxy(t, srv.Addr().String(), func(int) bool {
		mu.Lock()
		defer mu.Unlock()
		if dropNext {
			dropNext = false
			return true
		}
		return false
	})
	cl, err := DialContext(context.Background(), proxy.Addr(), WithTimeout(100*time.Millisecond), WithRetries(5))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Setup(ctx, 9, 1, 100e3); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	dropNext = true // the delta cell will be lost
	mu.Unlock()
	granted, ok, err := cl.Renegotiate(ctx, 9, 100e3, 300e3)
	if err != nil || !ok {
		t.Fatalf("renegotiate: %v %v %v", granted, ok, err)
	}
	// If the retry had re-sent the delta, the switch would sit at 500e3.
	if vc, _ := sw.VC(9); math.Abs(vc.Rate-300e3)/300e3 > 1.0/256 {
		t.Fatalf("switch rate = %v, delta applied twice?", vc.Rate)
	}
}

// TestDelayedDeltaNotAppliedAfterResync is the regression test for the
// hard-state failure mode Section III-B warns about: the delta cell is
// *delayed* (not lost) long enough that the client times out and completes
// the request with an idempotent resync retry — and then the delta arrives.
// Without per-VC sequence tracking the switch applies the stale delta on
// top of the resync, leaving the reserved rate at target+delta forever.
func TestDelayedDeltaNotAppliedAfterResync(t *testing.T) {
	reg := metrics.NewRegistry()
	sw := switchfab.New(switchfab.WithMetrics(reg))
	if err := sw.AddPort(1, 10e6); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer("127.0.0.1:0", sw)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	go srv.Serve() //nolint:errcheck

	// Datagram 0 is the setup; datagram 1 is the renegotiation's delta
	// cell. Hold the delta well past the client's retry, so the order on
	// the wire becomes: setup, resync (retry), delta (stale).
	const holdFor = 400 * time.Millisecond
	proxy := newShapingProxy(t, srv.Addr().String(), nil, func(i int) time.Duration {
		if i == 1 {
			return holdFor
		}
		return 0
	})
	cl, err := DialContext(context.Background(), proxy.Addr(), WithTimeout(100*time.Millisecond), WithRetries(5))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if err := cl.Setup(ctx, 9, 1, 100e3); err != nil {
		t.Fatal(err)
	}
	granted, ok, err := cl.Renegotiate(ctx, 9, 100e3, 300e3)
	if err != nil || !ok {
		t.Fatalf("renegotiate: %v %v %v", granted, ok, err)
	}
	if math.Abs(granted-300e3)/300e3 > 1.0/256 {
		t.Fatalf("granted = %v, want ~300e3", granted)
	}

	// Wait for the held delta to reach the switch, then check it was
	// dropped as a duplicate: the rate must equal the target, not
	// target+delta (= 500e3, the pre-fix outcome).
	deadline := time.Now().Add(5 * holdFor)
	for sw.Stats().DupDrops == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := sw.Stats().DupDrops; got != 1 {
		t.Fatalf("duplicate drops = %d, want 1 (delayed delta never arrived?)", got)
	}
	if vc, _ := sw.VC(9); math.Abs(vc.Rate-300e3)/300e3 > 1.0/256 {
		t.Fatalf("switch rate = %v after delayed delta, want ~300e3 (delta applied twice)", vc.Rate)
	}
	if got := reg.Snapshot().Counters[switchfab.MetricDupDrops]; got != 1 {
		t.Fatalf("%s = %d, want 1", switchfab.MetricDupDrops, got)
	}
}

// TestStaleResyncRetryDoesNotRestoreOldRate is the stale-resync schedule over
// the wire, the reordering a long-RTT path makes routine: attempt 0's delta is
// applied but its reply is held past the client's timeout, so the client
// retries with a resync carrying the same target; the late reply then
// completes the request, the next Renegotiate moves the VC on, and only then
// does the retry's resync reach the switch. It is older than the VC's state
// and must be dropped — applying it put the switch back at the old rate
// while the source believed the new one.
func TestStaleResyncRetryDoesNotRestoreOldRate(t *testing.T) {
	sw := switchfab.New()
	if err := sw.AddPort(1, 10e6); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer("127.0.0.1:0", sw)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	go srv.Serve() //nolint:errcheck

	// Requests: 0 setup, 1 delta to r1, 2 its resync retry (held), 3 delta
	// to r2. Replies: 0 setup, 1 the first delta's (held past the timeout).
	const (
		timeout   = 100 * time.Millisecond
		holdReply = 150 * time.Millisecond
		holdRetry = 400 * time.Millisecond
		r1, r2    = 256e3, 384e3 // exact in the RM cell's 16-bit rate code
	)
	proxy := newShapingProxy(t, srv.Addr().String(), nil, func(i int) time.Duration {
		if i == 2 {
			return holdRetry
		}
		return 0
	})
	proxy.mu.Lock()
	proxy.replyDelay = func(j int) time.Duration {
		if j == 1 {
			return holdReply
		}
		return 0
	}
	proxy.mu.Unlock()
	cl, err := DialContext(context.Background(), proxy.Addr(), WithTimeout(timeout), WithRetries(5))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if err := cl.Setup(ctx, 9, 1, 128e3); err != nil {
		t.Fatal(err)
	}
	if granted, ok, err := cl.Renegotiate(ctx, 9, 128e3, r1); err != nil || !ok || granted != r1 {
		t.Fatalf("first renegotiate: %v %v %v", granted, ok, err)
	}
	granted, ok, err := cl.Renegotiate(ctx, 9, r1, r2)
	if err != nil || !ok || granted != r2 {
		t.Fatalf("second renegotiate: %v %v %v", granted, ok, err)
	}

	// Wait for the held retry to reach the switch: dropped as a duplicate,
	// the rate the source believes still in force.
	deadline := time.Now().Add(5 * holdRetry)
	for sw.Stats().DupDrops == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if st := sw.Stats(); st.DupDrops == 0 {
		t.Fatalf("the overtaken retry was not dropped as a duplicate: %+v", st)
	}
	if vc, _ := sw.VC(9); vc.Rate != granted {
		t.Fatalf("switch rate = %v, source believes %v: the overtaken retry restored the old rate", vc.Rate, granted)
	}
}
