package netproto

import (
	"context"
	"errors"
	"math"
	"net"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"rcbr/internal/cell"
	"rcbr/internal/metrics"
	"rcbr/internal/switchfab"
)

func TestFrameRoundTrip(t *testing.T) {
	f := func(typ uint8, reqID uint32, payload []byte) bool {
		if len(payload) > maxFrame-headerLen {
			payload = payload[:maxFrame-headerLen]
		}
		b := appendHeader(nil, typ, reqID)
		b = append(b, payload...)
		got, err := ParseFrame(b)
		if err != nil {
			return false
		}
		if got.Version != Version || got.Type != typ || got.ReqID != reqID || len(got.Payload) != len(payload) {
			return false
		}
		for i := range payload {
			if got.Payload[i] != payload[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFrameErrors(t *testing.T) {
	if _, err := ParseFrame([]byte{1, 2}); !errors.Is(err, ErrFrame) {
		t.Errorf("short: %v", err)
	}
	if _, err := ParseFrame([]byte{0, 1, 1, 0, 0, 0, 0}); !errors.Is(err, ErrFrame) {
		t.Errorf("magic: %v", err)
	}
	// Exactly one version is spoken.
	for ver := 0; ver < 256; ver++ {
		_, err := ParseFrame([]byte{Magic, uint8(ver), TypeRM, 0, 0, 0, 0})
		if (err == nil) != (ver == Version) || err != nil && !errors.Is(err, ErrVersion) {
			t.Errorf("version %d: %v", ver, err)
		}
	}
}

func TestSetupCodec(t *testing.T) {
	req := SetupReq{VCI: 300, Port: 2, Rate: 374e3}
	b := AppendSetup(nil, 77, req)
	f, err := ParseFrame(b)
	if err != nil || f.Type != TypeSetup || f.ReqID != 77 {
		t.Fatalf("frame: %+v %v", f, err)
	}
	got, err := DecodeSetup(f.Payload)
	if err != nil || got != req {
		t.Fatalf("setup: %+v %v", got, err)
	}
	if _, err := DecodeSetup([]byte{1}); !errors.Is(err, ErrFrame) {
		t.Errorf("short setup: %v", err)
	}
}

func TestTeardownCodec(t *testing.T) {
	b := AppendTeardown(nil, 5, 1234)
	f, err := ParseFrame(b)
	if err != nil || f.Type != TypeTeardown {
		t.Fatal(err)
	}
	vci, err := DecodeTeardown(f.Payload)
	if err != nil || vci != 1234 {
		t.Fatalf("vci = %d, %v", vci, err)
	}
	if _, err := DecodeTeardown(nil); !errors.Is(err, ErrFrame) {
		t.Errorf("short: %v", err)
	}
}

func TestErrTruncation(t *testing.T) {
	long := make([]byte, 2*maxFrame)
	for i := range long {
		long[i] = 'x'
	}
	b := AppendErr(nil, 1, ErrCodeCapacity, string(long))
	if len(b) > maxFrame {
		t.Fatalf("error frame %d bytes exceeds max %d", len(b), maxFrame)
	}
}

// ctx is the default request context for the end-to-end tests.
var ctx = context.Background()

// startServer spins up a switch + server on loopback.
func startServer(t *testing.T, capacity float64) (*switchfab.Switch, *Server, *Client) {
	t.Helper()
	sw := switchfab.New()
	if err := sw.AddPort(1, capacity); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer("127.0.0.1:0", sw)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve() //nolint:errcheck // exits via Close
	t.Cleanup(func() { srv.Close() })
	cl, err := DialContext(context.Background(), srv.Addr().String(), WithTimeout(200*time.Millisecond), WithRetries(2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return sw, srv, cl
}

func TestEndToEndSetupRenegotiateTeardown(t *testing.T) {
	sw, _, cl := startServer(t, 1e6)
	if err := cl.Setup(ctx, 42, 1, 128e3); err != nil {
		t.Fatal(err)
	}
	if vc, _ := sw.VC(42); vc.Rate != 128e3 {
		t.Fatalf("rate after setup = %v", vc.Rate)
	}
	granted, ok, err := cl.Renegotiate(ctx, 42, 128e3, 256e3)
	if err != nil || !ok {
		t.Fatalf("renegotiate: %v %v %v", granted, ok, err)
	}
	if math.Abs(granted-256e3)/256e3 > 1.0/256 {
		t.Fatalf("granted = %v", granted)
	}
	if err := cl.Teardown(ctx, 42); err != nil {
		t.Fatal(err)
	}
	if sw.VCCount() != 0 {
		t.Fatal("VC not torn down")
	}
}

func TestEndToEndDenial(t *testing.T) {
	_, _, cl := startServer(t, 500e3)
	if err := cl.Setup(ctx, 1, 1, 256e3); err != nil {
		t.Fatal(err)
	}
	if err := cl.Setup(ctx, 2, 1, 128e3); err != nil {
		t.Fatal(err)
	}
	granted, ok, err := cl.Renegotiate(ctx, 1, 256e3, 512e3)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("over-capacity renegotiation granted")
	}
	if math.Abs(granted-256e3)/256e3 > 1.0/256 {
		t.Fatalf("denied reply rate = %v, want the old rate", granted)
	}
}

func TestEndToEndResync(t *testing.T) {
	sw, _, cl := startServer(t, 1e6)
	if err := cl.Setup(ctx, 7, 1, 100e3); err != nil {
		t.Fatal(err)
	}
	granted, ok, err := cl.Resync(ctx, 7, 300e3)
	if err != nil || !ok {
		t.Fatalf("resync: %v %v %v", granted, ok, err)
	}
	if vc, _ := sw.VC(7); math.Abs(vc.Rate-300e3)/300e3 > 1.0/256 {
		t.Fatalf("rate after resync = %v", vc.Rate)
	}
}

func TestRemoteErrors(t *testing.T) {
	_, _, cl := startServer(t, 1e6)
	// Renegotiating a nonexistent VC returns a remote error.
	if _, _, err := cl.Renegotiate(ctx, 99, 0, 100e3); !errors.Is(err, ErrRemote) {
		t.Fatalf("missing VC: %v", err)
	}
	// Setting up on a nonexistent port.
	if err := cl.Setup(ctx, 1, 9, 1e5); !errors.Is(err, ErrRemote) {
		t.Fatalf("missing port: %v", err)
	}
	// Over-capacity setup.
	if err := cl.Setup(ctx, 1, 1, 2e6); !errors.Is(err, ErrRemote) {
		t.Fatalf("over capacity: %v", err)
	}
}

func TestIdempotentRetransmissions(t *testing.T) {
	sw, _, cl := startServer(t, 1e6)
	if err := cl.Setup(ctx, 5, 1, 100e3); err != nil {
		t.Fatal(err)
	}
	// A duplicate setup at the same rate acks (simulating a retry whose
	// first attempt's reply was lost).
	if err := cl.Setup(ctx, 5, 1, 100e3); err != nil {
		t.Fatalf("duplicate setup not idempotent: %v", err)
	}
	// A different rate is a genuine conflict.
	if err := cl.Setup(ctx, 5, 1, 200e3); !errors.Is(err, ErrRemote) {
		t.Fatalf("conflicting setup accepted: %v", err)
	}
	// So is the same rate on another port: acknowledging it would tell the
	// source it holds 100 kb/s on a port that reserved nothing.
	if err := sw.AddPort(2, 1e6); err != nil {
		t.Fatal(err)
	}
	before := sw.Stats()
	if err := cl.Setup(ctx, 5, 2, 100e3); !errors.Is(err, switchfab.ErrVCExists) {
		t.Fatalf("setup of an established VCI on another port: %v, want ErrVCExists", err)
	}
	r1, _, _ := sw.PortLoad(1)
	r2, _, _ := sw.PortLoad(2)
	if r1 != 100e3 || r2 != 0 || sw.Stats() != before {
		t.Fatalf("refused setup moved the books: port 1 %v, port 2 %v, stats %+v (were %+v)", r1, r2, sw.Stats(), before)
	}
	if err := cl.Teardown(ctx, 5); err != nil {
		t.Fatal(err)
	}
	// Re-teardown acks idempotently.
	if err := cl.Teardown(ctx, 5); err != nil {
		t.Fatalf("duplicate teardown not idempotent: %v", err)
	}
	// A rate off the switch's 2⁻⁹ b/s lattice is booked rounded; its
	// retransmission is still the same request and acks.
	if err := cl.Setup(ctx, 6, 1, 100.1); err != nil {
		t.Fatal(err)
	}
	if err := cl.Setup(ctx, 6, 1, 100.1); err != nil {
		t.Fatalf("duplicate setup at 100.1 b/s not idempotent: %v", err)
	}
	vc, err := sw.VC(switchfab.MakeVCID(0, 6))
	if r, _, _ := sw.PortLoad(1); err != nil || r != vc.Rate {
		t.Fatalf("after the duplicate: port 1 reserves %v, VC %+v (%v)", r, vc, err)
	}
	if err := cl.Teardown(ctx, 6); err != nil {
		t.Fatal(err)
	}
}

func TestClientTimeout(t *testing.T) {
	// Dial a black-hole address (a socket with no server reading).
	hole, err := NewServer("127.0.0.1:0", switchfab.New())
	if err != nil {
		t.Fatal(err)
	}
	addr := hole.Addr().String()
	hole.Close() // nothing listens anymore
	cl, err := DialContext(context.Background(), addr, WithTimeout(50*time.Millisecond), WithRetries(1))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	start := time.Now()
	err = cl.Setup(ctx, 1, 1, 1e5)
	// ICMP unreachable may surface as a socket error rather than a
	// timeout; both are acceptable failure modes, but it must not hang.
	if err == nil {
		t.Fatal("expected failure against closed server")
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("request did not respect timeout budget")
	}
}

func TestConcurrentClients(t *testing.T) {
	sw, _, _ := startServer(t, 10e6)
	srvAddr := ""
	// Find the live server address back from the switch test helper: start
	// a fresh pair instead for clarity.
	_ = sw
	sw2 := switchfab.New()
	if err := sw2.AddPort(1, 10e6); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer("127.0.0.1:0", sw2)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	go srv.Serve() //nolint:errcheck
	srvAddr = srv.Addr().String()

	const n = 8
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(vci uint16) {
			defer wg.Done()
			cl, err := DialContext(context.Background(), srvAddr, WithTimeout(300*time.Millisecond), WithRetries(3))
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			if err := cl.Setup(ctx, vci, 1, 100e3); err != nil {
				errs <- err
				return
			}
			cur := 100e3
			for k := 0; k < 20; k++ {
				target := 100e3 + float64(k%5)*50e3
				granted, _, err := cl.Renegotiate(ctx, vci, cur, target)
				if err != nil {
					errs <- err
					return
				}
				cur = granted
			}
			errs <- cl.Teardown(ctx, vci)
		}(uint16(i + 1))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if sw2.VCCount() != 0 {
		t.Fatalf("VCs remaining: %d", sw2.VCCount())
	}
}

func TestRMCodecThroughFrames(t *testing.T) {
	h := cell.Header{VCI: 11}
	m := cell.RM{ER: 64e3, Seq: 9}
	b, err := AppendRM(nil, 3, h, m)
	if err != nil {
		t.Fatal(err)
	}
	f, err := ParseFrame(b)
	if err != nil || f.Type != TypeRM {
		t.Fatal(err)
	}
	gh, gm, err := DecodeRM(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if gh.VCI != 11 || gm.Seq != 9 {
		t.Fatalf("decoded %+v %+v", gh, gm)
	}
	if _, _, err := DecodeRM([]byte{1, 2, 3}); !errors.Is(err, ErrFrame) {
		t.Errorf("short RM: %v", err)
	}
}

// TestWireErrorSentinels checks that a remote failure keeps its sentinel
// identity across the UDP hop: the client-side error matches both ErrRemote
// and the switch sentinel under errors.Is.
func TestWireErrorSentinels(t *testing.T) {
	_, _, cl := startServer(t, 1e6)
	err := cl.Setup(ctx, 1, 1, 2e6) // over capacity
	if !errors.Is(err, ErrRemote) || !errors.Is(err, switchfab.ErrCapacity) {
		t.Fatalf("over-capacity setup error %v must match ErrRemote and ErrCapacity", err)
	}
	if err := cl.Setup(ctx, 1, 9, 1e5); !errors.Is(err, switchfab.ErrNoPort) {
		t.Fatalf("missing port error %v must match ErrNoPort", err)
	}
	if _, _, err := cl.Renegotiate(ctx, 99, 0, 1e5); !errors.Is(err, switchfab.ErrNoVC) {
		t.Fatalf("missing VC error %v must match ErrNoVC", err)
	}
	if err := cl.Setup(ctx, 2, 1, 1e5); err != nil {
		t.Fatal(err)
	}
	if err := cl.Setup(ctx, 2, 1, 5e5); !errors.Is(err, switchfab.ErrVCExists) {
		t.Fatalf("conflicting setup error %v must match ErrVCExists", err)
	}
}

func TestErrCodecRoundTrip(t *testing.T) {
	for _, sentinel := range []error{
		switchfab.ErrCapacity, switchfab.ErrAdmission, switchfab.ErrNoVC,
		switchfab.ErrNoPort, switchfab.ErrVCExists, switchfab.ErrInvalidRate,
	} {
		code := errCode(sentinel)
		if code == ErrCodeGeneric {
			t.Fatalf("%v has no wire code", sentinel)
		}
		if got := codeSentinel(code); got != sentinel {
			t.Fatalf("code %d decodes to %v, want %v", code, got, sentinel)
		}
	}
	if errCode(errors.New("anything else")) != ErrCodeGeneric {
		t.Fatal("unknown errors must map to the generic code")
	}
	if codeSentinel(ErrCodeGeneric) != nil || codeSentinel(200) != nil {
		t.Fatal("generic/unknown codes must decode to no sentinel")
	}
	code, msg := DecodeErr(nil)
	if code != ErrCodeGeneric || msg != "" {
		t.Fatalf("empty payload decoded as (%d, %q)", code, msg)
	}
}

// TestContextDeadline bounds a request against a black hole with a context
// deadline far shorter than the retry budget.
func TestContextDeadline(t *testing.T) {
	hole, err := NewServer("127.0.0.1:0", switchfab.New())
	if err != nil {
		t.Fatal(err)
	}
	addr := hole.Addr().String()
	hole.Close() // nothing listens anymore
	cl, err := DialContext(context.Background(), addr, WithTimeout(2*time.Second), WithRetries(10))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	dctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = cl.Setup(dctx, 1, 1, 1e5)
	// ICMP unreachable may surface as a socket error before the deadline;
	// otherwise the context must cut the 20-second retry budget short.
	if err == nil {
		t.Fatal("expected failure against closed server")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("context deadline ignored: took %v (err %v)", elapsed, err)
	}
}

// TestContextCancelMidFlight cancels a request while the client blocks on a
// read; the call must return promptly with context.Canceled.
func TestContextCancelMidFlight(t *testing.T) {
	// A raw socket that swallows datagrams without replying keeps the
	// client blocked in its read loop (no ICMP unreachable).
	sink, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	go func() {
		buf := make([]byte, 2048)
		for {
			if _, _, err := sink.ReadFrom(buf); err != nil {
				return
			}
		}
	}()
	cl, err := DialContext(context.Background(), sink.LocalAddr().String(),
		WithTimeout(10*time.Second), WithRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, _, err = cl.Renegotiate(cctx, 1, 0, 1e5)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("cancellation did not unblock the read promptly")
	}
}

// TestServerMetrics counts one scripted exchange on the server side, and the
// RM cells of it on the client side: the client counts cells, not datagrams,
// so what it sent is what the server unpacked and what it received is what
// the replies carried.
func TestServerMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	sw := switchfab.New()
	if err := sw.AddPort(1, 1e6); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer("127.0.0.1:0", sw, WithServerMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	go srv.Serve() //nolint:errcheck
	cl, err := DialContext(context.Background(), srv.Addr().String(), WithTimeout(200*time.Millisecond), WithRetries(2), WithClientMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Setup(ctx, 4, 1, 1e5); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.Renegotiate(ctx, 4, 1e5, 2e5); err != nil {
		t.Fatal(err)
	}
	if err := cl.Teardown(ctx, 4); err != nil {
		t.Fatal(err)
	}
	if err := cl.Setup(ctx, 5, 1, 9e6); !errors.Is(err, switchfab.ErrCapacity) {
		t.Fatalf("over-capacity setup: %v", err)
	}
	s := reg.Snapshot()
	for name, want := range map[string]int64{
		MetricServerRx:         4,
		MetricServerTx:         4,
		MetricServerSetups:     2,
		MetricServerTeardowns:  1,
		MetricServerRM:         1,
		MetricServerBatchCells: 1,
		MetricServerErrors:     1,
		MetricClientRMSent:     1,
		MetricClientRMRecv:     1,
	} {
		if got := s.Counters[name]; got != want {
			t.Fatalf("%s = %d, want %d (all: %+v)", name, got, want, s.Counters)
		}
	}
}
