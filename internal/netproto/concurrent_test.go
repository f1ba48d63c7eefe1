package netproto

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"rcbr/internal/metrics"
	"rcbr/internal/switchfab"
)

// TestConcurrentRequestsNoCrossTalk drives 32 concurrent requests through
// ONE client over a lossy transport and checks that the demultiplexer
// routes every reply to the caller that issued it: each goroutine
// renegotiates its own VC to a distinct target rate, so any cross-talk
// between ReqIDs shows up as a caller observing another VC's rate. Run
// under -race this is also the concurrency check on the client internals.
func TestConcurrentRequestsNoCrossTalk(t *testing.T) {
	const (
		sources = 32
		base    = 1e3
	)
	sw := switchfab.New()
	if err := sw.AddPort(1, 1e9); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer("127.0.0.1:0", sw, WithWorkers(8), WithQueue(256))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	go srv.Serve() //nolint:errcheck

	// Drop every 5th datagram so a good fraction of the in-flight requests
	// exercise the retry path concurrently.
	proxy := newLossyProxy(t, srv.Addr().String(), func(i int) bool { return i%5 == 4 })
	reg := metrics.NewRegistry()
	cl, err := DialContext(context.Background(), proxy.Addr(),
		WithTimeout(150*time.Millisecond), WithRetries(8), WithClientMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	target := func(i int) float64 { return float64(i+1) * 32e3 }
	var wg sync.WaitGroup
	errs := make(chan error, sources)
	granted := make([]float64, sources)
	for i := 0; i < sources; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vci := uint16(100 + i)
			if err := cl.Setup(ctx, vci, 1, base); err != nil {
				errs <- err
				return
			}
			g, ok, err := cl.Renegotiate(ctx, vci, base, target(i))
			if err != nil {
				errs <- err
				return
			}
			if !ok {
				t.Errorf("vci %d: renegotiation denied on an empty link", vci)
			}
			granted[i] = g
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// Per-request replies must carry the caller's own rate (16-bit TM 4.0
	// quantization allows 1/256 relative error), and the switch must agree.
	for i := 0; i < sources; i++ {
		want := target(i)
		if math.Abs(granted[i]-want)/want > 1.0/256 {
			t.Fatalf("caller %d granted %v, want ~%v: reply routed to wrong caller?",
				i, granted[i], want)
		}
		if r, err := sw.VCRateID(switchfab.VCID(100 + i)); err != nil || math.Abs(r-want)/want > 1.0/256 {
			t.Fatalf("vci %d rate = %v (%v), want ~%v", 100+i, r, err, want)
		}
	}

	// Counter coherence under loss: every attempt is one datagram, every
	// retry was preceded by a timeout, and RTT is observed per reply.
	s := reg.Snapshot()
	requests := s.Counters[MetricClientRequests]
	sent := s.Counters[MetricClientSent]
	retries := s.Counters[MetricClientRetries]
	timeouts := s.Counters[MetricClientTimeouts]
	recv := s.Counters[MetricClientRecv]
	if requests != 2*sources {
		t.Fatalf("requests = %d, want %d", requests, 2*sources)
	}
	if sent != requests+retries {
		t.Fatalf("sent = %d, want requests %d + retries %d", sent, requests, retries)
	}
	if retries == 0 || timeouts == 0 {
		t.Fatalf("lossy run recorded no retries/timeouts: %+v", s.Counters)
	}
	if timeouts < retries || timeouts > retries+requests {
		t.Fatalf("timeouts = %d incoherent with retries = %d", timeouts, retries)
	}
	if recv != requests {
		t.Fatalf("replies received = %d, want one per completed request %d", recv, requests)
	}
	if got := s.Histograms[MetricClientRTT].Count; got != recv {
		t.Fatalf("rtt observations = %d, want %d", got, recv)
	}
	if s.Counters[MetricClientRMRecv] != sources {
		t.Fatalf("rm replies = %d, want %d", s.Counters[MetricClientRMRecv], sources)
	}
}
