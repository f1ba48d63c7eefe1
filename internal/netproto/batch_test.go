package netproto

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"rcbr/internal/cell"
	"rcbr/internal/metrics"
	"rcbr/internal/switchfab"
)

// rmItem is one cell of an RM frame under test.
type rmItem struct {
	h cell.Header
	m cell.RM
}

// rmFrame builds an RM frame of the given type the way the coalescing client
// does: the header, then one cell per item.
func rmFrame(t testing.TB, typ uint8, reqID uint32, items ...rmItem) []byte {
	t.Helper()
	b := appendHeader(nil, typ, reqID)
	for _, it := range items {
		var err error
		if b, err = appendRMCell(b, it.h, it.m); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// rmFrameCells splits an RM frame back into its cells, failing the test on
// anything the strict codec refuses.
func rmFrameCells(t testing.TB, b []byte, typ uint8, reqID uint32) []rmItem {
	t.Helper()
	f, err := ParseFrame(b)
	if err != nil {
		t.Fatal(err)
	}
	if f.Version != Version || f.Type != typ || f.ReqID != reqID {
		t.Fatalf("frame = %+v, want type %d req %d", f, typ, reqID)
	}
	k, err := rmCells(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	items := make([]rmItem, k)
	for i := range items {
		if items[i].h, items[i].m, err = DecodeRM(f.Payload[i*cell.Size : (i+1)*cell.Size]); err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
	}
	return items
}

// quantized is m as it reads after one trip through the 16-bit rate code.
func quantized(m cell.RM) cell.RM {
	er16, _ := cell.EncodeRate16(m.ER)
	m.ER = cell.DecodeRate16(er16)
	return m
}

func TestRMBatchCodecRoundTrip(t *testing.T) {
	items := []rmItem{
		{cell.Header{VCI: 1}, cell.RM{ER: 1e6, Seq: 7}},
		{cell.Header{VPI: 3, VCI: 2}, cell.RM{Decrease: true, ER: 5e5, Seq: 8}},
		{cell.Header{VCI: 3, GFC: 5, CLP: true}, cell.RM{Resync: true, ER: 4e6, Seq: 9}},
		{cell.Header{VPI: 255, VCI: 65535}, cell.RM{Backward: true, Response: true, Deny: true, ER: 2e6, Seq: 10}},
	}
	b := rmFrame(t, TypeRM, 42, items...)
	got := rmFrameCells(t, b, TypeRM, 42)
	if len(got) != len(items) {
		t.Fatalf("decoded %d cells, want %d", len(got), len(items))
	}
	for i, want := range items {
		want.h.PTI = cell.PTIRM
		want.m = quantized(want.m)
		if got[i] != want {
			t.Errorf("cell %d = %+v, want %+v", i, got[i], want)
		}
	}
	// What was accepted re-encodes to the bytes that arrived.
	if again := rmFrame(t, TypeRM, 42, got...); !bytes.Equal(again, b) {
		t.Errorf("re-encoded frame differs:\n got %x\nwant %x", again, b)
	}
	// The frame of one is the single-RM datagram, byte for byte.
	single, err := AppendRM(nil, 42, items[1].h, items[1].m)
	if err != nil {
		t.Fatal(err)
	}
	if one := rmFrame(t, TypeRM, 42, items[1]); !bytes.Equal(one, single) {
		t.Errorf("frame of one differs from AppendRM:\n got %x\nwant %x", one, single)
	}
}

// TestRMBatchCodecLimits: an RM payload is 1..MaxRMBatch whole cells and
// nothing else, and DecodeRM takes exactly one cell — bytes after it are not
// ignored.
func TestRMBatchCodecLimits(t *testing.T) {
	if MaxRMBatch != 9 {
		t.Fatalf("MaxRMBatch = %d, want 9 cells in a %d-byte frame", MaxRMBatch, maxFrame)
	}
	full := make([]rmItem, MaxRMBatch+1)
	for i := range full {
		full[i] = rmItem{cell.Header{VCI: uint16(i + 1)}, cell.RM{ER: 1e6, Seq: uint32(i + 1)}}
	}
	over := rmFrame(t, TypeRM, 1, full...)
	b := over[:len(over)-cell.Size]
	if len(b) > maxFrame {
		t.Fatalf("full frame is %d bytes, exceeds maxFrame %d", len(b), maxFrame)
	}
	if got := rmFrameCells(t, b, TypeRM, 1); len(got) != MaxRMBatch {
		t.Fatalf("full frame decodes to %d cells", len(got))
	}
	sw := switchfab.New()
	s := &Server{sw: sw}
	for name, frame := range map[string][]byte{
		"no cells":              b[:headerLen],
		"partial cell":          b[:headerLen+cell.Size-1],
		"one cell and a byte":   b[:headerLen+cell.Size+1],
		"nine cells and a byte": append(append([]byte{}, b...), 0),
		"ten cells":             over,
	} {
		payload := frame[headerLen:]
		if _, err := rmCells(payload); !errors.Is(err, ErrFrame) {
			t.Errorf("%s: rmCells: %v", name, err)
		}
		if _, _, err := DecodeRM(payload); !errors.Is(err, ErrFrame) {
			t.Errorf("%s: DecodeRM: %v", name, err)
		}
		f, err := ParseFrame(s.handle(frame, newScratch()))
		if err != nil || f.Type != TypeErr || len(f.Payload) == 0 || f.Payload[0] != ErrCodeProto {
			t.Errorf("%s: server answered %+v, %v; want a protocol error", name, f, err)
		}
	}
	// DecodeRM is the frame of one: two whole cells are a frame, not a cell.
	if _, _, err := DecodeRM(b[headerLen : headerLen+2*cell.Size]); !errors.Is(err, ErrFrame) {
		t.Errorf("DecodeRM of two cells: %v", err)
	}
}

// batchTestRig stands up a switch, server, and batching client over
// loopback UDP.
func batchTestRig(t *testing.T, reg *metrics.Registry, copts ...ClientOption) *Client {
	t.Helper()
	sw := switchfab.New()
	if err := sw.AddPort(1, 1e9); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 64; i++ {
		if err := sw.Setup(uint16(i), 1, 1e6); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := NewServer("127.0.0.1:0", sw, WithServerMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })
	c, err := DialContext(context.Background(), srv.Addr().String(), copts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestClientBatchWindow coalesces concurrent renegotiations into batch
// frames and checks every caller gets its own grant.
func TestClientBatchWindow(t *testing.T) {
	reg := metrics.NewRegistry()
	c := batchTestRig(t, reg,
		WithBatchWindow(20*time.Millisecond), WithClientMetrics(reg))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	const n = 16
	type res struct {
		vci     uint16
		granted float64
		ok      bool
		err     error
	}
	results := make(chan res, n)
	for i := 1; i <= n; i++ {
		go func(vci uint16) {
			g, ok, err := c.Renegotiate(ctx, vci, 1e6, 1e6+float64(vci)*1e3)
			results <- res{vci, g, ok, err}
		}(uint16(i))
	}
	for i := 0; i < n; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("VC %d: %v", r.vci, r.err)
		}
		if !r.ok {
			t.Errorf("VC %d denied", r.vci)
		}
		want := 1e6 + float64(r.vci)*1e3
		er16, _ := cell.EncodeRate16(want)
		if q := cell.DecodeRate16(er16); r.granted != q {
			t.Errorf("VC %d granted %g, want %g", r.vci, r.granted, q)
		}
	}
	snap := reg.Snapshot()
	if snap.Counters[MetricClientBatchCells] != n {
		t.Errorf("client batch cells = %d, want %d", snap.Counters[MetricClientBatchCells], n)
	}
	// Coalescing engaged if the cells arrived in fewer RM frames than there
	// were cells; sixteen do not fit one frame, so the window also flushed
	// at MaxRMBatch. (A retransmitted frame would add to both counts.)
	frames, cells := snap.Counters[MetricServerRM], snap.Counters[MetricServerBatchCells]
	if cells < n || frames >= cells {
		t.Errorf("server saw %d cells in %d RM frames, want at least %d cells in fewer frames", cells, frames, n)
	}
	// The client counts RM cells, not datagrams: what it sent is what the
	// server unpacked, and every caller's cell came back (a retransmitted
	// frame's second reply is dropped unread, so received may trail sent).
	if sent, recv := snap.Counters[MetricClientRMSent], snap.Counters[MetricClientRMRecv]; sent != cells || recv < n {
		t.Errorf("client sent %d and received %d RM cells, server saw %d of %d", sent, recv, cells, n)
	}
}

// TestClientBatchDuplicateVCI: two renegotiations of one VC in the same
// window must both resolve (the window flushes early to keep VCs distinct).
func TestClientBatchDuplicateVCI(t *testing.T) {
	c := batchTestRig(t, nil, WithBatchWindow(20*time.Millisecond))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	done := make(chan error, 2)
	for k := 0; k < 2; k++ {
		go func() {
			_, ok, err := c.Renegotiate(ctx, 7, 1e6, 2e6)
			if err == nil && !ok {
				err = errors.New("denied")
			}
			done <- err
		}()
	}
	for k := 0; k < 2; k++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestClientBatchUnknownVCFallback: an unknown VC inside a batch is omitted
// from the reply and must surface through the fallback path as ErrNoVC.
func TestClientBatchUnknownVCFallback(t *testing.T) {
	reg := metrics.NewRegistry()
	c := batchTestRig(t, nil, WithBatchWindow(20*time.Millisecond), WithClientMetrics(reg))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	errs := make(chan error, 2)
	go func() {
		_, _, err := c.Renegotiate(ctx, 2, 1e6, 2e6)
		errs <- err
	}()
	go func() {
		_, _, err := c.Renegotiate(ctx, 999, 1e6, 2e6) // never set up
		errs <- err
	}()
	var sawNoVC bool
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			if !errors.Is(err, switchfab.ErrNoVC) {
				t.Fatalf("unexpected error: %v", err)
			}
			sawNoVC = true
		}
	}
	if !sawNoVC {
		t.Fatal("renegotiating an unknown VC reported no error")
	}
	if reg.Snapshot().Counters[MetricClientBatchFallbacks] == 0 {
		t.Error("fallback counter never moved")
	}
}
