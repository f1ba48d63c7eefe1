package netproto

import (
	"testing"

	"rcbr/internal/cell"
	"rcbr/internal/switchfab"
)

// These tests pin the allocation behavior of the steady-state signaling hot
// path. They are regression locks for the zero-allocation wire path: if a
// change reintroduces a per-message allocation in encode, decode, or the
// server's RM dispatch, these fail rather than the p99 quietly drifting.

func TestAppendRMZeroAlloc(t *testing.T) {
	h := cell.Header{VCI: 42}
	m := cell.RM{ER: 1e6, Seq: 7}
	buf := make([]byte, 0, maxFrame)
	allocs := testing.AllocsPerRun(1000, func() {
		var err error
		buf, err = AppendRM(buf[:0], 9, h, m)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("AppendRM allocates %.1f objects/op, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(1000, func() {
		buf = AppendSetup(buf[:0], 9, SetupReq{VCI: 42, Port: 1, Rate: 1e6})
	})
	if allocs != 0 {
		t.Errorf("AppendSetup allocates %.1f objects/op, want 0", allocs)
	}
}

func TestDecodeRMZeroAlloc(t *testing.T) {
	pkt, err := AppendRM(nil, 9, cell.Header{VCI: 42}, cell.RM{ER: 1e6, Seq: 7})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		f, err := ParseFrame(pkt)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := DecodeRM(f.Payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("ParseFrame+DecodeRM allocates %.1f objects/op, want 0", allocs)
	}
}

func TestRMBatchCodecZeroAlloc(t *testing.T) {
	buf := make([]byte, 0, maxFrame)
	allocs := testing.AllocsPerRun(1000, func() {
		buf = appendHeader(buf[:0], TypeRM, 9)
		for i := 1; i <= MaxRMBatch; i++ {
			var err error
			buf, err = appendRMCell(buf, cell.Header{VCI: uint16(i)}, cell.RM{ER: 1e6, Seq: uint32(i)})
			if err != nil {
				t.Fatal(err)
			}
		}
		k, err := rmCells(buf[headerLen:])
		if err != nil || k != MaxRMBatch {
			t.Fatal(k, err)
		}
		for i := 0; i < k; i++ {
			if _, _, err := DecodeRM(buf[headerLen+i*cell.Size : headerLen+(i+1)*cell.Size]); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("full-frame encode+decode allocates %.1f objects/op, want 0", allocs)
	}
}

// serverRMAllocs measures the whole server-side RM round trip — frame parse,
// cell decode, switch renegotiation, reply encode — for a frame carrying m
// for each of VCs 1..k.
func serverRMAllocs(t *testing.T, k int, m cell.RM) float64 {
	t.Helper()
	sw := switchfab.New()
	if err := sw.AddPort(1, 1e9); err != nil {
		t.Fatal(err)
	}
	items := make([]rmItem, k)
	for i := range items {
		vci := uint16(i + 1)
		if err := sw.Setup(vci, 1, 1e6); err != nil {
			t.Fatal(err)
		}
		items[i] = rmItem{cell.Header{VCI: vci}, m}
	}
	pkt := rmFrame(t, TypeRM, 9, items...)
	s := &Server{sw: sw}
	sc := newScratch()
	return testing.AllocsPerRun(1000, func() {
		if reply := s.handle(pkt, sc); len(reply) != headerLen+k*cell.Size {
			t.Fatalf("reply of %d bytes, want %d cells", len(reply), k)
		}
	})
}

// TestServerHandleRMZeroAlloc pins the server-side RM round trip at zero
// allocations per request in the steady state: for the frame of one, for a
// full frame, and for what a coalescing client sends when a reply is lost —
// the full frame of sequenced deltas, unchanged, every cell of it answered
// by the duplicate filter. A resync to a fixed rate is idempotent, so the
// same request can be replayed arbitrarily (Seq 0 marks an unsequenced
// cell).
func TestServerHandleRMZeroAlloc(t *testing.T) {
	resync := cell.RM{Resync: true, ER: 2e6}
	for _, c := range []struct {
		name string
		k    int
		m    cell.RM
	}{
		{"k=1", 1, resync},
		{"k=9", MaxRMBatch, resync},
		{"k=9,replayed", MaxRMBatch, cell.RM{ER: 1e5, Seq: 3}},
	} {
		t.Run(c.name, func(t *testing.T) {
			if allocs := serverRMAllocs(t, c.k, c.m); allocs != 0 {
				t.Errorf("server RM handle allocates %.1f objects/op, want 0", allocs)
			}
		})
	}
}

// clientRoundTripAllocs is the whole-process allocation count of one
// loopback Renegotiate with the server in the same process. Each is named:
//
//   - 3 for the request's reply timer: time.NewTimer allocates the Timer
//     and its channel, whose buffer of time.Time (which holds a pointer)
//     is a second object. One timer per request, not per attempt.
//   - 2 for the server's ReadFrom: net.UDPConn.ReadFrom returns a fresh
//     *net.UDPAddr and the IP slice behind it for every datagram, the
//     price of net.PacketConn as the server's transport.
//
// The client's wait state (reply channel and payload buffer) is recycled,
// and nothing else on either side allocates: encode, decode and the switch
// decision are held at zero by the tests above.
const clientRoundTripAllocs = 5

// TestClientRoundTripAllocs pins what one renegotiation round trip
// allocates across the whole process: client, socket and server.
func TestClientRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	sw := switchfab.New()
	if err := sw.AddPort(1, 1e12); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer("127.0.0.1:0", sw)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	go srv.Serve() //nolint:errcheck
	cl, err := DialContext(ctx, srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Setup(ctx, 7, 1, 1<<16); err != nil {
		t.Fatal(err)
	}
	// Rates step by 2^16, exact in the 16-bit code, so every grant is exact.
	cur, next := float64(1<<16), float64(2<<16)
	allocs := testing.AllocsPerRun(500, func() {
		granted, ok, err := cl.Renegotiate(ctx, 7, cur, next)
		if err != nil || !ok || granted != next {
			t.Fatalf("renegotiate %v -> %v: %v %v %v", cur, next, granted, ok, err)
		}
		cur, next = next, cur
	})
	if allocs > clientRoundTripAllocs {
		t.Errorf("a loopback renegotiation allocates %.1f objects, want at most %d", allocs, clientRoundTripAllocs)
	}
	t.Logf("allocations per round trip: %.1f", allocs)
}
