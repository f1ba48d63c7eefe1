package netproto

import (
	"math"
	"testing"
	"time"

	"rcbr/internal/switchfab"
)

// TestServeRejectsNaNRateDatagram is the end-to-end regression for the wire
// poisoning bug: a crafted setup datagram whose rate field holds the NaN bit
// pattern must bounce off the decode boundary with the invalid-rate wire
// code — never reach the port accounting — and the switch must stay fully
// serviceable for the next, valid, request. Before the fix, the NaN passed
// the bare negative-rate check, was added into port.reserved, and made every
// later capacity comparison on the port false: a one-datagram permanent
// denial of service.
func TestServeRejectsNaNRateDatagram(t *testing.T) {
	sw := switchfab.New()
	if err := sw.AddPort(1, 1e6); err != nil {
		t.Fatal(err)
	}
	conn := newScriptedConn(
		scriptStep{data: AppendSetup(nil, 9, SetupReq{VCI: 5, Port: 1, Rate: math.NaN()})},
		scriptStep{data: AppendSetup(nil, 10, SetupReq{VCI: 5, Port: 1, Rate: math.Inf(1)})},
		scriptStep{data: AppendSetup(nil, 11, SetupReq{VCI: 5, Port: 1, Rate: 1e5})},
	)
	srv := NewServerWithConn(conn, sw, WithWorkers(1))
	go srv.Serve() //nolint:errcheck
	defer srv.Close()

	for _, wantReq := range []uint32{9, 10} {
		select {
		case reply := <-conn.wrote:
			f, err := ParseFrame(reply)
			if err != nil {
				t.Fatal(err)
			}
			if f.Type != TypeErr || f.ReqID != wantReq {
				t.Fatalf("reply to poisoned setup %d: type %d reqID %d", wantReq, f.Type, f.ReqID)
			}
			if code, _ := DecodeErr(f.Payload); code != ErrCodeInvalidRate {
				t.Fatalf("error code = %d, want ErrCodeInvalidRate", code)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("no reply to poisoned setup %d", wantReq)
		}
	}
	// The valid setup right behind the poison attempts must succeed: the
	// port was not overcommitted by the rejected datagrams.
	select {
	case reply := <-conn.wrote:
		f, err := ParseFrame(reply)
		if err != nil || f.Type != TypeSetupOK || f.ReqID != 11 {
			t.Fatalf("reply to valid setup: %+v, %v", f, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no reply to the valid setup")
	}
	reserved, _, err := sw.PortLoad(1)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(reserved) || reserved != 1e5 {
		t.Fatalf("port reserved = %v, want exactly 1e5 (finite)", reserved)
	}
	if sw.VCCount() != 1 {
		t.Fatalf("VCCount = %d, want 1", sw.VCCount())
	}
}
