package netproto

import (
	"errors"
	"math"
	"testing"
	"time"

	"rcbr/internal/cell"
	"rcbr/internal/switchfab"
)

// TestServeRejectsNaNRateDatagram is the end-to-end regression for the wire
// poisoning bug: a crafted setup datagram whose rate field holds the NaN bit
// pattern must bounce off the decode boundary with the invalid-rate wire
// code — never reach the port accounting — and the switch must stay fully
// serviceable for the next, valid, request. Before the fix, the NaN passed
// the bare negative-rate check, was added into port.reserved, and made every
// later capacity comparison on the port false: a one-datagram permanent
// denial of service. The setup frame is the one place a raw float64 crosses
// the wire; an RM cell's 16-bit rate code has no encoding for any of the
// four, so AppendRM refuses to frame them. Since PR 22 this table is what
// holds the wire half of the rule a taint analyzer held before (DESIGN §9).
func TestServeRejectsNaNRateDatagram(t *testing.T) {
	sw := switchfab.New()
	if err := sw.AddPort(1, 1e6); err != nil {
		t.Fatal(err)
	}
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1}
	var steps []scriptStep
	for i, rate := range bad {
		steps = append(steps, scriptStep{data: AppendSetup(nil, uint32(i), SetupReq{VCI: 5, Port: 1, Rate: rate})})
		if _, err := AppendRM(nil, 0, cell.Header{VCI: 5}, cell.RM{ER: rate}); !errors.Is(err, cell.ErrRateRange) {
			t.Errorf("AppendRM(ER=%v): %v, want cell.ErrRateRange", rate, err)
		}
	}
	steps = append(steps, scriptStep{data: AppendSetup(nil, 11, SetupReq{VCI: 5, Port: 1, Rate: 1e5})})
	conn := newScriptedConn(steps...)
	srv := NewServerWithConn(conn, sw, WithWorkers(1))
	go srv.Serve() //nolint:errcheck
	defer srv.Close()

	for i := range bad {
		wantReq := uint32(i)
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
	if st := sw.Stats(); st.Setups != 1 || st.SetupRejects != 0 {
		t.Fatalf("stats = %+v: a poisoned setup reached the switch", st)
	}
}
