package netproto

import (
	"errors"
	"fmt"
	"testing"

	"rcbr/internal/switchfab"
)

// wireCrossers lists every exported sentinel that can cross the wire in an
// Err reply and therefore must own a distinct error code. Adding a sentinel
// to switchfab or the codec without extending wireSentinels fails this test.
var wireCrossers = []error{
	switchfab.ErrNoPort,
	switchfab.ErrPortExists,
	switchfab.ErrNoVC,
	switchfab.ErrVCExists,
	switchfab.ErrAdmission,
	switchfab.ErrCapacity,
	switchfab.ErrInvalidRate,
	ErrFrame,
	ErrVersion,
}

// TestWireCodesCoverSentinels checks every wire-crossing sentinel has its
// own non-generic code, and that no two codes alias under errors.Is (an
// aliased pair would make errCode's table scan order-dependent).
func TestWireCodesCoverSentinels(t *testing.T) {
	for _, sentinel := range wireCrossers {
		if code := errCode(sentinel); code == ErrCodeGeneric {
			t.Errorf("sentinel %v has no wire code; remote callers would lose its identity", sentinel)
		}
	}
	codes := make(map[uint8]bool)
	for code, sentinel := range wireSentinels {
		codes[code] = true
		matches := 0
		for _, other := range wireSentinels {
			if errors.Is(sentinel, other) {
				matches++
			}
		}
		if matches != 1 {
			t.Errorf("sentinel %v (code %d) matches %d table entries under errors.Is; must match exactly its own", sentinel, code, matches)
		}
	}
	if len(codes) != len(wireSentinels) {
		t.Fatalf("wireSentinels has %d entries but %d distinct codes", len(wireSentinels), len(codes))
	}
}

// TestWireErrorRoundTrip drives each sentinel through the full path a
// remote failure takes: errCode on the server, AppendErr / ParseFrame /
// DecodeErr across the wire, and remoteError on the client. The resulting
// error must satisfy errors.Is for both ErrRemote and the original
// sentinel — including when the server-side error wraps the sentinel.
func TestWireErrorRoundTrip(t *testing.T) {
	for code, sentinel := range wireSentinels {
		for _, serverErr := range []error{sentinel, fmt.Errorf("op failed: %w", sentinel)} {
			if got := errCode(serverErr); got != code {
				t.Errorf("errCode(%v) = %d, want %d", serverErr, got, code)
				continue
			}
			frame := AppendErr(nil, 7, code, serverErr.Error())
			f, err := ParseFrame(frame)
			if err != nil {
				t.Fatalf("ParseFrame(AppendErr(code %d)): %v", code, err)
			}
			if f.Type != TypeErr || f.ReqID != 7 {
				t.Fatalf("error frame decoded as type %d reqID %d", f.Type, f.ReqID)
			}
			clientErr := remoteError(f.Payload)
			if !errors.Is(clientErr, ErrRemote) {
				t.Errorf("code %d: client error %v does not match ErrRemote", code, clientErr)
			}
			if !errors.Is(clientErr, sentinel) {
				t.Errorf("code %d: client error %v does not match sentinel %v", code, clientErr, sentinel)
			}
		}
	}
}

// TestWireErrorUnknownCode checks forward compatibility: a code this build
// does not know decodes to a generic remote error instead of aliasing onto
// some other sentinel.
func TestWireErrorUnknownCode(t *testing.T) {
	frame := AppendErr(nil, 9, 0xEE, "from the future")
	f, err := ParseFrame(frame)
	if err != nil {
		t.Fatalf("ParseFrame: %v", err)
	}
	clientErr := remoteError(f.Payload)
	if !errors.Is(clientErr, ErrRemote) {
		t.Fatalf("unknown-code error %v must still match ErrRemote", clientErr)
	}
	for _, sentinel := range wireCrossers {
		if errors.Is(clientErr, sentinel) {
			t.Errorf("unknown code aliased onto sentinel %v", sentinel)
		}
	}
}
