package switchfab

import (
	"errors"
	"testing"

	"rcbr/internal/cell"
)

func TestVCIDPacking(t *testing.T) {
	cases := []struct {
		vpi uint8
		vci uint16
	}{
		{0, 0}, {0, 1}, {0, 65535}, {1, 0}, {7, 42}, {255, 65535},
	}
	for _, c := range cases {
		id := MakeVCID(c.vpi, c.vci)
		if id.VPI() != c.vpi || id.VCI() != c.vci {
			t.Errorf("MakeVCID(%d,%d) round-trips as (%d,%d)", c.vpi, c.vci, id.VPI(), id.VCI())
		}
	}
	if got := MakeVCID(0, 42).String(); got != "42" {
		t.Errorf("VPI-0 String() = %q, want 42", got)
	}
	if got := MakeVCID(3, 42).String(); got != "3.42" {
		t.Errorf("String() = %q, want 3.42", got)
	}
}

// TestVPIAddressing proves the fabric scales past the 16-bit VCI space: VCs
// on distinct VPIs with the same VCI are independent circuits, and HandleRM
// honors the header's VPI.
func TestVPIAddressing(t *testing.T) {
	s := New()
	if err := s.AddPort(1, 10e6); err != nil {
		t.Fatal(err)
	}
	if err := s.SetupID(MakeVCID(0, 7), 1, 1e6); err != nil {
		t.Fatal(err)
	}
	if err := s.SetupID(MakeVCID(5, 7), 1, 2e6); err != nil {
		t.Fatalf("same VCI on another VPI must be a distinct circuit: %v", err)
	}
	if err := s.SetupID(MakeVCID(5, 7), 1, 2e6); !errors.Is(err, ErrVCExists) {
		t.Fatalf("duplicate (5,7) setup: %v", err)
	}
	m, err := s.HandleRM(cell.Header{VPI: 5, VCI: 7}, cell.RM{Resync: true, ER: 3e6})
	if err != nil || m.Deny {
		t.Fatalf("resync on (5,7): %v deny=%v", err, m.Deny)
	}
	if r, _ := s.VCRateID(MakeVCID(5, 7)); r != 3e6 {
		t.Errorf("(5,7) rate = %g, want 3e6", r)
	}
	if r, _ := s.VCRateID(MakeVCID(0, 7)); r != 1e6 {
		t.Errorf("(0,7) rate = %g after renegotiating (5,7), want untouched 1e6", r)
	}
	if err := s.TeardownID(MakeVCID(0, 7)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.VCRateID(MakeVCID(0, 7)); !errors.Is(err, ErrNoVC) {
		t.Fatalf("(0,7) after teardown: %v", err)
	}
	if r, _ := s.VCRateID(MakeVCID(5, 7)); r != 3e6 {
		t.Errorf("(5,7) rate = %g after tearing down (0,7), want 3e6", r)
	}
}
