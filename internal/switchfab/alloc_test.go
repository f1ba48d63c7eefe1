package switchfab_test

import (
	"testing"

	"rcbr/internal/cell"
	"rcbr/internal/datapath"
	"rcbr/internal/metrics"
	"rcbr/internal/switchfab"
)

// TestControlPathAllocsUnderMBAC pins what the control path allocates on a
// switch wired the way a live one is — memory admitter, forwarder behind
// WithDataPlane, registry — so a second per-call object or a boxed value on
// the renegotiation path fails a test instead of a benchmark.
//
// A renegotiation — all-or-nothing, best-effort or by RM cell — allocates
// nothing, with the admitter's Move and the forwarder's rate store in the
// path. One setup + teardown allocates
// exactly three objects: the switch's VC record, the admitter's call record
// with its dwell storage, and the forwarder's table entry. The churned id
// sits between resident neighbours, so both tables' pages exist already.
func TestControlPathAllocsUnderMBAC(t *testing.T) {
	levels := []float64{1e6, 2e6, 3e6, 4e6, 5e6, 6e6, 7e6}
	ad, err := switchfab.NewMemoryAdmitter(levels, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	fw := datapath.New(datapath.WithMetrics(reg))
	sw := switchfab.New(switchfab.WithAdmitter(ad), switchfab.WithDataPlane(fw), switchfab.WithMetrics(reg))
	const ports = 4
	for p := 0; p < ports; p++ {
		if _, err := fw.AddPort(p); err != nil {
			t.Fatal(err)
		}
		if err := sw.AddPort(p, 1e12); err != nil {
			t.Fatal(err)
		}
	}
	const resident = 64
	for i := 0; i < resident; i++ {
		if err := sw.SetupID(switchfab.VCID(2*i), i%ports, levels[0]); err != nil {
			t.Fatal(err)
		}
	}

	const id = switchfab.VCID(10)
	step := 0
	if n := testing.AllocsPerRun(1000, func() {
		step++
		if _, ok, err := sw.RenegotiateID(id, levels[step%len(levels)]); err != nil || !ok {
			t.Fatalf("renegotiate: ok=%v err=%v", ok, err)
		}
	}); n != 0 {
		t.Errorf("RenegotiateID allocates %v objects per call, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		step++
		if _, full, err := sw.RenegotiateBestID(id, levels[step%len(levels)]); err != nil || !full {
			t.Fatalf("renegotiate best: full=%v err=%v", full, err)
		}
	}); n != 0 {
		t.Errorf("RenegotiateBestID allocates %v objects per call, want 0", n)
	}
	h := cell.Header{VPI: id.VPI(), VCI: id.VCI()}
	if n := testing.AllocsPerRun(1000, func() {
		step++
		back, err := sw.HandleRM(h, cell.RM{Resync: true, ER: levels[step%len(levels)]})
		if err != nil || back.Deny {
			t.Fatalf("HandleRM: %+v err=%v", back, err)
		}
	}); n != 0 {
		t.Errorf("HandleRM allocates %v objects per call, want 0", n)
	}

	const churned = switchfab.VCID(11)
	if n := testing.AllocsPerRun(1000, func() {
		step++
		if err := sw.SetupID(churned, step%ports, levels[step%len(levels)]); err != nil {
			t.Fatal(err)
		}
		if err := sw.TeardownID(churned); err != nil {
			t.Fatal(err)
		}
	}); n != 3 {
		t.Errorf("SetupID + TeardownID allocates %v objects, want 3 (VC record, call record, forwarder entry)", n)
	}
	for p := 0; p < ports; p++ {
		if got, want := ad.PortCalls(p), resident/ports; got != want {
			t.Errorf("port %d: admitter tracks %d calls, want %d", p, got, want)
		}
	}
}
