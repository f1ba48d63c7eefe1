package datapath

import (
	"testing"

	"rcbr/internal/metrics"
	"rcbr/internal/switchfab"
)

// TestDataPlaneMirrorsSwitchLifecycle wires a Forwarder into a real switch
// via WithDataPlane and drives the control plane only through the switch:
// setup routes, a granted renegotiation retargets the shaper, a denied one
// does not, and teardown unroutes.
func TestDataPlaneMirrorsSwitchLifecycle(t *testing.T) {
	f := New(WithDepthCells(1))
	in, _ := f.AddPort(1)
	f.AddPort(2)
	sw := switchfab.New(switchfab.WithDataPlane(f))
	sw.AddPort(2, 1000*CellPayloadBits)

	id := switchfab.MakeVCID(0, 42)
	if err := sw.SetupID(id, 2, 2*CellPayloadBits); err != nil {
		t.Fatal(err)
	}
	vs, ok := f.VCStats(id)
	if !ok || vs.Rate != 2*CellPayloadBits {
		t.Fatalf("setup not mirrored: %+v ok=%v", vs, ok)
	}

	// A granted renegotiation retargets the data-path shaper atomically.
	granted, ok, err := sw.RenegotiateID(id, 700*CellPayloadBits)
	if err != nil || !ok {
		t.Fatalf("renegotiate: %g %v %v", granted, ok, err)
	}
	if vs, _ = f.VCStats(id); vs.Rate != 700*CellPayloadBits {
		t.Fatalf("grant not mirrored: rate %g", vs.Rate)
	}

	// A denied renegotiation (over capacity) leaves the shaper alone.
	if _, ok, err := sw.RenegotiateID(id, 2000*CellPayloadBits); err != nil || ok {
		t.Fatalf("over-capacity renegotiation not denied: ok=%v err=%v", ok, err)
	}
	if vs, _ = f.VCStats(id); vs.Rate != 700*CellPayloadBits {
		t.Fatalf("denial leaked into the data path: rate %g", vs.Rate)
	}

	// The mirrored rate actually polices: 1-cell depth, then ~700 cells/s.
	c := mkCell(t, id, 0)
	f.Inject(in, &c)
	f.Inject(in, &c)
	f.Forward(0)
	if vs, _ = f.VCStats(id); vs.Forwarded != 1 || vs.Policed != 1 {
		t.Fatalf("shaping under mirrored rate: %+v", vs)
	}

	if err := sw.TeardownID(id); err != nil {
		t.Fatal(err)
	}
	if _, ok := f.VCStats(id); ok {
		t.Fatal("teardown not mirrored")
	}
	// Cells for the departed VC are now unroutable, not crashes.
	f.Inject(in, &c)
	f.Forward(1e9)
	if ps := in.Stats(); ps.Unroutable != 1 {
		t.Fatalf("post-teardown cell: %+v", ps)
	}
}

// TestDataPlaneMissesCount verifies the hooks degrade to counters, not
// errors, when the data plane lags the control plane (unknown port or VC).
func TestDataPlaneMissesCount(t *testing.T) {
	reg := metrics.NewRegistry()
	f := New(WithMetrics(reg))
	sw := switchfab.New(switchfab.WithDataPlane(f))
	sw.AddPort(5, 1e9) // port 5 exists on the switch, not in the data path

	if err := sw.SetupID(switchfab.VCID(1), 5, 100); err != nil {
		t.Fatal(err)
	}
	f.OnRateChange(5, switchfab.VCID(99), 100)
	f.OnTeardown(5, switchfab.VCID(99))
	if got := reg.Snapshot().Counters[MetricVCMisses]; got != 3 {
		t.Fatalf("vc_misses = %d, want 3", got)
	}
}

// TestWideVCIDRefusedBeforeTheBooks is the regression test for a VCID wider
// than 24 bits: the switch used to admit it and reserve its rate while the
// forwarder refused it, leaving a reservation no cell or RM header could
// ever address (and listing it under the id its low 24 bits spell). Both
// planes index one table type now, so setup refuses it first.
func TestWideVCIDRefusedBeforeTheBooks(t *testing.T) {
	reg := metrics.NewRegistry()
	f := New(WithMetrics(reg))
	f.AddPort(1)
	sw := switchfab.New(switchfab.WithDataPlane(f))
	sw.AddPort(1, 10e6)

	err := sw.SetupID(switchfab.VCID(1<<24|7), 1, 4e6)
	if err == nil || switchfab.IsReject(err) {
		t.Fatalf("SetupID(1<<24|7) = %v, want a plain error", err)
	}
	if reserved, _, _ := sw.PortLoad(1); reserved != 0 {
		t.Errorf("port reserved %g for a VC that was refused", reserved)
	}
	if sw.VCCount() != 0 || f.VCCount() != 0 || len(sw.VCs()) != 0 {
		t.Errorf("switch holds %d VCs (lists %d), forwarder %d; want none", sw.VCCount(), len(sw.VCs()), f.VCCount())
	}
	if got := reg.Snapshot().Counters[MetricVCMisses]; got != 0 {
		t.Errorf("vc_misses = %d: the refused setup reached the data plane", got)
	}
	// The id its low 24 bits spell is still free.
	if err := sw.SetupID(switchfab.MakeVCID(0, 7), 1, 4e6); err != nil {
		t.Fatal(err)
	}
}
