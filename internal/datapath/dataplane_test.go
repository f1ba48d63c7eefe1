package datapath

import (
	"errors"
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

// TestDataPlaneMissesCount holds the data plane's refusals and misses to
// their two outcomes. A setup on a switch port the forwarder lacks used to be
// reserved anyway — the port held its rate forever and every cell of the VC
// was unroutable — and is refused now: a plain error, not a reject, and
// nothing of it stays: no entry on either side, the port's reservation
// exactly 0, no admitter record, not a miss. The misses that remain are
// direct calls naming no VC; a switch-driven rate change cannot miss, since
// it stores through the word the setup handed over.
func TestDataPlaneMissesCount(t *testing.T) {
	reg := metrics.NewRegistry()
	f := New(WithMetrics(reg))
	ad, err := switchfab.NewMemoryAdmitter([]float64{100, 200}, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	sw := switchfab.New(switchfab.WithDataPlane(f), switchfab.WithAdmitter(ad))
	sw.AddPort(5, 1e9) // port 5 exists on the switch, not in the data path

	err = sw.SetupID(switchfab.VCID(1), 5, 100)
	if err == nil || switchfab.IsReject(err) {
		t.Fatalf("SetupID on a port the data plane lacks = %v, want a plain error", err)
	}
	if reserved, _, _ := sw.PortLoad(5); reserved != 0 {
		t.Errorf("port reserved %g for a VC the data plane refused", reserved)
	}
	if sw.VCCount() != 0 || f.VCCount() != 0 || len(sw.VCs()) != 0 {
		t.Errorf("switch holds %d VCs (lists %d), forwarder %d; want none", sw.VCCount(), len(sw.VCs()), f.VCCount())
	}
	if got := ad.PortCalls(5); got != 0 {
		t.Errorf("admitter tracks %d calls on port 5, want 0", got)
	}
	if st := sw.Stats(); st.Setups != 0 || st.SetupRejects != 0 {
		t.Errorf("refused setup counted: %+v", st)
	}
	if _, _, err := sw.RenegotiateID(1, 200); !errors.Is(err, switchfab.ErrNoVC) {
		t.Errorf("renegotiating the refused VC: %v, want ErrNoVC", err)
	}
	if got := reg.Snapshot().Counters[MetricVCMisses]; got != 0 {
		t.Errorf("vc_misses = %d after a refused setup, want 0", got)
	}
	// Once the forwarder has the port, the id sets up like any other.
	if _, err := f.AddPort(5); err != nil {
		t.Fatal(err)
	}
	if err := sw.SetupID(1, 5, 100); err != nil {
		t.Fatal(err)
	}

	if err := f.SetVCRate(switchfab.VCID(99), 100); err == nil {
		t.Error("SetVCRate of an unknown VC succeeded")
	}
	if _, err := f.RemoveVC(switchfab.VCID(99)); err == nil {
		t.Error("RemoveVC of an unknown VC succeeded")
	}
	if got := reg.Snapshot().Counters[MetricVCMisses]; got != 2 {
		t.Fatalf("vc_misses = %d, want 2", got)
	}
}

// TestRateChangeStoresThroughTheSetupWord holds a renegotiation to one
// table walk, the switch's own: a granted rate is stored into the word
// OnSetup handed over, and the forwarder's table is never searched for the
// VC again. So once the entry is removed and re-added behind the switch's
// back, a renegotiation moves the retired word and leaves the new entry at
// the rate it was added at.
func TestRateChangeStoresThroughTheSetupWord(t *testing.T) {
	f := New()
	f.AddPort(1)
	sw := switchfab.New(switchfab.WithDataPlane(f))
	sw.AddPort(1, 1e9)
	id := switchfab.VCID(9)
	if err := sw.SetupID(id, 1, 1e3); err != nil {
		t.Fatal(err)
	}
	if _, err := f.RemoveVC(id); err != nil {
		t.Fatal(err)
	}
	if err := f.AddVC(id, 1, 5e3); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := sw.RenegotiateID(id, 2e3); err != nil || !ok {
		t.Fatalf("renegotiate: ok=%v err=%v", ok, err)
	}
	if vs, _ := f.VCStats(id); vs.Rate != 5e3 {
		t.Fatalf("the re-added entry holds %g, want 5e3: the rate change looked the VC up in the forwarder's table", vs.Rate)
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
