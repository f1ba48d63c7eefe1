package datapath

import (
	"context"
	"runtime"
	"testing"
	"time"

	"rcbr/internal/switchfab"
)

// TestPortGroupAssignment checks the static partitioning: round-robin in
// AddPort order, whatever the port ids.
func TestPortGroupAssignment(t *testing.T) {
	f := New(WithPortGroups(3))
	for _, id := range []int{0, 1, 2, 3, 10, 11} {
		if _, err := f.AddPort(id); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct{ port, group int }{
		{0, 0}, {1, 1}, {2, 2}, {3, 0}, {10, 1}, {11, 2},
	} {
		if got := f.Port(tc.port).Group(); got != tc.group {
			t.Errorf("port %d in group %d, want %d", tc.port, got, tc.group)
		}
	}
}

// TestRunForwardsAcrossGroups starts a 4-group forwarder, injects from
// per-port producers while it runs, and checks every cell comes out of the
// egress rings — including cells whose egress port belongs to another
// group, which cross between goroutines through the egress port's ring
// for the producing group.
func TestRunForwardsAcrossGroups(t *testing.T) {
	const (
		ports   = 4
		perPort = 2000
	)
	// Rings sized to hold a full port's load: even if a consumer goroutine
	// is descheduled for the whole run, no egress ring ever fills,
	// so the exact-count assertion below cannot be defeated by overflow
	// drops (which are legitimate behavior, covered by the conservation
	// property test).
	f := New(WithPortGroups(4), withBurst(16), WithRingCells(perPort+64))
	pp := make([]*Port, ports)
	for i := range pp {
		p, err := f.AddPort(i)
		if err != nil {
			t.Fatal(err)
		}
		pp[i] = p
	}
	cells := make([]Cell, ports)
	for i := range cells {
		id := switchfab.MakeVCID(uint8(i), 500)
		// Egress on the next port: every forwarded cell crosses groups.
		if err := f.AddVC(id, (i+1)%ports, 1e12); err != nil {
			t.Fatal(err)
		}
		cells[i] = mkCell(t, id, uint64(i))
	}
	if err := f.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !f.Running() {
		t.Fatal("Running() false after Run")
	}
	if err := f.Run(context.Background()); err == nil {
		t.Fatal("second Run accepted while running")
	}
	done := make(chan struct{})
	for i := 0; i < ports; i++ {
		go func(i int) {
			for n := 0; n < perPort; {
				if f.Inject(pp[i], &cells[i]) {
					n++
				} else {
					runtime.Gosched()
				}
			}
			done <- struct{}{}
		}(i)
	}
	// Drain each egress ring from its own single consumer goroutine,
	// concurrently with the running group goroutines.
	var got [ports]int64
	for i := 0; i < ports; i++ {
		go func(i int) {
			deadline := time.Now().Add(30 * time.Second)
			for got[i] < perPort && time.Now().Before(deadline) {
				if n := f.Transmit(pp[i], 64); n == 0 {
					runtime.Gosched()
				} else {
					got[i] += int64(n)
				}
			}
			done <- struct{}{}
		}(i)
	}
	for i := 0; i < 2*ports; i++ {
		<-done
	}
	f.Stop()
	f.Stop() // idempotent
	if f.Running() {
		t.Fatal("Running() true after Stop")
	}
	for i := range got {
		// Port i's egress carries port i-1's cells.
		if got[i] != perPort {
			t.Fatalf("port %d transmitted %d cells, want %d", i, got[i], perPort)
		}
	}
	var arrived, forwarded int64
	for _, p := range pp {
		ps := p.Stats()
		arrived += ps.Arrived
		forwarded += ps.Forwarded
		if ps.Policed+ps.Overflow+ps.BadHeader+ps.Unroutable != 0 {
			t.Fatalf("unexpected drops: %+v", ps)
		}
	}
	if arrived != ports*perPort || forwarded != arrived {
		t.Fatalf("arrived %d forwarded %d, want %d each", arrived, forwarded, ports*perPort)
	}
}

// TestForwardPanicsWhileRunning pins the API misuse guard: the
// single-driver sweeps would add a second consumer to every ingress ring
// the group goroutines already own.
func TestForwardPanicsWhileRunning(t *testing.T) {
	f := New(WithPortGroups(2))
	if _, err := f.AddPort(1); err != nil {
		t.Fatal(err)
	}
	if err := f.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer f.Stop()
	for name, call := range map[string]func(){
		"Forward":      func() { f.Forward(0) },
		"ForwardGroup": func() { f.ForwardGroup(0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic while running", name)
				}
			}()
			call()
		}()
	}
}

// TestRunCtxCancelStopsGroups checks that context cancellation parks the
// goroutines and that Stop still restores single-driver mode afterwards.
func TestRunCtxCancelStopsGroups(t *testing.T) {
	f := New(WithPortGroups(2))
	in, err := f.AddPort(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.AddPort(2); err != nil {
		t.Fatal(err)
	}
	id := switchfab.VCID(9)
	if err := f.AddVC(id, 2, 1e12); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	if err := f.Run(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()
	f.Stop()
	// Single-driver mode works again: the same forwarder forwards.
	c := mkCell(t, id, 0)
	if !f.Inject(in, &c) {
		t.Fatal("inject refused")
	}
	if n := f.Forward(1); n != 1 {
		t.Fatalf("Forward after Stop processed %d cells, want 1", n)
	}
}

// TestRunManualClock drives a running forwarder on a virtual clock: with
// the clock parked, a 1-cell-deep zero-earning shaper polices the second
// cell; advancing the clock via SetNow lets the next cell conform — time
// belongs to the driver, work to the group goroutines.
func TestRunManualClock(t *testing.T) {
	f := New(WithManualClock(), WithDepthCells(1))
	in, err := f.AddPort(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.AddPort(2); err != nil {
		t.Fatal(err)
	}
	id := switchfab.VCID(3)
	// 1 cell/s: the initial depth passes one cell, then one more per
	// virtual second.
	if err := f.AddVC(id, 2, CellPayloadBits); err != nil {
		t.Fatal(err)
	}
	if err := f.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer f.Stop()
	c := mkCell(t, id, 0)
	waitSeen := func(want int64) VCStats {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			if vs, ok := f.VCStats(id); ok && vs.Seen >= want {
				return vs
			}
			runtime.Gosched()
		}
		vs, _ := f.VCStats(id)
		t.Fatalf("timed out waiting for %d cells seen: %+v", want, vs)
		return VCStats{}
	}
	f.Inject(in, &c)
	f.Inject(in, &c)
	if vs := waitSeen(2); vs.Forwarded != 1 || vs.Policed != 1 {
		t.Fatalf("with parked clock: %+v, want 1 forwarded / 1 policed", vs)
	}
	f.SetNow(1e9) // one virtual second earns exactly one cell
	f.Inject(in, &c)
	if vs := waitSeen(3); vs.Forwarded != 2 || vs.Policed != 1 {
		t.Fatalf("after SetNow(1s): %+v, want 2 forwarded / 1 policed", vs)
	}
}

// TestRunResumesFromVirtualTime: sweeps do not raise the forwarder's shared
// clock — each leaves its time on the ports it visited and Run folds those
// in before it anchors the wall clock — and this pins what that fold is
// for. A virtual hour of single-driver time empties a finite-rate VC's
// bucket; a Run started afterwards must count wall time from that hour, or
// the VC's clock would sit an hour ahead of the sweeps', earn nothing, and
// police every cell. The same must hold when a second Run follows the first.
func TestRunResumesFromVirtualTime(t *testing.T) {
	const depth = 4
	f := New(WithDepthCells(depth))
	in, err := f.AddPort(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.AddPort(2); err != nil {
		t.Fatal(err)
	}
	id := switchfab.VCID(3)
	// A cell per microsecond: a millisecond of wall time refills the bucket
	// hundreds of times over, an hour's deficit would take an hour.
	if err := f.AddVC(id, 2, 1e6*CellPayloadBits); err != nil {
		t.Fatal(err)
	}
	c := mkCell(t, id, 0)
	offer := func() {
		t.Helper()
		for i := 0; i < depth; i++ {
			if !f.Inject(in, &c) {
				t.Fatal("inject refused")
			}
		}
	}
	offer()
	if n := f.Forward(int64(time.Hour)); n != depth {
		t.Fatalf("Forward processed %d cells, want %d", n, depth)
	}
	want := int64(depth)
	for run, pause := range []time.Duration{time.Millisecond, 20 * time.Millisecond, time.Millisecond} {
		if err := f.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		// The pause refills the bucket; the second run is the long one, so a
		// third that restarted from where the second began would trail the
		// VC's clock by most of it.
		time.Sleep(pause)
		offer()
		want += depth
		deadline := time.Now().Add(30 * time.Second)
		for vs, _ := f.VCStats(id); vs.Seen < want && time.Now().Before(deadline); vs, _ = f.VCStats(id) {
			runtime.Gosched()
		}
		f.Stop()
		if vs, _ := f.VCStats(id); vs.Forwarded != want || vs.Policed != 0 {
			t.Fatalf("run %d: %+v, want %d forwarded and none policed", run, vs, want)
		}
	}
}
