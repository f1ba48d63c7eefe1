package datapath

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rcbr/internal/switchfab"
)

// TestStatsExactUnderTraffic holds the sweep lock's promise while cells
// flow: one goroutine injects onto three ingress ports, another sweeps, a
// third transmits, and the test reads. Every Port.Stats read closes its
// ingress ledger exactly — Arrived == Forwarded + the four drops + InQueued,
// no burst trailing — and every VCStats read is a whole one. The third
// port carries almost nothing but drops, so a reader that saw a burst's
// drops before its release would find them exceeding what the port
// released, a Forwarded below zero. VCs are
// removed mid-traffic, their later cells turning unroutable, and at every
// step a snapshot taken under the sweep lock finds that what the live VCs
// saw plus what RemoveVC returned for the removed ones is exactly what the
// ports forwarded, policed and overflowed. Quiescent, the same holds
// through the public calls alone.
func TestStatsExactUnderTraffic(t *testing.T) {
	const (
		burst      = 16
		ring       = 64
		vcsPerPort = 4
	)
	cellsPerPort := 5 * conservationCellsPerPort
	f := New(withBurst(burst), WithRingCells(ring), WithDepthCells(2))
	pp := make([]*Port, 4) // three ingress ports, then the egress port
	for i := range pp {
		p, err := f.AddPort(i)
		if err != nil {
			t.Fatal(err)
		}
		pp[i] = p
	}
	ingress, egress := pp[:3], pp[3]
	// Per ingress port: open and shut VCs alternating (forwarded or
	// overflowed, and policed past their depth) — on the third port one
	// shut VC alone — then a VC nobody set up and a cell whose HEC cannot
	// match.
	var ids []switchfab.VCID
	mixes := make([][]Cell, len(ingress))
	strangers := 0 // cells for the VC nobody set up
	for i := range ingress {
		for v := 0; v < vcsPerPort && (i < 2 || v < 1); v++ {
			id := switchfab.MakeVCID(uint8(i), uint16(100+v))
			rate := 1e12
			if v%2 == 1 || i == 2 {
				rate = 0
			}
			if err := f.AddVC(id, egress.ID(), rate); err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
			mixes[i] = append(mixes[i], mkCell(t, id, 0))
		}
		bad := mkCell(t, switchfab.MakeVCID(uint8(i), 100), 0)
		bad[4] ^= 0xFF
		mixes[i] = append(mixes[i], mkCell(t, switchfab.MakeVCID(uint8(i), 999), 0), bad)
		for n := len(mixes[i]) - 2; n < cellsPerPort; n += len(mixes[i]) {
			strangers++
		}
	}

	// One VC of each port's pair, open and shut, leaves at a third and at
	// two thirds of the way; the producer waits at each mark until they
	// have left, so the VCs have cells after their removal, and the sweep
	// may still hold some from before it.
	marks := []int{cellsPerPort / 3, cellsPerPort * 2 / 3}
	leaving := [][]switchfab.VCID{{ids[0], ids[vcsPerPort+1]}, {ids[1], ids[vcsPerPort]}}
	var left atomic.Int32 // marks whose VCs have left

	stopForwarding := forwardInBackground(f)
	var produced atomic.Bool
	go func() {
		defer produced.Store(true)
		for n := 0; n < cellsPerPort; n++ {
			for k, mark := range marks {
				for n == mark && int(left.Load()) <= k {
					runtime.Gosched()
				}
			}
			for i, p := range ingress {
				for !f.Inject(p, &mixes[i][n%len(mixes[i])]) {
					runtime.Gosched()
				}
			}
		}
	}()
	quit := make(chan struct{})
	var txWG sync.WaitGroup
	txWG.Add(1)
	go func() {
		defer txWG.Done()
		for {
			select {
			case <-quit:
				return
			default:
			}
			if f.Transmit(egress, 8) == 0 {
				runtime.Gosched()
			}
		}
	}()

	var removed int64 // what RemoveVC returned, summed
	live := map[switchfab.VCID]bool{}
	for _, id := range ids {
		live[id] = true
	}
	remove := func(id switchfab.VCID) {
		vs, err := f.RemoveVC(id)
		if err != nil {
			t.Fatal(err)
		}
		if vs.Seen != vs.Forwarded+vs.Policed+vs.Overflow {
			t.Fatalf("RemoveVC(%s) = %+v: Seen is not the sum", id, vs)
		}
		removed += vs.Seen
		delete(live, id)
	}
	ledgerCloses := func(read int) {
		t.Helper()
		for i, p := range ingress {
			s := p.Stats()
			if sum := s.Forwarded + s.BadHeader + s.Unroutable + s.Policed + s.Overflow + int64(s.InQueued); sum != s.Arrived || s.InQueued < 0 || s.InQueued > ring {
				t.Fatalf("read %d port %d: %+v: Forwarded + drops + InQueued = %d, Arrived %d", read, i, s, sum, s.Arrived)
			}
		}
		for id := range live {
			if vs, ok := f.VCStats(id); !ok || vs.Seen != vs.Forwarded+vs.Policed+vs.Overflow {
				t.Fatalf("read %d: VCStats(%s) = %+v, %v", read, id, vs, ok)
			}
		}
	}
	// seenMatchesPorts compares the VCs' counts with the ports' under one
	// hold of the sweep lock, so between two sweeps.
	seenMatchesPorts := func(read int) {
		t.Helper()
		f.sweep.Lock()
		defer f.sweep.Unlock()
		var ports, vcs int64
		for _, p := range ingress {
			s := p.stats()
			ports += s.Forwarded + s.Policed + s.Overflow
		}
		for id := range live {
			e := f.vcs.Get(uint32(id))
			vcs += e.forwarded + e.policed + e.overflow
		}
		if vcs+removed != ports {
			t.Fatalf("read %d: live VCs saw %d and removed ones %d, the ports forwarded, policed and overflowed %d",
				read, vcs, removed, ports)
		}
	}
	reads := 0
	for done := false; !done; reads++ {
		finished := produced.Load()
		ledgerCloses(reads)
		seenMatchesPorts(reads)
		if k := int(left.Load()); k < len(marks) && ingress[0].Stats().Arrived >= int64(marks[k]) {
			for _, id := range leaving[k] {
				remove(id)
			}
			left.Add(1)
		}
		done = finished
		for _, p := range ingress {
			done = done && p.InLen() == 0
		}
	}
	stopForwarding()
	close(quit)
	txWG.Wait()
	drain(f, pp, 1<<50, 1e6)

	ledgerCloses(reads)
	var ports, unroutable int64
	for i, p := range ingress {
		s := p.Stats()
		if s.Arrived != int64(cellsPerPort) || s.InQueued != 0 {
			t.Errorf("port %d after the drain: %+v, want %d arrived and none queued", i, s, cellsPerPort)
		}
		ports += s.Forwarded + s.Policed + s.Overflow
		unroutable += s.Unroutable
	}
	seen := removed
	for id := range live {
		vs, _ := f.VCStats(id)
		seen += vs.Seen
	}
	if seen != ports {
		t.Errorf("VCs saw %d cells (%d of them removed VCs'), the ports forwarded, policed and overflowed %d", seen, removed, ports)
	}
	if unroutable <= int64(strangers) {
		t.Errorf("%d unroutable cells: no removed VC's cell among them (%d were for a VC nobody set up)", unroutable, strangers)
	}
	t.Logf("%d reads, %d cells seen by VCs removed mid-traffic", reads, removed)
}

// TestRemoveVCReturnsFinalCounts removes a port's only VC while its cells
// flow, many times over. A sweep that found the VC before the unpublish
// finishes its burst under the sweep lock, and RemoveVC reads the counts
// under that lock too, so what it returns is final: after quiescence the
// port's forwarded, policed and overflowed cells are exactly the VC's Seen,
// and every later cell is unroutable.
func TestRemoveVCReturnsFinalCounts(t *testing.T) {
	cells := conservationCellsPerPort / 2
	trials := 20 * conservationQuickRuns
	id := switchfab.MakeVCID(1, 42)
	c := mkCell(t, id, 0)
	for trial := 0; trial < trials; trial++ {
		f := New(withBurst(16), WithRingCells(64), WithDepthCells(8))
		in, err := f.AddPort(0)
		if err != nil {
			t.Fatal(err)
		}
		out, err := f.AddPort(1)
		if err != nil {
			t.Fatal(err)
		}
		// A rate of 2e9 bits/s earns a cell every 192 ns of the sweep's wall
		// clock: some cells conform, some are policed, and with nobody
		// transmitting the egress ring fills and overflows.
		if err := f.AddVC(id, 1, 2e9); err != nil {
			t.Fatal(err)
		}
		stop := forwardInBackground(f)
		var produced atomic.Bool
		go func() {
			defer produced.Store(true)
			for n := 0; n < cells; {
				if f.Inject(in, &c) {
					n++
				} else {
					runtime.Gosched()
				}
			}
		}()
		for in.Stats().Arrived < int64(cells/2) {
			runtime.Gosched()
		}
		vs, err := f.RemoveVC(id)
		if err != nil {
			t.Fatal(err)
		}
		for !produced.Load() {
			runtime.Gosched()
		}
		stop()
		drain(f, []*Port{in}, 1<<50, 1e6)
		s := in.Stats()
		if got := s.Forwarded + s.Policed + s.Overflow; got != vs.Seen || s.Unroutable != s.Arrived-vs.Seen || s.BadHeader != 0 {
			t.Fatalf("trial %d: RemoveVC returned %+v, the port then read %+v: %d cells shaped on the VC, %d unroutable",
				trial, vs, s, got, s.Unroutable)
		}
		if o := out.Stats(); o.Enqueued != s.Forwarded {
			t.Fatalf("trial %d: port forwarded %d, egress ring took %d", trial, s.Forwarded, o.Enqueued)
		}
	}
}

// TestSweepLockSparesIdleSweepsAndTeardowns holds the sweep lock in-package
// and requires two things to finish anyway: a sweep over ports with no
// cells, which takes no lock — a slot-driven relay polls empty hops — and a
// switch teardown, whose OnTeardown only unpublishes the entry, so a
// teardown never waits on a sweep.
func TestSweepLockSparesIdleSweepsAndTeardowns(t *testing.T) {
	f := New()
	sw := switchfab.New(switchfab.WithDataPlane(f))
	for id := 0; id < 2; id++ {
		if _, err := f.AddPort(id); err != nil {
			t.Fatal(err)
		}
		if err := sw.AddPort(id, 1e9); err != nil {
			t.Fatal(err)
		}
	}
	id := switchfab.MakeVCID(0, 7)
	if err := sw.SetupID(id, 1, 1e6); err != nil {
		t.Fatal(err)
	}
	f.sweep.Lock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		if n := f.Forward(1); n != 0 {
			t.Errorf("an idle sweep processed %d cells", n)
		}
		if err := sw.TeardownID(id); err != nil {
			t.Error(err)
		}
	}()
	select {
	case <-done:
		f.sweep.Unlock()
	case <-time.After(10 * time.Second):
		f.sweep.Unlock()
		t.Fatal("an idle sweep or a teardown waited on the sweep lock")
	}
	if f.VCCount() != 0 || sw.VCCount() != 0 {
		t.Errorf("after the teardown: %d forwarder VCs, %d switch VCs", f.VCCount(), sw.VCCount())
	}
}
