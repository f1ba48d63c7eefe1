package datapath

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"rcbr/internal/switchfab"
)

// TestConservationAcrossProcs is the concurrent conservation property: for
// random rate mixes, every injected cell is accounted for exactly once —
// injected == transmitted + dropped + in-flight, with in-flight exactly zero
// after the drain — whatever the parallelism. GOMAXPROCS 1/2/4 checks the
// same invariant with goroutines that truly interleave and with goroutines
// multiplexed on one core; `make race` runs it under the race detector at
// GOMAXPROCS=4 (race-gated counts in norace_test.go / race_test.go).
func TestConservationAcrossProcs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			runtime.GOMAXPROCS(procs)
			prop := func(seed uint64) bool {
				return conservationHolds(t, seed)
			}
			cfg := &quick.Config{
				MaxCount: conservationQuickRuns,
				Rand:     rand.New(rand.NewSource(int64(procs))),
			}
			if err := quick.Check(prop, cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// conservationHolds runs one storm: a forwarding goroutine, one producer
// per ingress port, a control-plane goroutine retargeting rates, then a
// drain once the forwarding goroutine has stopped. Rates are drawn from seed
// (zero, trickle, and effectively-unlimited VCs mixed), so cells split
// across policed / overflow / forwarded unpredictably — the ledgers must
// balance exactly regardless.
func conservationHolds(t *testing.T, seed uint64) bool {
	t.Helper()
	const (
		ports      = 8
		vcsPerPort = 4
	)
	rng := rand.New(rand.NewSource(int64(seed)))
	f := New(WithRingCells(64), withBurst(16), WithDepthCells(2))
	pp := make([]*Port, ports)
	for i := range pp {
		p, err := f.AddPort(i)
		if err != nil {
			t.Fatal(err)
		}
		pp[i] = p
	}
	var ids []switchfab.VCID
	for i := 0; i < ports; i++ {
		for v := 0; v < vcsPerPort; v++ {
			id := switchfab.MakeVCID(uint8(i), uint16(2000+v))
			var rate float64
			switch rng.Intn(3) {
			case 0: // zero: polices everything after the initial depth
			case 1:
				rate = float64(1+rng.Intn(500)) * CellPayloadBits
			case 2:
				rate = 1e12
			}
			if err := f.AddVC(id, rng.Intn(ports), rate); err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
	}
	stopForwarding := forwardInBackground(f)

	var injected, refused atomic.Int64
	var prodWG sync.WaitGroup
	for i := 0; i < ports; i++ {
		prodWG.Add(1)
		go func(i int, r uint64) {
			defer prodWG.Done()
			cells := make([]Cell, vcsPerPort)
			for v := range cells {
				cells[v] = mkCell(t, switchfab.MakeVCID(uint8(i), uint16(2000+v)), r)
			}
			for n := 0; n < conservationCellsPerPort; n++ {
				r = r*6364136223846793005 + 1
				injected.Add(1)
				if !f.Inject(pp[i], &cells[r%vcsPerPort]) {
					refused.Add(1)
					runtime.Gosched()
				}
			}
		}(i, seed+uint64(i))
	}
	stop := make(chan struct{})
	var ctlWG sync.WaitGroup
	ctlWG.Add(1)
	go func() {
		defer ctlWG.Done()
		r := seed | 1
		for {
			select {
			case <-stop:
				return
			default:
			}
			r = r*6364136223846793005 + 1
			f.SetVCRate(ids[r%uint64(len(ids))], float64(r%1000)*CellPayloadBits)
			runtime.Gosched()
		}
	}()
	prodWG.Wait()
	close(stop)
	ctlWG.Wait()
	stopForwarding()

	// Drain far in the future, so every earning VC earns.
	now := int64(1) << 50
	for idle := 0; idle < 3; now += 1e6 {
		moved := f.Forward(now)
		for _, p := range pp {
			moved += f.Transmit(p, 64)
		}
		if moved == 0 {
			idle++
		} else {
			idle = 0
		}
	}

	ok := true
	fail := func(format string, args ...any) {
		t.Errorf("seed %d: "+format, append([]any{seed}, args...)...)
		ok = false
	}
	var arrived, sunk, transmitted, enqueued, dropped int64
	for i, p := range pp {
		ps := p.Stats()
		if ps.InQueued != 0 || ps.OutQueued != 0 {
			fail("port %d not drained: %+v", i, ps)
		}
		if got := ps.BadHeader + ps.Unroutable + ps.Policed + ps.Overflow + ps.Forwarded; got != ps.Arrived {
			fail("port %d ingress ledger: %+v (sum %d)", i, ps, got)
		}
		if ps.Enqueued != ps.Transmitted {
			fail("port %d egress ledger: %+v", i, ps)
		}
		arrived += ps.Arrived
		sunk += ps.Forwarded
		dropped += ps.BadHeader + ps.Unroutable + ps.Policed + ps.Overflow
		transmitted += ps.Transmitted
		enqueued += ps.Enqueued
	}
	var vcSeen int64
	for _, id := range ids {
		vs, found := f.VCStats(id)
		if !found {
			fail("vc %s vanished", id)
			continue
		}
		if vs.Seen != vs.Forwarded+vs.Policed+vs.Overflow {
			fail("vc %s ledger: %+v", id, vs)
		}
		vcSeen += vs.Seen
	}
	// The property of the ISSUE, globally: injected == transmitted +
	// dropped + in-flight, with in-flight == 0 once drained. Drops split
	// into inject-refused (ring full at the wire) and in-switch drops.
	if injected.Load() != int64(ports*conservationCellsPerPort) {
		fail("injected %d, want %d", injected.Load(), ports*conservationCellsPerPort)
	}
	if arrived != injected.Load()-refused.Load() {
		fail("arrived %d != injected %d - refused %d", arrived, injected.Load(), refused.Load())
	}
	if sunk != enqueued || enqueued != transmitted {
		fail("forwarded %d / enqueued %d / transmitted %d diverge", sunk, enqueued, transmitted)
	}
	if got := transmitted + dropped + refused.Load(); got != injected.Load() {
		fail("conservation: transmitted %d + dropped %d + refused %d = %d != injected %d",
			transmitted, dropped, refused.Load(), got, injected.Load())
	}
	if vcSeen != arrived {
		fail("vc seen %d != arrived %d (every cell was routable)", vcSeen, arrived)
	}
	return ok
}

// TestPortStatsConservationByConstruction: a port keeps no forwarded count;
// Stats derives it from the ingress ring's release cursor and the drop
// counts, under the sweep lock. Snapshots taken while a forwarding goroutine
// forwards a mix of conforming, policed, overflowing and unroutable cells
// pin what a live reader may rely on: Forwarded is what the sweeps so far
// have put on the egress ring — never ahead of it, never behind — and the
// queue depth stays inside the ring. Quiescent, every count is exact.
func TestPortStatsConservationByConstruction(t *testing.T) {
	const (
		burst = 16
		ring  = 64
		cells = 40_000
	)
	f := New(withBurst(burst), WithRingCells(ring), WithDepthCells(2))
	in, err := f.AddPort(0)
	if err != nil {
		t.Fatal(err)
	}
	out, err := f.AddPort(1)
	if err != nil {
		t.Fatal(err)
	}
	// One VC of each fate; a burst on one clock reading outruns the open VC's
	// two-cell bucket too, and nobody transmits, so it overflows the egress
	// ring once that holds 64 cells.
	open, shut, unknown := switchfab.VCID(1), switchfab.VCID(2), switchfab.VCID(3)
	if err := f.AddVC(open, 1, 1e12); err != nil {
		t.Fatal(err)
	}
	if err := f.AddVC(shut, 1, 0); err != nil {
		t.Fatal(err)
	}
	mix := []Cell{mkCell(t, open, 0), mkCell(t, shut, 0), mkCell(t, unknown, 0)}
	defer forwardInBackground(f)()
	var produced atomic.Bool
	go func() {
		defer produced.Store(true)
		for n := 0; n < cells; {
			if f.Inject(in, &mix[n%len(mix)]) {
				n++
			} else {
				runtime.Gosched()
			}
		}
	}()
	snapshots := 0
	for done := false; !done; snapshots++ {
		// Read the flag first: the snapshot after the producer finished and
		// the ring emptied is the last one, and must be exact.
		finished := produced.Load()
		before := out.Stats().Enqueued
		s := in.Stats()
		after := out.Stats().Enqueued
		if s.Forwarded > after || s.Forwarded < before || s.InQueued < 0 || s.InQueued > ring {
			t.Fatalf("snapshot %d: %+v with %d..%d cells on the egress ring", snapshots, s, before, after)
		}
		done = finished && s.InQueued == 0
		if done {
			vo, _ := f.VCStats(open)
			vs, _ := f.VCStats(shut) // its bucket starts full: it forwards its depth
			drops := s.BadHeader + s.Unroutable + s.Policed + s.Overflow
			if s.Arrived != cells || s.Forwarded != cells-drops || s.Forwarded != vo.Forwarded+vs.Forwarded || s.Forwarded != after {
				t.Fatalf("quiescent snapshot %+v, VCs %+v %+v: want %d arrived and one forwarded count", s, vo, vs, cells)
			}
		}
	}
	t.Logf("%d snapshots", snapshots)
}

// TestConservationUnderOverload is overload, exactly (the data plane's half
// of the overload rule: bounded, counted loss, never stuck state): loss is
// bounded by the rings and every lost cell is counted where it was lost.
// Each of two ingress ports is offered twice its ring with no sweep
// running — the ring's capacity is accepted, the rest refused at the wire;
// then one sweep carries both full rings, twice the egress FIFO, onto one
// egress port — the first ingress port's cells fill it, every cell of the
// second overflows, and each VC's share is known in advance.
// After the drain the ledgers close and every ring is empty, and once the
// switch in front (the forwarder is its data plane) has torn the VCs down,
// the port has exactly nothing reserved.
func TestConservationUnderOverload(t *testing.T) {
	for _, tc := range []struct {
		name                  string
		ringCells, vcsPerPort int
	}{
		{"ring 8, one VC a port", 8, 1},
		{"ring 64, four VCs a port", 64, 4},
		{"ring 100 rounds to 128, three VCs a port", 100, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			capacity := NewRing(tc.ringCells).Capacity()
			// One sweep takes a whole ring, and no bucket runs dry.
			f := New(WithRingCells(tc.ringCells), withBurst(capacity), WithDepthCells(capacity))
			sw := switchfab.New(switchfab.WithDataPlane(f))
			// Added in0, out, in1: a sweep visits ports in add order, so in0
			// is swept first.
			const in0, out, in1 = 0, 1, 2
			pp := make([]*Port, 3)
			for id := range pp {
				p, err := f.AddPort(id)
				if err != nil {
					t.Fatal(err)
				}
				pp[id] = p
				if err := sw.AddPort(id, 1e9); err != nil {
					t.Fatal(err)
				}
			}
			vcID := func(port, v int) switchfab.VCID { return switchfab.MakeVCID(uint8(port), uint16(100+v)) }
			accepted := make(map[switchfab.VCID]int64)
			for _, port := range []int{in0, in1} {
				cells := make([]Cell, tc.vcsPerPort)
				for v := range cells {
					if err := sw.SetupID(vcID(port, v), out, float64(v+1)*1e6); err != nil {
						t.Fatal(err)
					}
					cells[v] = mkCell(t, vcID(port, v), 0)
				}
				offered, refused := 2*capacity, 0
				for n := 0; n < offered; n++ {
					if f.Inject(pp[port], &cells[n%len(cells)]) {
						accepted[vcID(port, n%len(cells))]++
					} else {
						refused++
					}
				}
				if refused != offered-capacity {
					t.Fatalf("port %d refused %d of %d offered, want offered - capacity = %d", port, refused, offered, offered-capacity)
				}
			}

			if n := f.Forward(0); n != 2*capacity {
				t.Fatalf("the sweep processed %d cells, want both full rings, %d", n, 2*capacity)
			}
			for _, port := range []int{in0, in1} {
				ps := pp[port].Stats()
				want := PortStats{Arrived: int64(capacity), Forwarded: int64(capacity)}
				if port == in1 {
					want = PortStats{Arrived: int64(capacity), Overflow: int64(capacity)}
				}
				if ps != want {
					t.Errorf("port %d after the sweep: %+v, want %+v", port, ps, want)
				}
				for v := 0; v < tc.vcsPerPort; v++ {
					vs, _ := f.VCStats(vcID(port, v))
					n := accepted[vcID(port, v)]
					wantVC := VCStats{Rate: vs.Rate, Seen: n, Forwarded: n}
					if port == in1 {
						wantVC = VCStats{Rate: vs.Rate, Seen: n, Overflow: n}
					}
					if vs != wantVC {
						t.Errorf("vc %s after the sweep: %+v, want %+v", vcID(port, v), vs, wantVC)
					}
				}
			}
			if ps := pp[out].Stats(); ps.Enqueued != int64(capacity) || ps.OutQueued != capacity {
				t.Errorf("egress port holds %+v, want its FIFO full at %d", ps, capacity)
			}

			for f.Forward(1)+f.Transmit(pp[out], capacity) > 0 {
			}
			var forwarded, transmitted int64
			for id, p := range pp {
				ps := p.Stats()
				if ps.InQueued != 0 || ps.OutQueued != 0 {
					t.Errorf("port %d not drained: %+v", id, ps)
				}
				if ps.Arrived != ps.Forwarded+ps.Policed+ps.Overflow+ps.Unroutable+ps.BadHeader {
					t.Errorf("port %d ledger does not close: %+v", id, ps)
				}
				forwarded += ps.Forwarded
				transmitted += ps.Transmitted
			}
			if transmitted != forwarded || transmitted != int64(capacity) {
				t.Errorf("transmitted %d, forwarded %d, want both %d", transmitted, forwarded, capacity)
			}

			for _, port := range []int{in1, in0} {
				for v := 0; v < tc.vcsPerPort; v++ {
					if err := sw.TeardownID(vcID(port, v)); err != nil {
						t.Fatal(err)
					}
				}
			}
			if reserved, _, err := sw.PortLoad(out); err != nil || reserved != 0 {
				t.Errorf("PortLoad after the teardowns = %v, %v, want exactly 0", reserved, err)
			}
			if f.VCCount() != 0 || sw.VCCount() != 0 || sw.Stats().ReservedClamps != 0 {
				t.Errorf("left behind: %d forwarder VCs, %d switch VCs, %d clamps", f.VCCount(), sw.VCCount(), sw.Stats().ReservedClamps)
			}
		})
	}
}
