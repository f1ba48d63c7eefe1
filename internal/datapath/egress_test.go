package datapath

import (
	"encoding/binary"
	"runtime"
	"sync"
	"testing"
	"time"

	"rcbr/internal/cell"
	"rcbr/internal/switchfab"
)

// stamp reads the sequence number mkCell put in a data cell's payload.
func stamp(t testing.TB, c *Cell) (switchfab.VCID, uint64) {
	t.Helper()
	h, p, err := cell.ParseData(c[:])
	if err != nil {
		t.Fatalf("sink got a malformed cell: %v", err)
	}
	return switchfab.MakeVCID(h.VPI, h.VCI), binary.BigEndian.Uint64(p[:8])
}

// TestEgressOrder feeds one egress port from eight ingress ports at once,
// two VCs each, while a forwarding goroutine sweeps and the test goroutine
// transmits. What the shared output FIFO owes its VCs is per-VC order, and
// the sink checks exactly that — every VC's cells arrive in sequence, none
// missing, none twice — plus the exact total.
func TestEgressOrder(t *testing.T) {
	const (
		ingress = 8
		perVC   = 500
	)
	// Every ring holds the whole load, so a descheduled transmitter cannot
	// turn into overflow drops and a gap in a sequence.
	f := New(withBurst(16), WithRingCells(ingress*2*perVC))
	egress, err := f.AddPort(100)
	if err != nil {
		t.Fatal(err)
	}
	var pp [ingress]*Port
	var offers [ingress][]Cell // port i's two VCs interleaved, each in sequence
	for i := range pp {
		if pp[i], err = f.AddPort(i); err != nil {
			t.Fatal(err)
		}
		for v := 0; v < 2; v++ {
			if err := f.AddVC(switchfab.MakeVCID(uint8(i), uint16(40+v)), 100, 1e12); err != nil {
				t.Fatal(err)
			}
		}
		for n := 0; n < 2*perVC; n++ {
			offers[i] = append(offers[i], mkCell(t, switchfab.MakeVCID(uint8(i), uint16(40+n%2)), uint64(n/2)))
		}
	}
	defer forwardInBackground(f)()
	var wg sync.WaitGroup
	for i := range pp {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; n < len(offers[i]); {
				if f.Inject(pp[i], &offers[i][n]) {
					n++
				} else {
					runtime.Gosched()
				}
			}
		}(i)
	}
	next := map[switchfab.VCID]uint64{}
	total := 0
	sink := func(c *Cell) {
		id, seq := stamp(t, c)
		if seq != next[id] {
			t.Fatalf("vc %s: cell %d arrived when %d expected", id, seq, next[id])
		}
		next[id]++
		total++
	}
	deadline := time.Now().Add(60 * time.Second)
	for total < ingress*2*perVC && time.Now().Before(deadline) {
		if f.TransmitTo(egress, 64, sink) == 0 {
			runtime.Gosched()
		}
	}
	wg.Wait()
	if total != ingress*2*perVC || len(next) != ingress*2 {
		t.Fatalf("sink saw %d cells of %d VCs, want %d of %d", total, len(next), ingress*2*perVC, ingress*2)
	}
	if ps := egress.Stats(); ps.Enqueued != int64(total) || ps.Transmitted != int64(total) || ps.OutQueued != 0 {
		t.Fatalf("egress ledger %+v, want %d in and out", ps, total)
	}
}

// TestTransmitMax: Transmit sends what is queued up to max, and a max of
// zero or below sends nothing — Ring.Ready reads its max as unsigned, so a
// negative one passed straight through would drain the whole ring.
func TestTransmitMax(t *testing.T) {
	const queued = 5
	for _, tc := range []struct{ max, want int }{
		{-1, 0}, {0, 0}, {1, 1}, {queued, queued}, {queued + 1, queued},
	} {
		f := New()
		in, _ := f.AddPort(0)
		out, _ := f.AddPort(1)
		id := switchfab.MakeVCID(0, 50)
		if err := f.AddVC(id, 1, 1e12); err != nil {
			t.Fatal(err)
		}
		for n := 0; n < queued; n++ {
			c := mkCell(t, id, uint64(n))
			f.Inject(in, &c)
		}
		f.Forward(0)
		if got := f.Transmit(out, tc.max); got != tc.want || out.OutLen() != queued-tc.want {
			t.Errorf("Transmit(p, %d) = %d leaving %d queued, want %d leaving %d", tc.max, got, out.OutLen(), tc.want, queued-tc.want)
		}
	}
}

// TestBurstPublishesEveryTouchedRing: one burst that stages onto more
// egress rings than the touched-ring scratch holds spills by publishing
// early, and when Forward returns nothing is left staged — every cell is
// on its egress FIFO, visible to Transmit, in per-VC order.
func TestBurstPublishesEveryTouchedRing(t *testing.T) {
	const egressPorts = 3*maxTouched + 1
	f := New()
	in, err := f.AddPort(0)
	if err != nil {
		t.Fatal(err)
	}
	var out [egressPorts]*Port
	var ids [egressPorts]switchfab.VCID
	for i := range out {
		if out[i], err = f.AddPort(1 + i); err != nil {
			t.Fatal(err)
		}
		ids[i] = switchfab.MakeVCID(1, uint16(100+i))
		if err := f.AddVC(ids[i], 1+i, 1e12); err != nil {
			t.Fatal(err)
		}
	}
	// Two laps over the egress ports inside one burst of 64.
	if 2*egressPorts > DefaultBurst {
		t.Fatalf("test needs 2*%d cells in one burst of %d", egressPorts, DefaultBurst)
	}
	for lap := 0; lap < 2; lap++ {
		for i := range ids {
			c := mkCell(t, ids[i], uint64(lap))
			if !f.Inject(in, &c) {
				t.Fatal("inject refused")
			}
		}
	}
	if got := f.Forward(1e6); got != 2*egressPorts {
		t.Fatalf("Forward processed %d cells, want %d", got, 2*egressPorts)
	}
	for i, p := range out {
		if p.out.Staged() {
			t.Fatalf("egress port %d left with staged cells after the burst", 1+i)
		}
		var seqs []uint64
		f.TransmitTo(p, 8, func(c *Cell) {
			_, seq := stamp(t, c)
			seqs = append(seqs, seq)
		})
		if len(seqs) != 2 || seqs[0] != 0 || seqs[1] != 1 {
			t.Fatalf("egress port %d transmitted %v, want [0 1]", 1+i, seqs)
		}
	}
}
