package datapath

import (
	"context"
	"encoding/binary"
	"fmt"
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

// TestCrossGroupEgressOrder feeds one egress port from every port group at
// once under Run: eight ingress ports spread over 2 and over 8 groups, two
// VCs each, all routed to port 100. The egress FIFO is then one SPSC ring
// per group served round-robin; what it owes its VCs is per-VC order, and
// the sink checks exactly that — every VC's cells arrive in sequence, none
// missing, none twice — plus the exact total.
func TestCrossGroupEgressOrder(t *testing.T) {
	for _, groups := range []int{2, 8} {
		t.Run(fmt.Sprintf("groups=%d", groups), func(t *testing.T) {
			const (
				ingress = 8
				perVC   = 500
			)
			// Every ring holds the whole load, so a descheduled transmitter
			// cannot turn into overflow drops and a gap in a sequence.
			f := New(WithPortGroups(groups), withBurst(16), WithRingCells(ingress*2*perVC))
			egress, err := f.AddPort(100)
			if err != nil {
				t.Fatal(err)
			}
			var pp [ingress]*Port
			for i := range pp {
				if pp[i], err = f.AddPort(i); err != nil {
					t.Fatal(err)
				}
				for v := 0; v < 2; v++ {
					if err := f.AddVC(switchfab.MakeVCID(uint8(i), uint16(40+v)), 100, 1e12); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := f.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			defer f.Stop()
			var wg sync.WaitGroup
			for i := range pp {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					ids := [2]switchfab.VCID{switchfab.MakeVCID(uint8(i), 40), switchfab.MakeVCID(uint8(i), 41)}
					for n := 0; n < 2*perVC; {
						c := mkCell(t, ids[n%2], uint64(n/2))
						if f.Inject(pp[i], &c) {
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
		})
	}
}

// crossGroupTrio is a three-group forwarder with one ingress port per
// group (ids 0..2, groups 0..2) all routed to egress port 9, one VC each.
func crossGroupTrio(t *testing.T) (f *Forwarder, in [3]*Port, egress *Port, ids [3]switchfab.VCID) {
	t.Helper()
	f = New(WithPortGroups(3))
	var err error
	for i := range in {
		if in[i], err = f.AddPort(i); err != nil {
			t.Fatal(err)
		}
		if in[i].Group() != i {
			t.Fatalf("port %d in group %d", i, in[i].Group())
		}
	}
	if egress, err = f.AddPort(9); err != nil {
		t.Fatal(err)
	}
	for i := range ids {
		ids[i] = switchfab.MakeVCID(uint8(i), 77)
		if err := f.AddVC(ids[i], 9, 1e12); err != nil {
			t.Fatal(err)
		}
	}
	return f, in, egress, ids
}

// TestCrossGroupTransmitServesEveryRing: a transmitter that takes one cell
// per call — mesh.CellPath's Step — must reach every non-empty group ring.
// Group 0's ring is refilled before every call, so a fixed start index
// would serve it forever; group 1's stays empty and must cost nothing;
// group 2's ten cells must all be out within twenty calls, alternating with
// group 0's.
func TestCrossGroupTransmitServesEveryRing(t *testing.T) {
	f, in, egress, ids := crossGroupTrio(t)
	const waiting = 10
	for n := 0; n < waiting; n++ {
		c := mkCell(t, ids[2], uint64(n))
		f.Inject(in[2], &c)
	}
	var from [3]int
	now := int64(0)
	for call := 0; call < 2*waiting; call++ {
		c := mkCell(t, ids[0], uint64(call))
		f.Inject(in[0], &c)
		now += 1e6
		f.Forward(now)
		got := f.TransmitTo(egress, 1, func(c *Cell) {
			id, _ := stamp(t, c)
			from[id.VPI()]++
		})
		if got != 1 {
			t.Fatalf("call %d: transmitted %d cells with two rings non-empty, want 1", call, got)
		}
	}
	if from != [3]int{waiting, 0, waiting} {
		t.Fatalf("20 one-cell calls served %v cells from groups 0..2, want [10 0 10]", from)
	}
}

// TestCrossGroupParkedProducerDoesNotBlock: a group goroutine descheduled
// in the middle of its burst — cells staged on the egress ring, head not
// yet stored — holds back nobody else's cells. (On a shared multi-producer
// ring it would have claimed slots, and every later cell would wait behind
// them.) Group 0's state is made by hand: its two cells sit staged on its
// ring of the egress port. Group 1 then forwards a burst and all of it is
// transmitted at once; group 0's cells follow when it publishes, in order.
func TestCrossGroupParkedProducerDoesNotBlock(t *testing.T) {
	f, in, egress, ids := crossGroupTrio(t)
	for n := 0; n < 2; n++ {
		c := mkCell(t, ids[0], uint64(n))
		if !egress.out[0].Stage(&c) {
			t.Fatal("stage refused")
		}
	}
	if egress.OutLen() != 0 || egress.Stats().Enqueued != 0 {
		t.Fatalf("staged cells are visible: %+v", egress.Stats())
	}
	const burst = 20
	for n := 0; n < burst; n++ {
		c := mkCell(t, ids[1], uint64(n))
		f.Inject(in[1], &c)
	}
	if got := f.ForwardGroup(1, 1e6); got != burst {
		t.Fatalf("group 1 forwarded %d cells, want %d", got, burst)
	}
	var seen []uint64
	sink := func(c *Cell) {
		id, seq := stamp(t, c)
		seen = append(seen, uint64(id.VPI())<<32|seq)
	}
	if got := f.TransmitTo(egress, 64, sink); got != burst {
		t.Fatalf("transmitted %d cells past the parked producer, want all %d of group 1's", got, burst)
	}
	egress.out[0].Publish()
	if got := f.TransmitTo(egress, 64, sink); got != 2 {
		t.Fatalf("transmitted %d cells after the parked producer published, want 2", got)
	}
	for n, s := range seen {
		want := uint64(1)<<32 | uint64(n)
		if n >= burst {
			want = uint64(n - burst)
		}
		if s != want {
			t.Fatalf("cell %d at the sink is %#x, want %#x", n, s, want)
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
		if p.out[0].Staged() {
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
