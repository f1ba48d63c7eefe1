package datapath

import (
	"runtime"
	"sync"
	"testing"

	"rcbr/internal/switchfab"
)

// TestTableChurnUnderForwarding is the table's race test: a forwarding
// goroutine forwards cells of VCs that share one leaf page while a writer
// adds and removes that page's other VCs, one VC that carries cells, and an
// isolated VC whose pages come and go with it. Conservation is exact at the
// end, and the two untouched VCs saw every one of their cells.
//
// A sweep looks a whole burst up before it shapes any of it, so the flapped
// VC is routinely taken down (and set up again) between the lookup of its
// cells and their shaping: those cells finish on the unpublished entry. The
// test keeps every entry the writer retires and checks that not one such
// cell was lost to the books: summed over all the VC's incarnations, plus
// the cells that found it down, the entries saw exactly the cells port 0
// accepted for it. Run under -race by `make race`.
func TestTableChurnUnderForwarding(t *testing.T) {
	f := New(WithRingCells(64), withBurst(16))
	var pp []*Port
	for i := 0; i < 3; i++ {
		p, err := f.AddPort(i) // ports 0 and 1 are ingress; 2 is egress
		if err != nil {
			t.Fatal(err)
		}
		pp = append(pp, p)
	}
	leaf := func(low uint8) switchfab.VCID { return switchfab.MakeVCID(1, 0x0100|uint16(low)) }
	stable := [2]switchfab.VCID{leaf(0), leaf(2)}
	flapping := leaf(1) // carries cells on port 0 while the writer flaps it
	for _, id := range stable {
		if err := f.AddVC(id, 2, 1e12); err != nil {
			t.Fatal(err)
		}
	}
	stopForwarding := forwardInBackground(f)

	stop := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(2)
	var retired []*vcEntry // every incarnation of flapping the writer took down
	go func() {            // the writer
		defer bg.Done()
		lonely := switchfab.MakeVCID(200, 0xBEEF)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			for _, id := range []switchfab.VCID{flapping, leaf(uint8(3 + i%250)), lonely} {
				if err := f.AddVC(id, 2, 1e12); err != nil {
					// It was up: take it down instead. The writer is the
					// only one, so what it finds is what it removes.
					if id == flapping {
						retired = append(retired, f.vcs.Get(uint32(id)))
					}
					_, _ = f.RemoveVC(id)
				}
			}
			runtime.Gosched()
		}
	}()
	go func() { // the egress port's one consumer
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if f.Transmit(pp[2], 64) == 0 {
				runtime.Gosched()
			}
		}
	}()
	var prod sync.WaitGroup
	var offered [2]int64 // cells of stable[i] accepted by port i
	var flapped int64    // cells of flapping accepted by port 0
	for i := 0; i < 2; i++ {
		prod.Add(1)
		go func(i int) {
			defer prod.Done()
			cells := [2]Cell{mkCell(t, stable[i], 0), mkCell(t, flapping, 0)}
			for n := 0; n < conservationCellsPerPort; n++ {
				k := 0
				if i == 0 && n%2 == 1 {
					k = 1
				}
				for !f.Inject(pp[i], &cells[k]) {
					runtime.Gosched() // ring full: wait for the sweep, lose nothing
				}
				if k == 0 {
					offered[i]++
				} else {
					flapped++
				}
			}
		}(i)
	}
	prod.Wait()
	close(stop)
	bg.Wait()
	stopForwarding()
	drain(f, pp, 1<<50, 1e6)

	for i, p := range pp {
		ps := p.Stats()
		if ps.InQueued != 0 || ps.OutQueued != 0 {
			t.Fatalf("port %d not drained: %+v", i, ps)
		}
		if got := ps.BadHeader + ps.Unroutable + ps.Policed + ps.Overflow + ps.Forwarded; got != ps.Arrived {
			t.Errorf("port %d ingress ledger: %+v (sum %d)", i, ps, got)
		}
		if ps.Enqueued != ps.Transmitted {
			t.Errorf("port %d egress ledger: %+v", i, ps)
		}
	}
	if fwd, enq := pp[0].Stats().Forwarded+pp[1].Stats().Forwarded, pp[2].Stats().Enqueued; fwd != enq {
		t.Errorf("forwarded %d cells, egress ring accepted %d", fwd, enq)
	}
	for i, id := range stable {
		vs, ok := f.VCStats(id)
		if !ok || vs.Seen != offered[i] || vs.Policed != 0 {
			t.Errorf("stable vc %s: %+v (found %v), want every one of its %d cells seen", id, vs, ok, offered[i])
		}
	}
	if ps := pp[1].Stats(); ps.Unroutable != 0 {
		t.Errorf("port 1 carried only a stable VC, yet %d cells were unroutable", ps.Unroutable)
	}
	// Only flapping's cells can have been unroutable on port 0; every other
	// one of them was shaped on some incarnation's entry, published or not.
	seen := pp[0].Stats().Unroutable
	if vs, ok := f.VCStats(flapping); ok {
		seen += vs.Seen
	}
	for _, e := range retired {
		seen += f.stats(e).Seen
	}
	if seen != flapped {
		t.Errorf("flapped vc: %d incarnations and the unroutable count account for %d cells, port 0 accepted %d",
			len(retired), seen, flapped)
	}
	t.Logf("flapped vc: %d cells over %d incarnations", flapped, len(retired))
}

// TestVCIDReuseKeepsBooks is the regression test for the reuse bug: a VC
// removed with a cell still on the egress ring, then set up again under the
// same id, used to be charged for the old VC's cell at transmit time
// (Queued == -1, the orphan uncounted). Transmit no longer looks VCs up, so
// the new VC's ledger stays clean and the port's books balance.
func TestVCIDReuseKeepsBooks(t *testing.T) {
	f := New()
	in, _ := f.AddPort(1)
	out, _ := f.AddPort(2)
	id := switchfab.MakeVCID(0, 11)
	if err := f.AddVC(id, 2, 1e9); err != nil {
		t.Fatal(err)
	}
	c := mkCell(t, id, 0)
	f.Inject(in, &c)
	f.Forward(0)
	if _, err := f.RemoveVC(id); err != nil {
		t.Fatal(err)
	}
	if err := f.AddVC(id, 2, 1e9); err != nil {
		t.Fatal(err)
	}
	f.Transmit(out, 8)
	if vs, ok := f.VCStats(id); !ok || vs != (VCStats{Rate: 1e9}) {
		t.Fatalf("re-added VC inherited history: %+v", vs)
	}
	if os := out.Stats(); os.Enqueued != 1 || os.Enqueued != os.Transmitted+int64(os.OutQueued) {
		t.Fatalf("egress conservation: %+v", os)
	}
	// The new VC forwards on its own account.
	f.Inject(in, &c)
	f.Forward(1)
	f.Transmit(out, 8)
	if vs, _ := f.VCStats(id); vs.Seen != 1 || vs.Forwarded != 1 {
		t.Fatalf("new VC ledger: %+v", vs)
	}
	if is, os := in.Stats(), out.Stats(); is.Arrived != 2 || is.Forwarded != 2 || os.Transmitted != 2 || os.OutQueued != 0 {
		t.Fatalf("port ledgers: in %+v out %+v", is, os)
	}
}

// What the sharded map of the parent commit cost, measured with heapOf
// below on linux/amd64, go1.24: the bar TestTableMemory holds the radix
// table to.
const (
	mapEmptyBytes      = 3912   // New()
	mapSixteenVCBytes  = 255016 // New(), two ports, 16 VCs
	mapDenseBytesPerVC = 127.6  // 100,000 VCs on consecutive ids
)

// What a dense VC may cost now: a 64-byte entry, its 8-byte slot and its
// share of the pages' headers measure 73.1 B. With the 80-byte entry (the
// 96-byte size class would have been next) the figure was 89.1.
const denseBytesPerVCBound = 75

// heapOf returns the live heap build's result holds on to.
func heapOf(build func() *Forwarder) int64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	f := build()
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(f)
	return int64(after.HeapAlloc) - int64(before.HeapAlloc)
}

// TestTableMemory pins the table's footprint: pages appear with their first
// VC, so an empty or a small forwarder costs no more than it did with the
// map (within 5 %), and a dense table costs one cache line of entry plus
// the table's ~9 bytes per VC.
func TestTableMemory(t *testing.T) {
	twoPorts := func(vcs int, id func(i int) switchfab.VCID) func() *Forwarder {
		return func() *Forwarder {
			f := New()
			f.AddPort(0)
			f.AddPort(1)
			for i := 0; i < vcs; i++ {
				if err := f.AddVC(id(i), 1, 1e6); err != nil {
					t.Fatal(err)
				}
			}
			return f
		}
	}
	empty := heapOf(func() *Forwarder { return New() })
	if float64(empty) > mapEmptyBytes*1.05 {
		t.Errorf("empty forwarder holds %d B, the map-based one held %d", empty, mapEmptyBytes)
	}
	sixteen := heapOf(twoPorts(16, func(i int) switchfab.VCID { return switchfab.VCID(100 + i) }))
	if float64(sixteen) > mapSixteenVCBytes*1.05 {
		t.Errorf("16-VC forwarder holds %d B, the map-based one held %d", sixteen, mapSixteenVCBytes)
	}
	const dense = 100_000
	ports := heapOf(twoPorts(0, nil))
	full := heapOf(twoPorts(dense, func(i int) switchfab.VCID { return switchfab.MakeVCID(uint8(1+i>>16), uint16(i)) }))
	perVC := float64(full-ports) / dense
	if perVC > denseBytesPerVCBound {
		t.Errorf("dense table costs %.1f B/VC, over the %d a one-line entry and its slot allow (the map cost %.1f)",
			perVC, denseBytesPerVCBound, mapDenseBytesPerVC)
	}
	t.Logf("empty %d B, 16 VCs %d B, dense %.1f B/VC (map: %d, %d, %.1f)",
		empty, sixteen, perVC, mapEmptyBytes, mapSixteenVCBytes, mapDenseBytesPerVC)
}
