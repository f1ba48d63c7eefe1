package datapath

import (
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestRingCapacityRounding(t *testing.T) {
	for _, tc := range []struct{ ask, want int }{
		{0, 2}, {1, 2}, {2, 2}, {3, 4}, {1000, 1024}, {1024, 1024},
	} {
		if got := NewRing(tc.ask).Capacity(); got != tc.want {
			t.Errorf("NewRing(%d).Capacity() = %d, want %d", tc.ask, got, tc.want)
		}
	}
}

func TestRingFIFOAndFull(t *testing.T) {
	r := NewRing(4)
	var c Cell
	for i := 0; i < 4; i++ {
		c[0] = byte(i)
		if !r.Push(&c) {
			t.Fatalf("push %d refused on non-full ring", i)
		}
	}
	if r.Push(&c) {
		t.Fatal("push succeeded on a full ring")
	}
	if r.Len() != 4 {
		t.Fatalf("Len() = %d, want 4", r.Len())
	}
	for i := 0; i < 4; i++ {
		got := r.Peek()
		if got == nil {
			t.Fatalf("peek %d on non-empty ring returned nil", i)
		}
		if got[0] != byte(i) {
			t.Fatalf("cell %d out of order: got %d", i, got[0])
		}
		r.Advance()
	}
	if r.Peek() != nil {
		t.Fatal("peek on empty ring returned a cell")
	}
	// Wrap around: indices keep counting past capacity.
	for round := 0; round < 10; round++ {
		c[0] = byte(round)
		if !r.Push(&c) {
			t.Fatalf("round %d: push refused", round)
		}
		got := r.Peek()
		if got == nil || got[0] != byte(round) {
			t.Fatalf("round %d: bad peek", round)
		}
		r.Advance()
	}
}

// TestRingPerCellFormsAllocateNothing pins both rings' per-cell forms at
// zero allocations: Push copies the cell into its slot, Peek points into the
// slot, Advance moves a cursor.
func TestRingPerCellFormsAllocateNothing(t *testing.T) {
	spsc, mpsc := NewRing(4), NewMPSCRing(4)
	for _, r := range []struct {
		name    string
		push    func(*Cell) bool
		peek    func() *Cell
		advance func()
	}{
		{"Ring", spsc.Push, spsc.Peek, spsc.Advance},
		{"MPSCRing", mpsc.Push, mpsc.Peek, mpsc.Advance},
	} {
		var c Cell
		if n := testing.AllocsPerRun(1000, func() {
			if !r.push(&c) || r.peek() == nil {
				t.Fatalf("%s: push or peek failed on an empty ring", r.name)
			}
			r.advance()
		}); n != 0 {
			t.Errorf("%s push/peek/advance allocates %v objects per cell, want 0", r.name, n)
		}
	}
}

// TestRingLenNeverNegative is the regression test for the Len wrap race:
// Len used to load head before tail, so a consumer advancing between the
// two loads made head-tail wrap negative (and int-cast into a huge bogus
// count on 32-bit, a negative one on 64-bit). The racing interleaving is
// reproduced by constructing its observable state directly: a tail ahead
// of the loaded head.
func TestRingLenNeverNegative(t *testing.T) {
	r := NewRing(8)
	r.head.Store(3)
	r.tail.Store(5)
	if got := r.Len(); got != 0 {
		t.Fatalf("Len() with tail ahead of head = %d, want 0 (clamped)", got)
	}
	r.head.Store(100)
	r.tail.Store(0)
	if got := r.Len(); got != r.Capacity() {
		t.Fatalf("Len() with runaway head = %d, want capacity %d", got, r.Capacity())
	}
	// Sanity: normal occupancy is still exact.
	r.head.Store(7)
	r.tail.Store(3)
	if got := r.Len(); got != 4 {
		t.Fatalf("Len() = %d, want 4", got)
	}
}

// TestRingSPSCStorm runs one producer against one consumer and checks,
// under the race detector in `make race`, that every cell arrives exactly
// once,
// in order, with intact contents — the memory-ordering claim of the Ring
// doc comment made executable.
func TestRingSPSCStorm(t *testing.T) {
	const total = 200000
	r := NewRing(64)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var c Cell
		for i := uint64(0); i < total; {
			binary.BigEndian.PutUint64(c[:8], i)
			// Body bytes derived from i so a torn read is visible.
			b := byte(i)
			for j := 8; j < len(c); j++ {
				c[j] = b + byte(j)
			}
			if r.Push(&c) {
				i++
			} else {
				// Ring full: yield so the consumer runs even on one CPU.
				runtime.Gosched()
			}
		}
	}()
	var got uint64
	for got < total {
		c := r.Peek()
		if c == nil {
			runtime.Gosched()
			continue
		}
		i := binary.BigEndian.Uint64(c[:8])
		if i != got {
			t.Fatalf("cell %d arrived when %d expected", i, got)
		}
		b := byte(i)
		for j := 8; j < len(c); j++ {
			if c[j] != b+byte(j) {
				t.Fatalf("cell %d: torn byte %d", i, j)
			}
		}
		r.Advance()
		got++
	}
	wg.Wait()
	if r.Len() != 0 {
		t.Fatalf("ring not empty after storm: %d", r.Len())
	}
}

// TestRingBurstMatchesSliceModel drives random interleavings of both forms
// of both sides — Stage, Publish, Push, Ready/At/Release, Peek/Advance —
// against a slice model, on rings small enough that the cursors wrap past
// the capacity many times. After every step the ring must agree with
// the model on what each call returned, on FIFO contents read in place, on
// full and empty, and on the ledger (Len, Pushed, Popped): in particular
// staged cells occupy slots (they can fill the ring) but are invisible to
// Len, Pushed and Ready until published, and a Push publishes what was
// staged before it, in order. Steps alternate between phases that only
// write, which fill the ring, and phases of every kind, which drain it; on
// the capacities above DefaultBurst the filling grows the storage, which
// must then be the next power of two at or above the model's high-water
// mark, never less than DefaultBurst slots.
func TestRingBurstMatchesSliceModel(t *testing.T) {
	caps := []int{2, 4, 8, 16, 128, 512}
	prop := func(seed int64, capSel uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		r := NewRing(caps[int(capSel)%len(caps)])
		slots := r.Capacity()
		var (
			pub, staged    []uint64 // published and staged-only stamps, oldest first
			next           uint64   // next stamp to write
			pushed, popped int64
			hwm            int // most cells the model has held, staged or published
			c              Cell
			fail           = func(format string, args ...any) bool {
				t.Errorf("seed %d cap %d: "+format, append([]any{seed, slots}, args...)...)
				return false
			}
		)
		for step := 0; step < max(3000, 32*slots); step++ {
			room := len(pub)+len(staged) < slots
			op := rng.Intn(6)
			if step/(2*slots)%2 == 0 {
				op %= 4 // a filling phase: producer calls only
			}
			switch op {
			case 0, 1:
				binary.BigEndian.PutUint64(c[:8], next)
				if got := r.Stage(&c); got != room {
					return fail("step %d: Stage = %v with %d+%d of %d slots used", step, got, len(pub), len(staged), slots)
				}
				if room {
					staged = append(staged, next)
					next++
				}
			case 2:
				r.Publish()
				pushed += int64(len(staged))
				pub, staged = append(pub, staged...), staged[:0]
			case 3:
				binary.BigEndian.PutUint64(c[:8], next)
				if got := r.Push(&c); got != room {
					return fail("step %d: Push = %v with %d+%d of %d slots used", step, got, len(pub), len(staged), slots)
				}
				if room {
					pushed += int64(len(staged)) + 1
					pub, staged = append(append(pub, staged...), next), staged[:0]
					next++
				}
			case 4:
				max := 1 + rng.Intn(slots+2)
				n := r.Ready(max)
				if want := min(max, len(pub)); n != want {
					return fail("step %d: Ready(%d) = %d, want %d", step, max, n, want)
				}
				for i := 0; i < n; i++ {
					if got := binary.BigEndian.Uint64(r.At(i)[:8]); got != pub[i] {
						return fail("step %d: At(%d) = cell %d, want %d", step, i, got, pub[i])
					}
				}
				if k := rng.Intn(n + 1); k > 0 {
					r.Release(k)
					pub = pub[k:]
					popped += int64(k)
				}
			case 5:
				p := r.Peek()
				if (p == nil) != (len(pub) == 0) {
					return fail("step %d: Peek nil = %v with %d published", step, p == nil, len(pub))
				}
				if p != nil {
					if got := binary.BigEndian.Uint64(p[:8]); got != pub[0] {
						return fail("step %d: Peek = cell %d, want %d", step, got, pub[0])
					}
					r.Advance()
					pub = pub[1:]
					popped++
				}
			}
			if r.Len() != len(pub) || r.Pushed() != pushed || r.Popped() != popped || r.Staged() != (len(staged) > 0) {
				return fail("step %d: Len %d Pushed %d Popped %d Staged %v, model %d %d %d %v", step,
					r.Len(), r.Pushed(), r.Popped(), r.Staged(), len(pub), pushed, popped, len(staged) > 0)
			}
			hwm = max(hwm, len(pub)+len(staged))
			want := min(slots, DefaultBurst)
			for want < hwm {
				want *= 2
			}
			if len(r.buf) != want {
				return fail("step %d: %d slots of storage at a high-water mark of %d cells, want %d", step, len(r.buf), hwm, want)
			}
		}
		if next < uint64(8*slots) {
			return fail("only %d cells written: the cursors never wrapped", next)
		}
		if hwm != slots {
			return fail("high-water mark %d: the ring never filled", hwm)
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestRingBurstStorm runs a burst producer against a burst consumer — the
// forwarder's two sides of an egress ring — and checks, under the race
// detector in `make race`, exact count, exact order and intact contents:
// a whole burst's slot writes precede its single head store, and a whole
// burst's reads precede its single tail store. Both sides mix in the
// per-cell forms now and then, as Inject beside a burst consumer does.
func TestRingBurstStorm(t *testing.T) {
	const total = 200000
	r := NewRing(64)
	fill, check := stampCell, func(c *Cell, want uint64) { checkStamp(t, c, want) }
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var c Cell
		rng := rand.New(rand.NewSource(1))
		for i := uint64(0); i < total; {
			if rng.Intn(8) == 0 {
				fill(&c, i)
				if r.Push(&c) {
					i++
				} else {
					runtime.Gosched()
				}
				continue
			}
			for burst := 1 + rng.Intn(17); burst > 0 && i < total; burst-- {
				fill(&c, i)
				if !r.Stage(&c) {
					break
				}
				i++
			}
			if r.Staged() {
				r.Publish()
			} else {
				runtime.Gosched() // full with nothing staged: let the consumer run
			}
		}
	}()
	rng := rand.New(rand.NewSource(2))
	var got uint64
	for got < total {
		if rng.Intn(8) == 0 {
			if c := r.Peek(); c != nil {
				check(c, got)
				r.Advance()
				got++
			}
			continue
		}
		n := r.Ready(1 + rng.Intn(24))
		if n == 0 {
			runtime.Gosched()
			continue
		}
		for i := 0; i < n; i++ {
			check(r.At(i), got+uint64(i))
		}
		r.Release(n)
		got += uint64(n)
	}
	wg.Wait()
	if r.Len() != 0 || r.Pushed() != total || r.Popped() != total {
		t.Fatalf("after storm: Len %d Pushed %d Popped %d, want 0 %d %d", r.Len(), r.Pushed(), r.Popped(), total, total)
	}
}

// stampCell writes cell number i into c: the number up front and body bytes
// derived from it, so that a torn read is visible.
func stampCell(c *Cell, i uint64) {
	binary.BigEndian.PutUint64(c[:8], i)
	b := byte(i)
	for j := 8; j < len(c); j++ {
		c[j] = b + byte(j)
	}
}

// checkStamp fails the test unless c is cell number want, intact.
func checkStamp(t *testing.T, c *Cell, want uint64) {
	t.Helper()
	if i := binary.BigEndian.Uint64(c[:8]); i != want {
		t.Fatalf("cell %d arrived when %d expected", i, want)
	}
	b := byte(want)
	for j := 8; j < len(c); j++ {
		if c[j] != b+byte(j) {
			t.Fatalf("cell %d: torn byte %d", want, j)
		}
	}
}

// TestRingGrowStorm is the burst storm on a ring whose storage has to grow,
// checked under the race detector in `make race`. Each round starts a fresh
// NewRing(1024) with a lagging consumer: until the ring first refuses a
// cell the consumer reads what is ready in place but releases nothing, so
// the producer grows the backing through every doubling from 64 to 1024
// slots with cells in flight — the consumer reading them from whichever
// backing it last loaded — and the 1025th cell is refused. Then both sides
// run free. Every cell must arrive exactly once, in order and intact.
func TestRingGrowStorm(t *testing.T) {
	const (
		capacity = 1024
		total    = 20000
		rounds   = 8
	)
	for round := int64(0); round < rounds; round++ {
		r := NewRing(capacity)
		full := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(2 * round))
			var (
				c       Cell
				i       uint64
				sizes   []int
				refused bool
			)
			for !refused { // bursts of Stage until the ring is full
				for burst := 1 + rng.Intn(17); burst > 0; burst-- {
					stampCell(&c, i)
					if refused = !r.Stage(&c); refused {
						break
					}
					i++
					if len(sizes) == 0 || sizes[len(sizes)-1] != len(r.buf) {
						sizes = append(sizes, len(r.buf))
					}
				}
				r.Publish()
			}
			if i != capacity || r.Push(&c) {
				t.Errorf("round %d: ring refused cell %d and then Push accepted %v; want cell %d refused by both", round, i, !refused, capacity)
			}
			if want := []int{64, 128, 256, 512, 1024}; !slices.Equal(sizes, want) {
				t.Errorf("round %d: storage went through %v slots, want %v", round, sizes, want)
			}
			close(full)
			for i < total {
				if rng.Intn(8) == 0 {
					stampCell(&c, i)
					if r.Push(&c) {
						i++
					} else {
						runtime.Gosched()
					}
					continue
				}
				for burst := 1 + rng.Intn(17); burst > 0 && i < total; burst-- {
					stampCell(&c, i)
					if !r.Stage(&c) {
						break
					}
					i++
				}
				if r.Staged() {
					r.Publish()
				} else {
					runtime.Gosched()
				}
			}
		}()
		rng := rand.New(rand.NewSource(2*round + 1))
		lagging := true
		for got := uint64(0); got < total; {
			if lagging {
				select {
				case <-full:
					lagging = false
				default:
				}
			}
			n := r.Ready(1 + rng.Intn(64))
			for i := 0; i < n; i++ {
				checkStamp(t, r.At(i), got+uint64(i))
			}
			if lagging || n == 0 {
				runtime.Gosched()
				continue
			}
			r.Release(n)
			got += uint64(n)
		}
		wg.Wait()
		if r.Len() != 0 || r.Pushed() != total || r.Popped() != total {
			t.Fatalf("round %d: Len %d Pushed %d Popped %d, want 0 %d %d", round, r.Len(), r.Pushed(), r.Popped(), total, total)
		}
	}
}

// TestRingCapacityBounded: a capacity above MaxRingCells is refused, by
// AddPort with an error and by NewRing with a panic, and neither hangs —
// NewRing used to round up by doubling, which overflows to 0 past 1<<62
// and never ends. The largest capacity allowed costs DefaultBurst slots.
func TestRingCapacityBounded(t *testing.T) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, n := range []int{1<<62 + 1, math.MaxInt, MaxRingCells + 1} {
			if _, err := New(WithRingCells(n)).AddPort(1); err == nil {
				t.Errorf("AddPort with rings of %d cells: no error, want one", n)
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("NewRing(%d) returned, want a panic", n)
					}
				}()
				NewRing(n)
			}()
		}
		if r := NewRing(MaxRingCells); r.Capacity() != MaxRingCells || len(r.buf) != DefaultBurst {
			t.Errorf("NewRing(MaxRingCells): capacity %d, %d slots; want %d, %d", r.Capacity(), len(r.buf), MaxRingCells, DefaultBurst)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("refusing an oversized ring did not return within 10 s")
	}
}
