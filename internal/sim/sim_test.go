package sim

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

func TestEventOrdering(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 100; i++ {
		v := i * 37 % 100 // 0..99 shuffled
		q.At(float64(v), v)
	}
	for want := 0; want < 100; want++ {
		if got := q.Pop(); got != want || q.Now() != float64(want) {
			t.Fatalf("pop %d: got %d at %v", want, got, q.Now())
		}
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after popping everything", q.Len())
	}
}

// TestAfterAndNesting: an event scheduled relative to Now while the loop
// pops is honored at its due time.
func TestAfterAndNesting(t *testing.T) {
	var q Queue[string]
	q.At(q.Now()+1, "outer")
	var hits []float64
	for q.Len() > 0 {
		if q.Pop() == "outer" {
			q.At(q.Now()+2, "inner")
		}
		hits = append(hits, q.Now())
	}
	if !slices.Equal(hits, []float64{1, 3}) {
		t.Fatalf("hits = %v", hits)
	}
}

// runUntil pops every event due at or before horizon, the loop both
// call-level simulators run, and returns how many it popped.
func runUntil[E any](q *Queue[E], horizon float64, each func(E)) int {
	n := 0
	for q.Len() > 0 && q.Next() <= horizon {
		e := q.Pop()
		if each != nil {
			each(e)
		}
		n++
	}
	return n
}

// TestRunUntil: a horizon loop pops the events due by the horizon, the
// horizon itself included, and leaves later ones pending.
func TestRunUntil(t *testing.T) {
	var q Queue[int]
	for _, tm := range []float64{1, 2, 3, 4, 5} {
		q.At(tm, 0)
	}
	if count := runUntil(&q, 3, nil); count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	if q.Now() != 3 {
		t.Fatalf("Now = %v, want 3", q.Now())
	}
	if q.Len() != 2 || q.Next() != 4 {
		t.Fatalf("pending %d, next %v; want the events at 4 and 5 left", q.Len(), q.Next())
	}
	if count := runUntil(&q, 10, nil); count != 2 || q.Now() != 5 || q.Len() != 0 {
		t.Fatalf("count=%d now=%v pending=%d", count, q.Now(), q.Len())
	}
}

// TestEventScheduledDuringRunUntil: an event scheduled inside the horizon
// loop and due within the horizon is popped by the same loop.
func TestEventScheduledDuringRunUntil(t *testing.T) {
	var q Queue[string]
	q.At(1, "outer")
	var ran bool
	runUntil(&q, 2, func(e string) {
		switch e {
		case "outer":
			q.At(2, "inner")
		case "inner":
			ran = true
		}
	})
	if !ran {
		t.Fatal("nested event within horizon did not run")
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	var q Queue[int]
	q.At(5, 0)
	q.Pop()
	q.At(5, 0) // at now is fine
	defer func() {
		if recover() == nil {
			t.Fatal("past scheduling accepted")
		}
	}()
	q.At(1, 0)
}

// TestReplayIsExact: two identical At/Pop sequences pop identically, equal
// due times included, which is what lets a seed replay a run.
func TestReplayIsExact(t *testing.T) {
	run := func() []int {
		var q Queue[int]
		var out []int
		for i := 0; i < 200; i++ {
			q.At(q.Now()+float64(i%3), i) // many ties
			if i%4 == 3 {
				out = append(out, q.Pop())
			}
		}
		for q.Len() > 0 {
			out = append(out, q.Pop())
		}
		return out
	}
	if a, b := run(), run(); !slices.Equal(a, b) {
		t.Fatalf("replays differ:\n%v\n%v", a, b)
	}
}

// TestSteadyStateAtPopAllocatesNothing: once the heap has grown to its
// working size, scheduling and popping move values only.
func TestSteadyStateAtPopAllocatesNothing(t *testing.T) {
	type ev struct {
		p    *int
		kind uint8
	}
	var q Queue[ev]
	for i := 0; i < 64; i++ {
		q.At(float64(i), ev{})
	}
	allocs := testing.AllocsPerRun(1000, func() {
		e := q.Pop()
		q.At(q.Now()+64, e)
	})
	if allocs != 0 {
		t.Fatalf("steady-state At/Pop allocates %v per op", allocs)
	}
}

// FuzzQueue holds random At/Pop interleavings against a sorted reference:
// pops come out nondecreasing in due time and never before Now, and
// everything scheduled comes out exactly once.
func FuzzQueue(f *testing.F) {
	f.Add([]byte{1, 2, 3, 0, 4, 0, 0})
	f.Add([]byte{9, 9, 9, 0, 0, 0, 5, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var q Queue[int]
		var pending []float64 // reference: due times of scheduled, unpopped events
		due := map[int]float64{}
		last := math.Inf(-1)
		pop := func() {
			id := q.Pop()
			tm, ok := due[id]
			if !ok {
				t.Fatalf("popped %d twice or never scheduled", id)
			}
			delete(due, id)
			i := slices.Index(pending, tm)
			if tm != slices.Min(pending) || tm < last || q.Now() != tm {
				t.Fatalf("popped due %v (now %v, last %v), reference min %v", tm, q.Now(), last, slices.Min(pending))
			}
			pending = slices.Delete(pending, i, i+1)
			last = tm
		}
		for i := 0; i < len(ops); i++ {
			if ops[i] == 0 {
				if q.Len() > 0 {
					pop()
				}
				continue
			}
			id := i // an op's index names the event it schedules
			var d float64
			if i+2 < len(ops) {
				d = float64(binary.LittleEndian.Uint16(ops[i+1:])) / 16
				i += 2
			}
			tm := q.Now() + d
			q.At(tm, id)
			due[id] = tm
			pending = append(pending, tm)
		}
		if q.Len() != len(pending) {
			t.Fatalf("Len %d, reference holds %d", q.Len(), len(pending))
		}
		for q.Len() > 0 {
			pop()
		}
		if len(due) != 0 {
			t.Fatalf("%d scheduled events never popped", len(due))
		}
	})
}
