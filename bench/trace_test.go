package main

import (
	"testing"
	"time"
)

// Self time is a span's duration minus its direct children's, grandchildren
// counting against their own parent only.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", ID: 1, Start: 0, End: 100},
		{Name: "child", ID: 2, Parent: 1, Start: 10, End: 40},
		{Name: "child", ID: 3, Parent: 1, Start: 50, End: 70},
		{Name: "leaf", ID: 4, Parent: 2, Start: 15, End: 25},
		{Name: "root", ID: 5, Start: 200, End: 260},
	}
	lts := selfTimes(spans)
	want := map[string]layerTime{
		"root":  {Name: "root", Count: 2, Total: 160, Self: 110, MedianSelf: 55}, // 100-30-20 and 60
		"child": {Name: "child", Count: 2, Total: 50, Self: 40, MedianSelf: 20},  // 30-10 and 20
		"leaf":  {Name: "leaf", Count: 1, Total: 10, Self: 10, MedianSelf: 10},
	}
	if len(lts) != len(want) {
		t.Fatalf("got %d layers, want %d: %+v", len(lts), len(want), lts)
	}
	for _, lt := range lts {
		if lt != want[lt.Name] {
			t.Errorf("layer %s = %+v, want %+v", lt.Name, lt, want[lt.Name])
		}
	}
	// Every nanosecond of the roots is in exactly one layer's self time.
	var sum int64
	for _, lt := range lts {
		sum += lt.Self
	}
	if sum != 160 {
		t.Errorf("self times sum to %d, want the roots' 160", sum)
	}
	if got := layerNamed(lts, "absent"); got.Count != 0 || got.Self != 0 {
		t.Errorf("absent layer = %+v, want zero", got)
	}

	// Two roots of 4 units each: 55 ns median self x 2 spans / 8 units.
	if got := layerNamed(lts, "root").perUnit(8); got != 13.75 {
		t.Errorf("perUnit = %g, want 13.75", got)
	}
	b := newBudget(lts, "unit", 8, 20)
	if want := 13.75 + 20.0*2/8 + 10.0/8; b.SumOfPartsNs != want {
		t.Errorf("sum of parts = %g, want %g", b.SumOfPartsNs, want)
	}
}

func TestTracerLanes(t *testing.T) {
	var none *tracer
	if id := none.begin("x", 0, 0); id != 0 {
		t.Errorf("nil tracer began span %d, want 0", id)
	}
	none.end(0) // must not panic
	var noSet *traceSet
	if noSet.lane() != nil {
		t.Error("nil traceSet handed out a tracer")
	}

	ts := newTraceSet()
	a, b := ts.lane(), ts.lane()
	root := a.begin("root", 0, 7)
	kid := a.begin("kid", root, 7)
	other := b.begin("root", 0, 8)
	time.Sleep(time.Millisecond)
	a.end(kid)
	a.end(root)
	b.end(other)
	if root == other || root == 0 || kid == 0 {
		t.Fatalf("span ids collide across lanes or are zero: %d %d %d", root, kid, other)
	}
	spans := ts.merged()
	if len(spans) != 3 {
		t.Fatalf("merged %d spans, want 3", len(spans))
	}
	for _, s := range spans {
		if s.End < s.Start || s.End == 0 {
			t.Errorf("span %+v was not closed", s)
		}
		if s.Name == "kid" && (s.Parent != root || s.Req != 7) {
			t.Errorf("kid span %+v lost its parent or request id", s)
		}
	}
}
