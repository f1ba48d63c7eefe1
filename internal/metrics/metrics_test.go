package metrics

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d", got)
	}
	if r.Counter("a") != c {
		t.Fatal("counter not cached by name")
	}
	g := r.Gauge("g")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v", got)
	}
}

// TestCounterFuncViews covers the snapshot-time counters: a view is
// evaluated on every read, views sharing a name add up (with a plain
// counter of that name too), and a name with no view still hands out an
// ordinary counter.
func TestCounterFuncViews(t *testing.T) {
	r := NewRegistry()
	var ledger [2]int64
	r.CounterFunc("cells", func() int64 { return ledger[0] })
	r.CounterFunc("cells", func() int64 { return ledger[1] })
	if got := r.Snapshot().Counters["cells"]; got != 0 {
		t.Fatalf("fresh views read %d", got)
	}
	ledger = [2]int64{3, 4}
	if got := r.Snapshot().Counters["cells"]; got != 7 {
		t.Fatalf("views read %d, want 3+4", got)
	}
	r.Counter("cells").Add(10)
	r.Counter("plain").Inc()
	s := r.Snapshot()
	if s.Counters["cells"] != 17 || s.Counters["plain"] != 1 {
		t.Fatalf("snapshot %+v, want cells 17 and plain 1", s.Counters)
	}
	r.CounterFunc("ignored", nil)
	if _, ok := r.Snapshot().Counters["ignored"]; ok {
		t.Fatal("a nil view registered")
	}
}

// TestHistogramFuncViews covers the snapshot-time histograms: a view adds
// its owner's buckets and sum on every read, views sharing a name add up
// bucket by bucket (with a plain histogram of that name too), the count is
// the buckets' total, nil registries and nil views are no-ops, and a view
// whose bounds differ from the name's is refused with a panic that names
// the histogram, leaving what was registered before it in place.
func TestHistogramFuncViews(t *testing.T) {
	bounds := []float64{1, 10}
	r := NewRegistry()
	var owned [2]struct {
		counts [3]int64
		sum    float64
	}
	for i := range owned {
		r.HistogramFunc("batch", bounds, func(counts []int64) float64 {
			for b, n := range owned[i].counts {
				counts[b] += n
			}
			return owned[i].sum
		})
	}
	if hs := r.Snapshot().Histograms["batch"]; hs.Count != 0 || hs.Sum != 0 || len(hs.Counts) != 3 {
		t.Fatalf("fresh views read %+v, want 3 empty buckets", hs)
	}
	owned[0].counts, owned[0].sum = [3]int64{1, 0, 2}, 1+2*50
	owned[1].counts, owned[1].sum = [3]int64{0, 3, 0}, 3*5
	r.Histogram("batch", []float64{99}).Observe(7) // the name's bounds stand
	hs := r.Snapshot().Histograms["batch"]
	if want := []int64{1, 4, 2}; !slices.Equal(hs.Counts, want) || hs.Count != 7 || hs.Sum != 123 {
		t.Fatalf("snapshot %+v, want counts %v, count 7, sum 123", hs, want)
	}
	if !slices.Equal(hs.Bounds, bounds) {
		t.Fatalf("bounds %v, want %v", hs.Bounds, bounds)
	}

	r.HistogramFunc("batch", []float64{10, 1}, func([]int64) float64 { return 1 }) // the same bounds, unsorted
	r.HistogramFunc("ignored", bounds, nil)
	if _, ok := r.Snapshot().Histograms["ignored"]; ok {
		t.Fatal("a nil view registered")
	}
	var nilReg *Registry
	nilReg.HistogramFunc("batch", bounds, func([]int64) float64 { return 1 })

	for _, other := range [][]float64{{1, 100}, {1}, {1, 10, 100}} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "batch") {
					t.Errorf("bounds %v: recovered %q, want a panic naming the histogram", other, msg)
				}
			}()
			r.HistogramFunc("batch", other, func([]int64) float64 { return 1e9 })
		}()
	}
	if hs := r.Snapshot().Histograms["batch"]; hs.Count != 7 || hs.Sum != 124 {
		t.Fatalf("after the refusals: count %d, sum %g; want 7 and 124", hs.Count, hs.Sum)
	}
}

// TestNanotime pins the clock's contract: readings never go backwards, and
// ObserveSince records the seconds between a reading and now.
func TestNanotime(t *testing.T) {
	a := Nanotime()
	time.Sleep(2 * time.Millisecond)
	b := Nanotime()
	if a < 0 || b-a < int64(2*time.Millisecond) {
		t.Fatalf("readings %d then %d across a 2 ms sleep", a, b)
	}
	reg := NewRegistry()
	reg.Histogram("lat", DefBuckets).ObserveSince(a)
	if got := reg.Snapshot().Histograms["lat"]; got.Count != 1 || got.Sum < 2e-3 || got.Sum > 60 {
		t.Fatalf("count %d, sum %g s; want one observation of at least 2 ms", got.Count, got.Sum)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("x")
	h := r.Histogram("x", DefBuckets)
	r.CounterFunc("x", func() int64 { return 1 })
	var ring *EventLog
	// All of these must be no-ops, not panics.
	c.Inc()
	c.Add(2)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	h.ObserveSince(Nanotime())
	ring.Record(Event{Kind: EventSetup})
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || ring.Total() != 0 {
		t.Fatal("nil instruments must read as zero")
	}
	if ring.Events() != nil {
		t.Fatal("nil ring must return no events")
	}
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Histograms) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", s)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500, 5000} {
		h.Observe(v)
	}
	r := NewRegistry()
	r.mu.Lock()
	r.histograms["h"] = h
	r.mu.Unlock()
	hs := r.Snapshot().Histograms["h"]
	want := []int64{2, 1, 1, 2} // (<=1)=0.5,1; (<=10)=5; (<=100)=50; overflow=500,5000
	for i, w := range want {
		if hs.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all %v)", i, hs.Counts[i], w, hs.Counts)
		}
	}
	if hs.Count != 6 {
		t.Fatalf("count = %d", hs.Count)
	}
	if math.Abs(hs.Sum-5556.5) > 1e-9 {
		t.Fatalf("sum = %v", hs.Sum)
	}
	if m := hs.Mean(); math.Abs(m-5556.5/6) > 1e-9 {
		t.Fatalf("mean = %v", m)
	}
}

func TestExpBuckets(t *testing.T) {
	bs := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if bs[i] != want[i] {
			t.Fatalf("buckets %v", bs)
		}
	}
	if ExpBuckets(0, 2, 4) != nil || ExpBuckets(1, 1, 4) != nil || ExpBuckets(1, 2, 0) != nil {
		t.Fatal("degenerate bucket specs must return nil")
	}
}

// TestConcurrentInstruments hammers one registry from many goroutines; run
// under -race this is the data-race check, and the totals must balance.
func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	const workers = 16
	const perWorker = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("shared")
			g := r.Gauge("level")
			h := r.Histogram("lat", []float64{0.5})
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(float64(i%2) * 0.75)
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Counters["shared"] != workers*perWorker {
		t.Fatalf("counter = %d", s.Counters["shared"])
	}
	if s.Gauges["level"] != 0 {
		t.Fatalf("gauge = %v", s.Gauges["level"])
	}
	hs := s.Histograms["lat"]
	if hs.Count != workers*perWorker {
		t.Fatalf("hist count = %d", hs.Count)
	}
	if hs.Counts[0]+hs.Counts[1] != hs.Count {
		t.Fatalf("buckets %v do not sum to count %d", hs.Counts, hs.Count)
	}
}

// TestHistogramSnapshotSelfConsistent: a histogram keeps no count beside its
// buckets, so a snapshot taken while four goroutines observe — each between
// one observation's two updates as often as not — still has Count equal to
// the sum of Counts, every time, which a separate count word read at another
// moment could not promise.
func TestHistogramSnapshotSelfConsistent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", ExpBuckets(1, 2, 6))
	const (
		observers   = 4
		perObserver = 20_000
	)
	var wg sync.WaitGroup
	for w := 0; w < observers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perObserver; i++ {
				h.Observe(float64((i + w) % 100))
			}
		}(w)
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	for done := false; !done; {
		select {
		case <-finished:
			done = true // one more snapshot, of the final state
		default:
		}
		hs := r.Snapshot().Histograms["lat"]
		var sum int64
		for _, c := range hs.Counts {
			sum += c
		}
		if hs.Count != sum {
			t.Fatalf("snapshot count %d, buckets %v sum to %d", hs.Count, hs.Counts, sum)
		}
		if done && (hs.Count != observers*perObserver || h.Count() != hs.Count) {
			t.Fatalf("final count %d (Count() %d), want %d", hs.Count, h.Count(), observers*perObserver)
		}
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(3)
	r.Gauge("g").Set(1.25)
	r.Histogram("h", []float64{1}).Observe(2)
	b, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var got Snapshot
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got.Counters["c"] != 3 || got.Gauges["g"] != 1.25 || got.Histograms["h"].Count != 1 {
		t.Fatalf("round trip lost data: %+v", got)
	}
}

func TestEventLogWrapAround(t *testing.T) {
	ring := NewEventLog(3)
	for i := 1; i <= 5; i++ {
		ring.Record(Event{Kind: EventRenegGrant, VCI: uint16(i), Rate: float64(i)})
	}
	if ring.Total() != 5 {
		t.Fatalf("total = %d", ring.Total())
	}
	evs := ring.Events()
	if len(evs) != 3 {
		t.Fatalf("retained %d", len(evs))
	}
	for i, want := range []uint16{3, 4, 5} {
		if evs[i].VCI != want || evs[i].Seq != uint64(want) {
			t.Fatalf("event %d = %+v, want vci %d", i, evs[i], want)
		}
	}
	if !evs[0].Time.Before(evs[2].Time) && !evs[0].Time.Equal(evs[2].Time) {
		t.Fatal("events out of time order")
	}
}

func TestEventLogPartialFill(t *testing.T) {
	ring := NewEventLog(8)
	ring.Record(Event{Kind: EventSetup, VCI: 9, Port: 1, Rate: 1e5})
	ring.Record(Event{Kind: EventTeardown, VCI: 9, Port: 1})
	evs := ring.Events()
	if len(evs) != 2 || evs[0].Kind != EventSetup || evs[1].Kind != EventTeardown {
		t.Fatalf("events %+v", evs)
	}
}

func TestEventJSONSchema(t *testing.T) {
	ring := NewEventLog(4)
	ring.Record(Event{
		Time: time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC),
		Kind: EventRenegDeny, VCI: 7, Port: 2, Rate: 100e3, Requested: 300e3,
	})
	b, err := json.Marshal(ring.Events())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`"kind":"renegotiate-deny"`, `"vci":7`,
		`"port":2`, `"rate_bps":100000`, `"requested_bps":300000`,
		`"time":"2026-08-06T12:00:00Z"`, `"seq":1`,
	} {
		if !strings.Contains(string(b), want) {
			t.Fatalf("events missing %q:\n%s", want, b)
		}
	}
	// A grant omits requested_bps.
	ring.Record(Event{Kind: EventRenegGrant, VCI: 7, Port: 2, Rate: 300e3})
	if b, err = json.Marshal(ring.Events()); err != nil {
		t.Fatal(err)
	}
	if strings.Count(string(b), "requested_bps") != 1 {
		t.Fatal("requested_bps must be omitted when zero")
	}
}

// TestEveryEventKindHasAWireName counts the Event* constants off the source
// (one iota block starting at 1), so a kind added without a name-table entry
// renders "unknown" here and not first in a dump (a lint analyzer's job until
// PR 24, DESIGN §9).
func TestEveryEventKindHasAWireName(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "eventlog.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	ast.Inspect(f, func(node ast.Node) bool {
		if vs, ok := node.(*ast.ValueSpec); ok && strings.HasPrefix(vs.Names[0].Name, "Event") {
			n++
		}
		return true
	})
	seen := map[string]EventKind{}
	for k := EventKind(1); int(k) <= n; k++ {
		name := k.String()
		if prev, dup := seen[name]; dup || name == "unknown" {
			t.Errorf("kind %d of %d renders %q (also kind %d)", k, n, name, prev)
		}
		seen[name] = k
	}
	if got := EventKind(n + 1).String(); got != "unknown" {
		t.Errorf("kind %d, past the %d declared, renders %q", n+1, n, got)
	}
}

func TestEventKindString(t *testing.T) {
	names := map[EventKind]string{
		EventSetup:       "setup",
		EventSetupReject: "setup-reject",
		EventRenegGrant:  "renegotiate-grant",
		EventRenegDeny:   "renegotiate-deny",
		EventResync:      "resync",
		EventTeardown:    "teardown",
		EventKind(99):    "unknown",
		EventKind(0):     "unknown",
	}
	for k, want := range names {
		if k.String() != want {
			t.Fatalf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}
