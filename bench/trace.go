package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"text/tabwriter"
	"time"
)

// span is one timed call from the driver into a layer. Start and End are
// nanoseconds since the traced pass began; Parent is the ID of the span
// that caused it (0 for a root); Req ties the spans of one request — a
// forwarding cycle, a control batch, a renegotiation, a frame — together.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer collects spans in memory for one goroutine (a lane); lanes are
// merged after the pass, so recording takes no lock. A nil tracer records
// nothing, which is how the untraced passes run the same code.
type tracer struct {
	t0    time.Time
	lane  int64
	spans []span
}

func newTracer(t0 time.Time, lane int) *tracer {
	return &tracer{t0: t0, lane: int64(lane+1) << 32, spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its ID (0 from a nil tracer).
func (t *tracer) begin(name string, parent, req int64) int64 {
	if t == nil {
		return 0
	}
	id := t.lane | int64(len(t.spans)+1)
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Req: req, Start: int64(time.Since(t.t0))})
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int64) {
	if t == nil {
		return
	}
	t.spans[id&(1<<32-1)-1].End = int64(time.Since(t.t0))
}

// traceSet hands one tracer lane to each goroutine of a traced pass. A nil
// traceSet hands out nil tracers.
type traceSet struct {
	t0    time.Time
	mu    sync.Mutex
	lanes []*tracer
}

func newTraceSet() *traceSet { return &traceSet{t0: time.Now()} }

// lane returns a fresh tracer owned by the calling goroutine.
func (ts *traceSet) lane() *tracer {
	if ts == nil {
		return nil
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	t := newTracer(ts.t0, len(ts.lanes))
	ts.lanes = append(ts.lanes, t)
	return t
}

// merged returns every lane's spans ordered by start time. Call it only
// after the goroutines that own the lanes have finished.
func (ts *traceSet) merged() []span {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	var all []span
	for _, t := range ts.lanes {
		all = append(all, t.spans...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	return all
}

// writeTrace stores the traced pass as dir/trace-<workload>.json.
func writeTrace(dir string, man manifest, budgets []budget, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+man.Workload+".json"))
	if err != nil {
		return err
	}
	doc := struct {
		Manifest manifest `json:"manifest"`
		Budgets  []budget `json:"budgets"`
		Spans    []span   `json:"spans"`
	}{man, budgets, spans}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		_ = f.Close() // the encode error is the one to report
		return err
	}
	return f.Close()
}

// layerTime is what the spans of one name add up to. A span's self time
// is its duration minus the durations of its direct children.
type layerTime struct {
	Name       string  `json:"name"`
	Count      int     `json:"count"`
	Total      int64   `json:"total_ns"`       // sum of durations
	Self       int64   `json:"self_ns"`        // sum of self times
	MedianSelf float64 `json:"median_self_ns"` // median self time of one span
}

// selfTimes folds spans into per-name totals, sorted by name.
func selfTimes(spans []span) []layerTime {
	children := make(map[int64]int64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	byName := make(map[string]*layerTime)
	selfs := make(map[string][]int64)
	for _, s := range spans {
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			byName[s.Name] = lt
		}
		d := s.End - s.Start
		self := d - children[s.ID]
		lt.Count++
		lt.Total += d
		lt.Self += self
		selfs[s.Name] = append(selfs[s.Name], self)
	}
	out := make([]layerTime, 0, len(byName))
	for name, lt := range byName {
		lt.MedianSelf = quantile(sortedCopy(selfs[name]), 0.5)
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// layerNamed returns the entry of one span name, zero if absent.
func layerNamed(lts []layerTime, name string) layerTime {
	for _, lt := range lts {
		if lt.Name == name {
			return lt
		}
	}
	return layerTime{Name: name}
}

// perUnit is a layer's typical cost per unit of work: the median self time
// of one of its spans, times how many of them there were, over the units
// the traced spans covered. Medians keep one preempted span out of it.
func (lt layerTime) perUnit(units int64) float64 {
	if units == 0 {
		return 0
	}
	return lt.MedianSelf * float64(lt.Count) / float64(units)
}

// budget is the sum-of-parts against the whole for one traced pass: every
// layer's cost per unit of work, beside what one unit cost the untraced
// pass before it (the median iteration of the driver's loop, per unit).
type budget struct {
	Unit         string      `json:"unit"`
	TracedUnits  int64       `json:"traced_units"`
	UntracedNs   float64     `json:"untraced_ns_per_unit"`
	SumOfPartsNs float64     `json:"sum_of_parts_ns_per_unit"`
	Layers       []layerTime `json:"layers"`
}

// newBudget reconciles lts, whose spans covered units of work, against
// untracedNs.
func newBudget(lts []layerTime, unit string, units int64, untracedNs float64) budget {
	b := budget{Unit: unit, TracedUnits: units, UntracedNs: untracedNs, Layers: lts}
	for _, lt := range lts {
		b.SumOfPartsNs += lt.perUnit(units)
	}
	return b
}

// print writes the budget table.
func (b budget) print(w io.Writer) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "span\tcount\ttotal ms\tself ms\tmedian self ns\tns/%s\t\n", b.Unit)
	for _, lt := range b.Layers {
		fmt.Fprintf(tw, "%s\t%d\t%.3f\t%.3f\t%.0f\t%.1f\t\n", lt.Name, lt.Count,
			float64(lt.Total)/1e6, float64(lt.Self)/1e6, lt.MedianSelf, lt.perUnit(b.TracedUnits))
	}
	_ = tw.Flush() // diagnostics to the terminal
	gap := 0.0
	if b.UntracedNs > 0 {
		gap = (b.SumOfPartsNs - b.UntracedNs) / b.UntracedNs
	}
	fmt.Fprintf(w, "sum of parts %.1f ns/%s over %d traced %ss; untraced whole %.1f ns/%s; gap %+.1f%%\n",
		b.SumOfPartsNs, b.Unit, b.TracedUnits, b.Unit, b.UntracedNs, b.Unit, 100*gap)
}
