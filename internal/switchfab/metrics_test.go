package switchfab

import (
	"strings"
	"sync"
	"testing"

	"rcbr/internal/cell"
	"rcbr/internal/metrics"
)

// TestConcurrentRenegotiationMetrics hammers one port from N goroutines and
// checks the books balance: every renegotiation attempt is either a grant or
// a denial, and after all teardowns the port's reserved gauge is back to
// zero. Run with -race this is also the concurrency check on the
// instrumented hot path.
func TestConcurrentRenegotiationMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	ring := metrics.NewEventLog(64)
	sw := New(WithMetrics(reg), WithEventTrace(ring))
	// Each worker ratchets its requested rate upward, so the port saturates
	// under every interleaving: early increases are granted, later ones
	// denied. Both hot paths get exercised deterministically.
	const (
		workers   = 8
		perWorker = 200
		base      = 100e3
		step      = 10e3
	)
	if err := sw.AddPort(1, 4e6); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < workers; i++ {
		if err := sw.Setup(uint16(i+1), 1, base); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(vci VCID) {
			defer wg.Done()
			for k := 0; k < perWorker; k++ {
				if _, _, err := sw.RenegotiateID(vci, base+float64(k+1)*step); err != nil {
					t.Error(err)
					return
				}
			}
		}(VCID(i + 1))
	}
	wg.Wait()
	// Workers leave their rates ramped up (the port is saturated under any
	// interleaving); settle each back to base — a decrease, always granted
	// — so the teardown accounting below is exact.
	for i := 0; i < workers; i++ {
		if _, ok, err := sw.RenegotiateID(VCID(i+1), base); err != nil || !ok {
			t.Fatalf("settle vci %d: ok=%v err=%v", i+1, ok, err)
		}
	}
	for i := 0; i < workers; i++ {
		if err := sw.TeardownID(VCID(i + 1)); err != nil {
			t.Fatal(err)
		}
	}

	s := reg.Snapshot()
	attempts := s.Counters[MetricRenegs]
	grants := s.Counters[MetricGrants]
	denies := s.Counters[MetricDenials]
	if attempts < workers*perWorker {
		t.Fatalf("attempts = %d, want >= %d", attempts, workers*perWorker)
	}
	if grants+denies != attempts {
		t.Fatalf("grants %d + denies %d != attempts %d", grants, denies, attempts)
	}
	if denies == 0 {
		t.Fatal("no denials: the port never saturated, test lost its teeth")
	}
	if got := s.Counters[MetricSetups]; got != workers {
		t.Fatalf("setups = %d", got)
	}
	if got := s.Counters[MetricTeardowns]; got != workers {
		t.Fatalf("teardowns = %d", got)
	}
	if got := s.Gauges[PortReservedGauge(1)]; got != 0 {
		t.Fatalf("reserved gauge = %g after all teardowns", got)
	}
	if s.Histograms[MetricRenegLatency].Count != attempts {
		t.Fatalf("latency observations = %d, want %d",
			s.Histograms[MetricRenegLatency].Count, attempts)
	}
	// The ring saw more events than it retains and keeps the most recent.
	if ring.Total() < uint64(workers*perWorker) {
		t.Fatalf("ring total = %d", ring.Total())
	}
	evs := ring.Events()
	if len(evs) != 64 {
		t.Fatalf("ring retained %d", len(evs))
	}
	if evs[len(evs)-1].Kind != metrics.EventTeardown {
		t.Fatalf("last event = %v, want teardown", evs[len(evs)-1].Kind)
	}
}

// TestMetricsMirrorSwitchState checks the gauges and event kinds across a
// plain setup → renegotiate → deny → teardown sequence.
func TestMetricsMirrorSwitchState(t *testing.T) {
	reg := metrics.NewRegistry()
	ring := metrics.NewEventLog(16)
	sw := New(WithMetrics(reg), WithEventTrace(ring))
	if err := sw.AddPort(7, 1e6); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Gauges[PortCapacityGauge(7)]; got != 1e6 {
		t.Fatalf("capacity gauge = %g", got)
	}
	if err := sw.Setup(3, 7, 400e3); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := sw.RenegotiateID(3, 900e3); !ok {
		t.Fatal("in-capacity increase denied")
	}
	if _, ok, _ := sw.RenegotiateID(3, 2e6); ok {
		t.Fatal("over-capacity increase granted")
	}
	if got := reg.Snapshot().Gauges[PortReservedGauge(7)]; got != 900e3 {
		t.Fatalf("reserved gauge = %g, want 900e3", got)
	}
	// Over-capacity setup and admission-style reject surface as events too.
	if err := sw.Setup(4, 7, 500e3); err == nil {
		t.Fatal("over-capacity setup accepted")
	}
	if err := sw.TeardownID(3); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Gauges[PortReservedGauge(7)]; got != 0 {
		t.Fatalf("reserved gauge = %g after teardown", got)
	}

	var kinds []metrics.EventKind
	for _, e := range ring.Events() {
		kinds = append(kinds, e.Kind)
	}
	want := []metrics.EventKind{
		metrics.EventSetup, metrics.EventRenegGrant, metrics.EventRenegDeny,
		metrics.EventSetupReject, metrics.EventTeardown,
	}
	if len(kinds) != len(want) {
		t.Fatalf("event kinds %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("event %d = %v, want %v", i, kinds[i], want[i])
		}
	}
	deny := ring.Events()[2]
	if deny.Requested != 2e6 || deny.Rate != 900e3 {
		t.Fatalf("deny event %+v", deny)
	}
}

// TestResyncEventsAndLatencyAccounting checks the instrumentation contract
// of HandleRM: resync grants are traced as resync events (not plain
// renegotiation grants), duplicate drops hit their counter without faking a
// renegotiation attempt, and the latency histogram records one observation
// per HandleRM/Renegotiate call past argument validation — grant, deny,
// duplicate drop, and missing-VC error alike.
func TestResyncEventsAndLatencyAccounting(t *testing.T) {
	reg := metrics.NewRegistry()
	ring := metrics.NewEventLog(16)
	sw := New(WithMetrics(reg), WithEventTrace(ring))
	if err := sw.AddPort(1, 1e6); err != nil {
		t.Fatal(err)
	}
	if err := sw.Setup(4, 1, 100e3); err != nil {
		t.Fatal(err)
	}
	h := cell.Header{VCI: 4, PTI: cell.PTIRM}

	calls := 0
	// Delta grant, resync grant, duplicate drop, over-capacity resync deny.
	if resp, err := sw.HandleRM(h, cell.RM{ER: 100e3, Seq: 1}); err != nil || resp.Deny {
		t.Fatalf("delta: %+v %v", resp, err)
	}
	calls++
	if resp, err := sw.HandleRM(h, cell.RM{ER: 300e3, Resync: true, Seq: 2}); err != nil || resp.Deny {
		t.Fatalf("resync: %+v %v", resp, err)
	}
	calls++
	if resp, err := sw.HandleRM(h, cell.RM{ER: 100e3, Seq: 1}); err != nil || resp.Deny {
		t.Fatalf("dup: %+v %v", resp, err)
	}
	calls++
	if resp, err := sw.HandleRM(h, cell.RM{ER: 5e6, Resync: true, Seq: 3}); err != nil || !resp.Deny {
		t.Fatalf("oversubscribed resync not denied: %+v %v", resp, err)
	}
	calls++
	// Error paths past validation observe latency too.
	if _, err := sw.HandleRM(cell.Header{VCI: 99}, cell.RM{ER: 1, Seq: 1}); err == nil {
		t.Fatal("missing VC accepted")
	}
	calls++
	if _, _, err := sw.RenegotiateID(99, 1e3); err == nil {
		t.Fatal("missing VC accepted")
	}
	calls++

	s := reg.Snapshot()
	if got := s.Counters[MetricDupDrops]; got != 1 {
		t.Fatalf("%s = %d, want 1", MetricDupDrops, got)
	}
	if got := s.Counters[MetricResyncs]; got != 2 {
		t.Fatalf("%s = %d, want 2 (denied resync still counts the attempt)", MetricResyncs, got)
	}
	// Attempts: delta grant + resync grant + denied resync. The dup drop and
	// the missing-VC errors never reach the decision.
	if got := s.Counters[MetricRenegs]; got != 3 {
		t.Fatalf("%s = %d, want 3", MetricRenegs, got)
	}
	if got := s.Histograms[MetricRenegLatency].Count; got != int64(calls) {
		t.Fatalf("latency observations = %d, want %d (one per call past validation)", got, calls)
	}

	var kinds []metrics.EventKind
	for _, e := range ring.Events() {
		kinds = append(kinds, e.Kind)
	}
	want := []metrics.EventKind{
		metrics.EventSetup, metrics.EventRenegGrant, metrics.EventResync,
		metrics.EventRenegDeny,
	}
	if len(kinds) != len(want) {
		t.Fatalf("event kinds %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("event %d = %v, want %v", i, kinds[i], want[i])
		}
	}
	resync := ring.Events()[2]
	if resync.VCI != 4 || resync.Rate != 300e3 {
		t.Fatalf("resync event %+v", resync)
	}
}

// TestUninstrumentedSwitchStillWorks covers the no-options path: a switch
// built by New() works and records nothing.
func TestUninstrumentedSwitchStillWorks(t *testing.T) {
	sw := New()
	if err := sw.AddPort(1, 1e6); err != nil {
		t.Fatal(err)
	}
	if err := sw.Setup(1, 1, 100e3); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := sw.RenegotiateID(1, 200e3); err != nil || !ok {
		t.Fatalf("renegotiate: ok=%v err=%v", ok, err)
	}
	if err := sw.TeardownID(1); err != nil {
		t.Fatal(err)
	}
	if st := sw.Stats(); st.Setups != 1 || st.Renegotiations != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestVCsListing(t *testing.T) {
	sw := New()
	if err := sw.AddPort(1, 1e7); err != nil {
		t.Fatal(err)
	}
	for _, vci := range []uint16{30, 10, 20} {
		if err := sw.Setup(vci, 1, float64(vci)*1e3); err != nil {
			t.Fatal(err)
		}
	}
	vcs := sw.VCs()
	if len(vcs) != 3 {
		t.Fatalf("vcs %+v", vcs)
	}
	for i, want := range []uint16{10, 20, 30} {
		if vcs[i].VCI != want || vcs[i].Rate != float64(want)*1e3 || vcs[i].Port != 1 {
			t.Fatalf("vcs[%d] = %+v", i, vcs[i])
		}
	}
}

// TestCountersAreViewsOfStats pins one counter per fact: after a run that
// moves every activity counter, each switch.* counter in the registry
// snapshot reads exactly the matching Stats field — the registry views the
// switch's own counters instead of keeping a second set.
func TestCountersAreViewsOfStats(t *testing.T) {
	reg := metrics.NewRegistry()
	sw := New(WithMetrics(reg))
	if err := sw.AddPort(1, 1e6); err != nil {
		t.Fatal(err)
	}
	if err := sw.Setup(1, 1, 100e3); err != nil {
		t.Fatal(err)
	}
	if err := sw.Setup(2, 1, 100e3); err != nil {
		t.Fatal(err)
	}
	if err := sw.Setup(3, 1, 5e6); !IsReject(err) {
		t.Fatalf("over-capacity setup: %v", err)
	}
	h := cell.Header{VCI: 1, PTI: cell.PTIRM}
	sw.HandleRM(h, cell.RM{ER: 100e3, Seq: 1})               // grant
	sw.HandleRM(h, cell.RM{ER: 100e3, Seq: 1})               // duplicate drop
	sw.HandleRM(h, cell.RM{ER: 300e3, Resync: true, Seq: 2}) // resync
	sw.RenegotiateID(1, 5e6)                                 // denial
	sw.RenegotiateBestID(2, 5e6)                             // partial grant
	sw.RenegotiateBestID(1, 5e6)                             // no headroom left: denial
	if err := sw.TeardownID(2); err != nil {
		t.Fatal(err)
	}
	p := sw.port(1)
	p.mu.Lock()
	reserved := p.reserved
	sw.setReserved(p, -1) // force the clamp
	sw.setReserved(p, reserved)
	p.mu.Unlock()

	st, snap := sw.Stats(), reg.Snapshot()
	for name, want := range map[string]int64{
		MetricSetups:          st.Setups,
		MetricSetupRejects:    st.SetupRejects,
		MetricTeardowns:       st.Teardowns,
		MetricRenegs:          st.Renegotiations,
		MetricGrants:          st.Grants,
		MetricDenials:         st.Denials,
		MetricPartialGrants:   st.PartialGrants,
		MetricResyncs:         st.Resyncs,
		MetricDupDrops:        st.DupDrops,
		MetricReservedClamped: st.ReservedClamps,
	} {
		if want == 0 {
			t.Errorf("%s: the run never moved this counter", name)
		}
		if got, ok := snap.Counters[name]; !ok || got != want {
			t.Errorf("%s = %d (present=%v), Stats says %d", name, got, ok, want)
		}
	}
	if st.Renegotiations != st.Grants+st.Denials {
		t.Errorf("renegotiations %d != grants %d + denials %d", st.Renegotiations, st.Grants, st.Denials)
	}
	n := 0
	for name := range snap.Counters {
		if strings.HasPrefix(name, "switch.") {
			n++
		}
	}
	if n != 10 {
		t.Errorf("registry holds %d switch.* counters, the test checks 10", n)
	}
}

// TestRenegLatencyResolvesSubMicrosecond holds switch.renegotiation_seconds to
// resolving what it times: an in-switch renegotiation takes well under a
// microsecond, so on a scripted clock that moves 300 ns per read one
// renegotiation must land in the ≤ 400 ns bucket, not in the first bucket
// that a millisecond-scale bound set would put every renegotiation in.
func TestRenegLatencyResolvesSubMicrosecond(t *testing.T) {
	reg := metrics.NewRegistry()
	sw := New(WithMetrics(reg))
	var now int64
	sw.clock = func() int64 { now += 300; return now }
	if err := sw.AddPort(1, 10e6); err != nil {
		t.Fatal(err)
	}
	if err := sw.SetupID(1, 1, 1e6); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := sw.RenegotiateID(1, 2e6); err != nil || !ok {
		t.Fatalf("renegotiate: ok=%v err=%v", ok, err)
	}
	h := reg.Snapshot().Histograms[MetricRenegLatency]
	if h.Count != 1 {
		t.Fatalf("%d observations, want 1", h.Count)
	}
	for i, n := range h.Counts {
		if n == 0 {
			continue
		}
		if i == len(h.Bounds) || h.Bounds[i] != 400e-9 {
			t.Errorf("a 300 ns renegotiation landed in bucket %d of %v, want the ≤ 400 ns bucket", i, h.Bounds)
		}
	}
}
