package switchfab

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"rcbr/internal/cell"
	"rcbr/internal/metrics"
	"rcbr/internal/stats"
)

// bookRecorder is an Admitter and a DataPlane that counts what it is told:
// a refused rate must reach neither.
type bookRecorder struct{ calls int }

func (r *bookRecorder) AdmitCall(int, float64, float64, float64) bool { r.calls++; return true }
func (r *bookRecorder) OnSetup(int, VCID, float64)                    { r.calls++ }
func (r *bookRecorder) OnRateChange(int, VCID, float64)               { r.calls++ }
func (r *bookRecorder) OnTeardown(int, VCID)                          { r.calls++ }

// TestSetupRejectsNonFiniteRates is the headline poisoning regression, and
// since PR 22 the whole of what a taint analyzer held for this package
// before (DESIGN §9): a NaN rate passes a bare `rate < 0` check (NaN fails
// every ordered comparison), lands in port.reserved, and then every
// capacity comparison on the port is false forever — permanent overcommit
// from one crafted message. So every exported entry point that takes a rate
// is fed every kind of bad one and must answer ErrInvalidRate with the
// books exactly as they were: the port's load, the VC's rate, the counters,
// and nothing said to the admitter or the data plane.
func TestSetupRejectsNonFiniteRates(t *testing.T) {
	rec := &bookRecorder{}
	s := New(WithAdmitter(rec), WithDataPlane(rec))
	if err := s.AddPort(1, 1e6); err != nil {
		t.Fatal(err)
	}
	if err := s.SetupID(10, 1, 100e3); err != nil {
		t.Fatal(err)
	}
	handleRM := func(m cell.RM) error { _, err := s.HandleRM(cell.Header{VCI: 10}, m); return err }
	entries := []struct {
		name string
		call func(rate float64) error
	}{
		{"AddPort", func(r float64) error { return s.AddPort(2, r) }},
		{"Setup", func(r float64) error { return s.Setup(11, 1, r) }},
		{"SetupID", func(r float64) error { return s.SetupID(11, 1, r) }},
		{"RenegotiateID", func(r float64) error { _, _, err := s.RenegotiateID(10, r); return err }},
		{"RenegotiateBestID", func(r float64) error { _, _, err := s.RenegotiateBestID(10, r); return err }},
		{"HandleRM delta", func(r float64) error { return handleRM(cell.RM{ER: r, Seq: 1}) }},
		{"HandleRM resync", func(r float64) error { return handleRM(cell.RM{ER: r, Resync: true}) }},
	}
	stats, told := s.Stats(), rec.calls
	for _, e := range entries {
		for _, rate := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
			if err := e.call(rate); !errors.Is(err, ErrInvalidRate) {
				t.Errorf("%s(%v): %v, want ErrInvalidRate", e.name, rate, err)
			}
			if reserved, _, err := s.PortLoad(1); err != nil || reserved != 100e3 {
				t.Fatalf("%s(%v): PortLoad = %v, %v, want 100e3", e.name, rate, reserved, err)
			}
			if r, err := s.VCRateID(10); err != nil || r != 100e3 {
				t.Fatalf("%s(%v): VCRateID = %v, %v, want 100e3", e.name, rate, r, err)
			}
			if got := s.Stats(); got != stats {
				t.Fatalf("%s(%v): stats moved: %+v, were %+v", e.name, rate, got, stats)
			}
			if rec.calls != told {
				t.Fatalf("%s(%v): the admitter or the data plane heard of it", e.name, rate)
			}
		}
	}
	if _, _, err := s.PortLoad(2); !errors.Is(err, ErrNoPort) {
		t.Errorf("a port with an invalid capacity exists: %v", err)
	}
	if s.VCCount() != 1 {
		t.Errorf("VCCount = %d, want 1", s.VCCount())
	}
	// The sequence state is a book too: Seq 1 was refused, not seen.
	if resp, err := s.HandleRM(cell.Header{VCI: 10}, cell.RM{ER: 100e3, Seq: 1}); err != nil || resp.Deny || resp.ER != 200e3 {
		t.Fatalf("port poisoned: delta after the bad rates = %+v %v", resp, err)
	}
}

// TestReservedClampInstrumented drives the defensive clamp directly (the
// accounting paths are exact for representable rates, so only a forced
// negative reaches it) and checks it is counted, metered, and traced.
func TestReservedClampInstrumented(t *testing.T) {
	reg := metrics.NewRegistry()
	ring := metrics.NewEventLog(8)
	s := New(WithMetrics(reg), WithEventTrace(ring))
	if err := s.AddPort(1, 1e6); err != nil {
		t.Fatal(err)
	}
	p := s.port(1)
	p.mu.Lock()
	s.setReserved(p, -0.25)
	p.mu.Unlock()
	if got := s.Stats().ReservedClamps; got != 1 {
		t.Fatalf("ReservedClamps = %d, want 1", got)
	}
	reserved, _, _ := s.PortLoad(1)
	if reserved != 0 {
		t.Fatalf("reserved after clamp = %v, want 0", reserved)
	}
	snap := reg.Snapshot()
	if got := snap.Counters[MetricReservedClamped]; got != 1 {
		t.Fatalf("%s = %v, want 1", MetricReservedClamped, got)
	}
	events := ring.Events()
	found := false
	for _, e := range events {
		if e.Kind == metrics.EventReservedClamp && e.Port == 1 && e.Requested == -0.25 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no reserved-clamp event in trace: %+v", events)
	}
}

// TestSetupTeardownDrift churns driftOps setup/teardown pairs of
// integer-valued rates through one port and requires the drained reservation
// to return to exactly zero — not within epsilon. Integer rates below 2^53
// add and subtract exactly in float64, so any residue (or any clamp tick)
// is a double-count or leak in the accounting, not rounding.
func TestSetupTeardownDrift(t *testing.T) {
	ops := driftOps
	if testing.Short() {
		ops = 50_000
	}
	s := newTestSwitch(t, 1e9)
	rates := []float64{64e3, 512e3, 1e6, 2e6, 4e6}
	const live = 64 // concurrent calls held open so adds and removes interleave
	for i := 0; i < ops; i++ {
		id := VCID(i % live)
		if i >= live {
			if err := s.TeardownID(id); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.SetupID(id, 1, rates[i%len(rates)]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < live; i++ {
		if err := s.TeardownID(VCID(i)); err != nil {
			t.Fatal(err)
		}
	}
	reserved, _, err := s.PortLoad(1)
	if err != nil {
		t.Fatal(err)
	}
	if reserved != 0 {
		t.Fatalf("drained port reserved = %v, want exactly 0", reserved)
	}
	if clamps := s.Stats().ReservedClamps; clamps != 0 {
		t.Fatalf("ReservedClamps = %d under exact-rate churn, want 0", clamps)
	}
	if s.VCCount() != 0 {
		t.Fatalf("VCCount = %d after drain", s.VCCount())
	}
}

// TestVCsPage checks that pages concatenate to exactly the full sorted
// listing, for page sizes that do and do not divide the population.
func TestVCsPage(t *testing.T) {
	s := New()
	for p := 0; p < 4; p++ {
		if err := s.AddPort(p, 1e9); err != nil {
			t.Fatal(err)
		}
	}
	const n = 137
	for i := 0; i < n; i++ {
		// Spread over VPIs so ordering crosses the 16-bit boundary.
		id := MakeVCID(uint8(i%3), uint16(i*31))
		if err := s.SetupID(id, i%4, float64(1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	full := s.VCs()
	if len(full) != n {
		t.Fatalf("VCs() = %d entries, want %d", len(full), n)
	}
	for _, limit := range []int{1, 7, 50, n, n + 10} {
		var paged []VCInfo
		for offset := 0; ; offset += limit {
			page, total := s.VCsPage(offset, limit)
			if total != n {
				t.Fatalf("total = %d, want %d", total, n)
			}
			if len(page) == 0 {
				break
			}
			if len(page) > limit {
				t.Fatalf("page of %d entries exceeds limit %d", len(page), limit)
			}
			paged = append(paged, page...)
		}
		if len(paged) != len(full) {
			t.Fatalf("limit %d: %d paged entries, want %d", limit, len(paged), len(full))
		}
		for i := range full {
			if paged[i] != full[i] {
				t.Fatalf("limit %d: entry %d = %+v, want %+v", limit, i, paged[i], full[i])
			}
		}
	}
	if page, total := s.VCsPage(n+5, 10); len(page) != 0 || total != n {
		t.Fatalf("offset past end: %d entries, total %d", len(page), total)
	}
	if page, total := s.VCsPage(0, 0); page != nil || total != n {
		t.Fatalf("limit 0: %v, total %d", page, total)
	}
	if page, _ := s.VCsPage(-3, 2); len(page) != 2 || page[0] != full[0] {
		t.Fatalf("negative offset: %+v", page)
	}
}

// countingLifecycle wraps a lifecycleAdmitter and counts every notification,
// so a storm can assert the switch delivered exactly one onAdmit per
// successful setup and one onDepart per teardown — no double-counted admits,
// no leaked departures — and that every record it handed back was one
// onAdmit returned and onDepart had not yet taken.
type countingLifecycle struct {
	inner                        lifecycleAdmitter
	admits, rateChanges, departs atomic.Int64
	// strays counts onRateChange and onDepart calls whose record was not
	// live: never returned by onAdmit, or already departed.
	strays atomic.Int64

	mu   sync.Mutex
	live map[*callRecord]bool
}

// AdmitCall makes the wrapper an Admitter, so WithAdmitter accepts it; the
// switch drives it through the lifecycle methods and never calls this.
func (c *countingLifecycle) AdmitCall(port int, rate, reserved, capacity float64) bool {
	panic("countingLifecycle: the switch called AdmitCall on a lifecycle admitter")
}

func (c *countingLifecycle) admit(port int, now int64, rate, reserved, capacity float64) bool {
	return c.inner.admit(port, now, rate, reserved, capacity)
}

func (c *countingLifecycle) onAdmit(port int, now int64, rate float64) *callRecord {
	c.admits.Add(1)
	rec := c.inner.onAdmit(port, now, rate)
	c.mu.Lock()
	c.live[rec] = true
	c.mu.Unlock()
	return rec
}

func (c *countingLifecycle) onRateChange(port int, rec *callRecord, now int64, newRate float64) {
	c.rateChanges.Add(1)
	c.mu.Lock()
	ok := c.live[rec]
	c.mu.Unlock()
	if !ok {
		c.strays.Add(1)
		return // moving a departed record would panic inside the controller
	}
	c.inner.onRateChange(port, rec, now, newRate)
}

func (c *countingLifecycle) onDepart(port int, rec *callRecord) {
	c.departs.Add(1)
	c.mu.Lock()
	ok := c.live[rec]
	// Departed records stay in the map, as false: that keeps them reachable,
	// so no later record can reuse the address and hide a stray.
	c.live[rec] = false
	c.mu.Unlock()
	if !ok {
		c.strays.Add(1)
		return
	}
	c.inner.onDepart(port, rec)
}

// TestParallelSetupChurnStorm hammers setup/renegotiate/teardown from many
// goroutines across ports with the stateful memory admitter
// installed. Run under -race (the Makefile's race target does), this is the
// proof that removing the global setup mutex kept the stateful-admission
// path correct: lifecycle notifications balance operations exactly and the
// fabric drains to zero everywhere. Beside each worker churning its own 16
// ids, two raiders renegotiate ids picked across every worker's block, so
// renegotiations race the owners' teardowns and re-setups of the same VC:
// the gone check under the port mutex must keep a record from moving after
// it left.
func TestParallelSetupChurnStorm(t *testing.T) {
	const ports = 8
	inner, err := NewMemoryAdmitter([]float64{64e3, 512e3, 1e6, 2e6, 4e6}, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	counter := &countingLifecycle{inner: inner, live: make(map[*callRecord]bool)}
	s := New(WithAdmitter(counter))
	for p := 0; p < ports; p++ {
		if err := s.AddPort(p, 1e12); err != nil { // capacity out of the way: exercise accounting, not blocking
			t.Fatal(err)
		}
	}
	const workers, live = 8, 16
	iters := stormIters
	if testing.Short() {
		iters = 200
	}
	rates := []float64{64e3, 512e3, 1e6, 2e6, 4e6}
	var setups, teardowns, renegGrants atomic.Int64
	var wg, raiders sync.WaitGroup
	done := make(chan struct{})
	for r := 0; r < 2; r++ {
		raiders.Add(1)
		go func(r int) {
			defer raiders.Done()
			rng := stats.NewRNG(uint64(r) + 1)
			for {
				select {
				case <-done:
					return
				default:
				}
				id := VCID(rng.Intn(workers)*1000 + rng.Intn(live))
				_, ok, err := s.RenegotiateID(id, rates[rng.Intn(len(rates))])
				switch {
				case errors.Is(err, ErrNoVC): // lost the race to the owner's teardown
				case err != nil:
					t.Error(err)
					return
				case ok:
					renegGrants.Add(1)
				}
			}
		}(r)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := VCID(w * 1000)
			for i := 0; i < iters; i++ {
				id := base + VCID(i%live)
				port := int(id) % ports
				if i >= live {
					if err := s.TeardownID(id); err != nil {
						t.Error(err)
						return
					}
					teardowns.Add(1)
				}
				if err := s.SetupID(id, port, rates[i%len(rates)]); err != nil {
					t.Error(err)
					return
				}
				setups.Add(1)
				if i%3 == 0 {
					_, ok, err := s.RenegotiateID(id, rates[(i+1)%len(rates)])
					if err != nil {
						t.Error(err)
						return
					}
					if ok {
						renegGrants.Add(1)
					}
				}
			}
			for i := 0; i < live && i < iters; i++ {
				if err := s.TeardownID(base + VCID(i%live)); err != nil {
					t.Error(err)
					return
				}
				teardowns.Add(1)
			}
		}(w)
	}
	wg.Wait()
	close(done)
	raiders.Wait()
	if t.Failed() {
		return
	}
	if got := counter.admits.Load(); got != setups.Load() {
		t.Errorf("OnAdmit count %d != successful setups %d", got, setups.Load())
	}
	if got := counter.departs.Load(); got != teardowns.Load() {
		t.Errorf("OnDepart count %d != teardowns %d", got, teardowns.Load())
	}
	if got := counter.strays.Load(); got != 0 {
		t.Errorf("%d lifecycle calls carried a record that was not live", got)
	}
	// Renegotiating to the same rate is a grant without a rate change, so
	// OnRateChange is bounded by grants, never exceeds them.
	if got := counter.rateChanges.Load(); got > renegGrants.Load() {
		t.Errorf("OnRateChange count %d > granted renegotiations %d", got, renegGrants.Load())
	}
	if n := s.VCCount(); n != 0 {
		t.Errorf("VCCount = %d after drain", n)
	}
	for p := 0; p < ports; p++ {
		reserved, _, err := s.PortLoad(p)
		if err != nil {
			t.Fatal(err)
		}
		if reserved != 0 {
			t.Errorf("port %d reserved = %v after drain, want exactly 0", p, reserved)
		}
		if calls := inner.PortCalls(p); calls != 0 {
			t.Errorf("admitter still tracks %d calls on drained port %d", calls, p)
		}
		// The count alone can be right with a record entered and never
		// left, if another left twice; the per-level occupancy cannot.
		for level, n := range inner.lookup(p).ctl.Active() {
			if n != 0 {
				t.Errorf("port %d level %d: %v calls still active after drain", p, level, n)
			}
		}
	}
	st := s.Stats()
	if st.ReservedClamps != 0 {
		t.Errorf("ReservedClamps = %d, want 0", st.ReservedClamps)
	}
	// One counter per fact: a decision is a grant or a denial and is counted
	// as that alone; the callers' own tally says how many grants there were.
	if st.Renegotiations != st.Grants+st.Denials || st.Grants != renegGrants.Load() {
		t.Errorf("%d renegotiations, %d grants, %d denials; callers saw %d grants",
			st.Renegotiations, st.Grants, st.Denials, renegGrants.Load())
	}
}

// TestParallelPlainAdmitterSerialized drives setups on 8 ports at once
// through a plain AdmitterFunc whose state is a bare, unsynchronised
// counter. WithAdmitter's wrapper is all that stands between the ports'
// mutexes (which do not exclude each other) and that counter: under -race an
// unserialized call is a reported race, and the in/out flag catches a
// concurrent entry even without the detector. One AdmitCall per setup, no
// more: the lifecycle hooks of the wrapper must not reach the function.
func TestParallelPlainAdmitterSerialized(t *testing.T) {
	const ports = 8
	var calls int      // the admitter's own state: no lock, no atomic
	var inside bool    // likewise
	var overlapped int // likewise
	s := New(WithAdmitter(AdmitterFunc(func(int, float64, float64, float64) bool {
		if inside {
			overlapped++
		}
		inside = true
		calls++
		inside = false
		return true
	})))
	for p := 0; p < ports; p++ {
		if err := s.AddPort(p, 1e12); err != nil {
			t.Fatal(err)
		}
	}
	iters := stormIters
	if testing.Short() {
		iters = 200
	}
	var wg sync.WaitGroup
	for p := 0; p < ports; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			id := VCID(p)
			for i := 0; i < iters; i++ {
				if err := s.SetupID(id, p, 64e3); err != nil {
					t.Error(err)
					return
				}
				if _, _, err := s.RenegotiateID(id, 128e3); err != nil {
					t.Error(err)
					return
				}
				if err := s.TeardownID(id); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if want := ports * iters; calls != want {
		t.Errorf("AdmitCall ran %d times for %d setups", calls, want)
	}
	if overlapped != 0 {
		t.Errorf("AdmitCall was entered %d times while already running", overlapped)
	}
}

// TestMemoryAdmitterBlocks pins the live memory scheme's defining behavior:
// the admission decision is driven by the pooled bandwidth *history* of the
// calls present, not the instantaneous reservation. Two 4 Mb/s calls on a
// 10 Mb/s port leave room for a 64 kb/s third by the capacity check, but the
// history says calls on this port are 4 Mb/s beasts — and three of those
// overflow, so the Chernoff tail is exactly 1 and admission must deny. A
// departure takes its history with it and reopens the port.
func TestMemoryAdmitterBlocks(t *testing.T) {
	ad, err := NewMemoryAdmitter([]float64{64e3, 4e6}, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	s := New(WithAdmitter(ad))
	s.clock = new(tickClock).read // a millisecond per operation: dwell mass accrues at the 4 Mb/s level
	if err := s.AddPort(1, 10e6); err != nil {
		t.Fatal(err)
	}
	if err := s.SetupID(1, 1, 4e6); err != nil {
		t.Fatal(err)
	}
	if err := s.SetupID(2, 1, 4e6); err != nil {
		t.Fatal(err)
	}
	if err := s.SetupID(3, 1, 64e3); !errors.Is(err, ErrAdmission) {
		t.Fatalf("third call: %v, want ErrAdmission (history-based denial)", err)
	}
	if got := ad.PortCalls(1); got != 2 {
		t.Fatalf("PortCalls = %d, want 2", got)
	}
	if err := s.TeardownID(1); err != nil {
		t.Fatal(err)
	}
	if err := s.SetupID(3, 1, 64e3); err != nil {
		t.Fatalf("after departure: %v", err)
	}
	if got := ad.PortCalls(1); got != 2 {
		t.Fatalf("PortCalls after depart+admit = %d, want 2", got)
	}
}
