package switchfab

import (
	"errors"
	"math"
	"testing"
	"time"

	"rcbr/internal/admission"
	"rcbr/internal/cell"
	"rcbr/internal/metrics"
	"rcbr/internal/stats"
)

// tickClock is a scripted clock that counts its reads and moves one
// millisecond per read, so dwell history accrues between operations.
type tickClock struct {
	reads int
	now   int64
}

func (c *tickClock) read() int64 {
	c.reads++
	c.now += int64(time.Millisecond)
	return c.now
}

// TestClockReadBudget holds the control path to its clock-read contract. A
// setup reads the clock once on the way in, and only on a switch with a
// MemoryAdmitter, whose dwell history is what uses the reading. A
// renegotiation reads it once on the way in on a switch that times anything,
// and once more on the way out for the registry's latency histogram. A
// teardown never reads it. The step table is one lifecycle on a 10 Mb/s
// port; the columns are reads per call with a registry and a MemoryAdmitter,
// with a registry alone, with a MemoryAdmitter alone, and with neither. A
// read added anywhere on the control path fails the row it lands on. The
// renegotiation histogram's count is checked at the end: it still sees every
// renegotiation past argument validation.
func TestClockReadBudget(t *testing.T) {
	rm := func(vci uint16, m cell.RM) func(*Switch) (string, error) {
		return func(s *Switch) (string, error) {
			reply, err := s.HandleRM(cell.Header{VCI: vci}, m)
			if err != nil {
				return "", err
			}
			if reply.Deny {
				return "deny", nil
			}
			return "grant", nil
		}
	}
	setup := func(id VCID, port int, rate float64) func(*Switch) (string, error) {
		return func(s *Switch) (string, error) { return "", s.SetupID(id, port, rate) }
	}
	reneg := func(id VCID, rate float64) func(*Switch) (string, error) {
		return func(s *Switch) (string, error) {
			_, ok, err := s.RenegotiateID(id, rate)
			if err != nil {
				return "", err
			}
			if !ok {
				return "deny", nil
			}
			return "grant", nil
		}
	}
	best := func(id VCID, rate float64) func(*Switch) (string, error) {
		return func(s *Switch) (string, error) {
			before := s.Stats().Denials
			_, full, err := s.RenegotiateBestID(id, rate)
			switch {
			case err != nil:
				return "", err
			case full:
				return "grant", nil
			case s.Stats().Denials != before:
				return "deny", nil
			}
			return "partial", nil
		}
	}
	teardown := func(id VCID) func(*Switch) (string, error) {
		return func(s *Switch) (string, error) { return "", s.TeardownID(id) }
	}
	steps := []struct {
		name string
		op   func(*Switch) (string, error)
		// With a registry and a MemoryAdmitter: the outcome, and whether the
		// operation lands in the renegotiation histogram.
		want    string
		wantErr error
		reneg   bool
		// Clock reads: registry + MBAC, registry only, MBAC only, neither.
		reads [4]int
	}{
		{"setup admitted", setup(1, 1, 4e6), "", nil, false, [4]int{1, 0, 1, 0}},
		{"setup admitted", setup(2, 1, 4e6), "", nil, false, [4]int{1, 0, 1, 0}},
		// Two 4 Mb/s histories say a third call overflows: the MBAC refuses
		// what the capacity check would let in (TestMemoryAdmitterBlocks).
		{"setup refused by admission", setup(3, 1, 64e3), "", ErrAdmission, false, [4]int{1, 0, 1, 0}},
		{"setup refused by capacity", setup(4, 1, 4e6), "", ErrCapacity, false, [4]int{1, 0, 1, 0}},
		{"setup of a taken id", setup(1, 1, 64e3), "", ErrVCExists, false, [4]int{1, 0, 1, 0}},
		{"setup on no port", setup(5, 9, 64e3), "", ErrNoPort, false, [4]int{1, 0, 1, 0}},
		{"setup of an invalid rate", setup(5, 1, math.NaN()), "", ErrInvalidRate, false, [4]int{}},

		{"renegotiate granted", reneg(1, 5e6), "grant", nil, true, [4]int{2, 2, 1, 0}},
		{"renegotiate denied", reneg(1, 9e6), "deny", nil, true, [4]int{2, 2, 1, 0}},
		{"renegotiate unknown VC", reneg(99, 1e6), "", ErrNoVC, true, [4]int{2, 2, 1, 0}},
		{"renegotiate an invalid rate", reneg(1, math.Inf(1)), "", ErrInvalidRate, false, [4]int{}},

		{"best-effort granted in full", best(2, 5e6), "grant", nil, true, [4]int{2, 2, 1, 0}},
		{"best-effort denied, no headroom", best(2, 6e6), "deny", nil, true, [4]int{2, 2, 1, 0}},
		{"best-effort granted", best(2, 3e6), "grant", nil, true, [4]int{2, 2, 1, 0}},
		{"best-effort granted in part", best(2, 9e6), "partial", nil, true, [4]int{2, 2, 1, 0}},
		{"best-effort unknown VC", best(99, 1e6), "", ErrNoVC, true, [4]int{2, 2, 1, 0}},

		{"RM granted", rm(1, cell.RM{Decrease: true, ER: 1e6, Seq: 1}), "grant", nil, true, [4]int{2, 2, 1, 0}},
		{"RM duplicate Seq dropped", rm(1, cell.RM{Decrease: true, ER: 1e6, Seq: 1}), "grant", nil, true, [4]int{2, 2, 1, 0}},
		{"RM denied", rm(1, cell.RM{ER: 8e6, Seq: 2}), "deny", nil, true, [4]int{2, 2, 1, 0}},
		{"RM unknown VC", rm(99, cell.RM{ER: 1e6}), "", ErrNoVC, true, [4]int{2, 2, 1, 0}},
		{"RM backward cell", rm(1, cell.RM{Backward: true}), "", errAny, false, [4]int{}},

		{"teardown", teardown(1), "", nil, false, [4]int{}},
		{"teardown unknown VC", teardown(99), "", ErrNoVC, false, [4]int{}},
	}

	configs := []struct {
		name      string
		reg, mbac bool
		col       int // the column of reads this switch is held to
	}{
		{"registry and MemoryAdmitter", true, true, 0},
		{"registry", true, false, 1},
		{"MemoryAdmitter", false, true, 2},
		{"bare", false, false, 3},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			var opts []Option
			var reg *metrics.Registry
			if cfg.reg {
				reg = metrics.NewRegistry()
				opts = append(opts, WithMetrics(reg))
			}
			if cfg.mbac {
				ad, err := NewMemoryAdmitter([]float64{64e3, 4e6}, 1e-3)
				if err != nil {
					t.Fatal(err)
				}
				opts = append(opts, WithAdmitter(ad))
			}
			clk := &tickClock{}
			s := New(append(opts, WithClock(clk.read))...)
			if err := s.AddPort(1, 10e6); err != nil {
				t.Fatal(err)
			}
			var renegs, outcomes int64
			for _, st := range steps {
				before := clk.reads
				got, err := st.op(s)
				if got != "" {
					outcomes++
				}
				if n := clk.reads - before; n != st.reads[cfg.col] {
					t.Errorf("%s: %d clock reads, want %d", st.name, n, st.reads[cfg.col])
				}
				if st.reneg {
					renegs++
				}
				if !cfg.mbac && (errors.Is(st.wantErr, ErrAdmission) || st.want != "") {
					// Without the MBAC the third call is admitted and holds
					// 64 kb/s, so later outcomes differ; the read counts may not.
					continue
				}
				switch {
				case st.wantErr == errAny:
					if err == nil {
						t.Errorf("%s: no error", st.name)
					}
				case !errors.Is(err, st.wantErr):
					t.Errorf("%s: err = %v, want %v", st.name, err, st.wantErr)
				case got != st.want:
					t.Errorf("%s: outcome %q, want %q", st.name, got, st.want)
				}
			}
			stats := s.Stats()
			if stats.DupDrops != 1 {
				t.Errorf("%d duplicate drops, want 1", stats.DupDrops)
			}
			// Every outcome but the dropped duplicate was a decision, and a
			// decision is counted once, as a grant or as a denial.
			if stats.Renegotiations != stats.Grants+stats.Denials || stats.Renegotiations != outcomes-stats.DupDrops {
				t.Errorf("%d renegotiations, %d grants, %d denials, want %d decisions",
					stats.Renegotiations, stats.Grants, stats.Denials, outcomes-stats.DupDrops)
			}
			if !cfg.reg {
				return
			}
			h := reg.Snapshot().Histograms[MetricRenegLatency]
			if h.Count != renegs {
				t.Errorf("%s observed %d operations, want %d", MetricRenegLatency, h.Count, renegs)
			}
			// One millisecond per reading: every observation spans at least
			// one of scripted time.
			if h.Sum < float64(renegs)*0.99e-3 {
				t.Errorf("%s sums to %g s over %d observations of at least 1 ms", MetricRenegLatency, h.Sum, renegs)
			}
		})
	}
}

// errAny marks a step that must fail with an error that has no sentinel.
var errAny = errors.New("any error")

// scriptedLifecycle drives one switch hosting a MemoryAdmitter, and the
// O(calls) admission.Memory reference beside it, through one seeded
// lifecycle on scripted time: calls arrive a few seconds apart, hold for
// minutes, renegotiate seconds apart and leave. The switch's clock is the
// script's virtual time and nothing else, so with pause set — a real sleep
// between operations — the run must come out the same. opts are added to the
// switch's WithAdmitter. It returns every setup's admission decision and the
// operation counts.
func scriptedLifecycle(t *testing.T, pause bool, opts ...Option) (decisions []bool, ops int) {
	t.Helper()
	levels := []float64{64e3, 512e3, 1e6, 2e6, 4e6}
	const port, capacity, target = 1, 45e6, 1e-3
	ad, err := NewMemoryAdmitter(levels, target)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := admission.NewMemory(levels, capacity, target)
	if err != nil {
		t.Fatal(err)
	}
	var now int64 // virtual nanoseconds
	s := New(append([]Option{WithAdmitter(ad), WithClock(func() int64 { return now })}, opts...)...)
	if err := s.AddPort(port, capacity); err != nil {
		t.Fatal(err)
	}

	type call struct {
		id   VCID
		rate float64
		ends int64
	}
	var (
		rng      = stats.NewRNG(1995)
		live     []call
		reserved float64 // the model of the port's books: Σ rates
		nextID   VCID
		admitted int
		refused  int
	)
	drop := func(i int) {
		c := live[i]
		if err := s.TeardownID(c.id); err != nil {
			t.Fatalf("t=%v teardown %s: %v", time.Duration(now), c.id, err)
		}
		ref.OnDepart(int(c.id), seconds(now), c.rate)
		reserved -= c.rate
		live[i] = live[len(live)-1]
		live = live[:len(live)-1]
		ops++
	}
	check := func() {
		t.Helper()
		if got := ad.PortCalls(port); got != len(live) {
			t.Fatalf("t=%v: admitter tracks %d calls, reference %d", time.Duration(now), got, len(live))
		}
		if pause && ops%16 == 0 {
			time.Sleep(50 * time.Microsecond)
		}
	}
	for ops < 2400 {
		now += int64((0.2 + rng.ExpFloat64(1)) * float64(time.Second))
		for i := 0; i < len(live); {
			if live[i].ends <= now {
				drop(i)
				check()
				continue
			}
			i++
		}
		if rng.Intn(3) == 0 || len(live) == 0 { // arrival
			rate := levels[rng.Intn(len(levels))]
			id := nextID
			nextID++
			ops++
			err := s.SetupID(id, port, rate)
			if reserved+rate > capacity {
				// Refused by the books before admission was consulted.
				if !errors.Is(err, ErrCapacity) {
					t.Fatalf("t=%v setup %s over capacity: %v", time.Duration(now), id, err)
				}
				check()
				continue
			}
			want := ref.Admit(seconds(now), rate)
			if got := err == nil; got != want || (err != nil && !errors.Is(err, ErrAdmission)) {
				t.Fatalf("t=%v setup %s (%d calls present): switch says %v, reference admits %v",
					time.Duration(now), id, len(live), err, want)
			}
			decisions = append(decisions, want)
			if want {
				ref.OnAdmit(int(id), seconds(now), rate)
				reserved += rate
				hold := int64((60 + rng.ExpFloat64(1.0/240)) * float64(time.Second))
				live = append(live, call{id: id, rate: rate, ends: now + hold})
				admitted++
			} else {
				refused++
			}
		} else { // renegotiation
			i := rng.Intn(len(live))
			c := &live[i]
			newRate := levels[rng.Intn(len(levels))]
			ops++
			_, ok, err := s.RenegotiateID(c.id, newRate)
			if err != nil {
				t.Fatalf("t=%v renegotiate %s: %v", time.Duration(now), c.id, err)
			}
			if fits := reserved-c.rate+newRate <= capacity; ok != fits {
				t.Fatalf("t=%v renegotiate %s to %g: granted %v, the books say %v", time.Duration(now), c.id, newRate, ok, fits)
			}
			if ok && newRate != c.rate {
				ref.OnRateChange(int(c.id), seconds(now), c.rate, newRate)
				reserved += newRate - c.rate
				c.rate = newRate
			}
		}
		check()
	}
	if admitted < 100 || refused < 100 {
		t.Fatalf("%d setups admitted and %d refused by admission: the script exercises one side only", admitted, refused)
	}
	for len(live) > 0 {
		drop(len(live) - 1)
	}
	check()
	if got, _, _ := s.PortLoad(port); got != 0 {
		t.Fatalf("port holds %g b/s after the drain", got)
	}
	return decisions, ops
}

// TestScriptedTimeMBACMatchesReference checks the switch-hosted MBAC against
// the reference it was derived from, over three quarters of an hour of
// virtual time in a tenth of a second of real time: the same admission
// decision at every setup, the same call count throughout, nothing left after
// the drain. It runs on a switch with and without a registry, whose
// renegotiation histogram adds a clock read the controller must not see, and
// each with and without sleeps between operations; every run must decide
// as the first did — the dwell history depends on the readings the switch
// hands down and on nothing the wall or the telemetry does.
func TestScriptedTimeMBACMatchesReference(t *testing.T) {
	want, ops := scriptedLifecycle(t, false)
	if ops < 2000 {
		t.Fatalf("script ran %d operations, want at least 2000", ops)
	}
	for _, run := range []struct {
		name  string
		pause bool
		reg   bool
	}{
		{"pauses", true, false},
		{"registry", false, true},
		{"registry and pauses", true, true},
	} {
		t.Run(run.name, func(t *testing.T) {
			var opts []Option
			reg := metrics.NewRegistry()
			if run.reg {
				opts = append(opts, WithMetrics(reg))
			}
			got, _ := scriptedLifecycle(t, run.pause, opts...)
			if len(got) != len(want) {
				t.Fatalf("%d decisions, %d in the first run", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("decision %d: %v, %v in the first run", i, got[i], want[i])
				}
			}
			if n := reg.Snapshot().Histograms[MetricRenegLatency].Count; run.reg && n == 0 {
				t.Errorf("the registry's %s saw no renegotiation", MetricRenegLatency)
			}
		})
	}
}
