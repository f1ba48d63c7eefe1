package churn

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"rcbr/internal/switchfab"
)

func newChurnSwitch(t *testing.T, ports int, capacity float64, opts ...switchfab.Option) *switchfab.Switch {
	t.Helper()
	s := switchfab.New(opts...)
	for p := 0; p < ports; p++ {
		if err := s.AddPort(p, capacity); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestRunReachesTargetAndDrains is the generator's core contract: ramp to
// the requested population, keep churning, and — with Drain set — hand the
// fabric back empty with balanced books.
func TestRunReachesTargetAndDrains(t *testing.T) {
	s := newChurnSwitch(t, 8, 1e9)
	res, err := Run(Config{
		Switch:      s,
		Ports:       8,
		TargetVCs:   5000,
		Workers:     4,
		ChurnEvents: 20000,
		Seed:        3,
		Drain:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.RampedVCs != 5000 {
		t.Errorf("RampedVCs = %d, want 5000 (blocked=%d)", res.RampedVCs, res.Blocked)
	}
	if res.Setups == 0 || res.Teardowns == 0 || res.Renegs == 0 {
		t.Errorf("no churn activity: %+v", res)
	}
	if res.Setups != res.Teardowns {
		t.Errorf("books unbalanced after drain: %d setups, %d teardowns", res.Setups, res.Teardowns)
	}
	if n := s.VCCount(); n != 0 {
		t.Errorf("VCCount = %d after drain", n)
	}
	for p := 0; p < 8; p++ {
		reserved, _, err := s.PortLoad(p)
		if err != nil {
			t.Fatal(err)
		}
		if reserved != 0 {
			t.Errorf("port %d reserved = %v after drain, want exactly 0", p, reserved)
		}
	}
	if res.BytesPerVC <= 0 {
		t.Errorf("BytesPerVC = %v", res.BytesPerVC)
	}
}

// TestChurnRunsEveryEvent: the churn phase performs exactly ChurnEvents switch
// operations, whatever is left over when the budget is split across workers
// — a budget below the worker count included. The ramp is the same for a
// given seed on a switch that never blocks, so a run with no churn phase is
// the baseline.
func TestChurnRunsEveryEvent(t *testing.T) {
	ops := func(events int) int64 {
		t.Helper()
		res, err := Run(Config{
			Switch:      newChurnSwitch(t, 2, 1e12),
			Ports:       2,
			TargetVCs:   60,
			Workers:     3,
			ChurnEvents: events,
			Seed:        11,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Setups + res.Blocked + res.Teardowns + res.Renegs
	}
	ramp := ops(0)
	for _, n := range []int{1, 7, 1001} {
		if got := ops(n) - ramp; got != int64(n) {
			t.Errorf("ChurnEvents %d: the churn phase ran %d operations", n, got)
		}
	}
}

// TestRunUnderMemoryAdmitter exercises the full tentpole stack — generator,
// concurrent setup path, and the live memory MBAC — and checks the admitter's
// per-port books drain with the fabric.
func TestRunUnderMemoryAdmitter(t *testing.T) {
	classes := DefaultClasses()
	ad, err := switchfab.NewMemoryAdmitter(LevelSet(classes), 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	const ports = 4
	s := newChurnSwitch(t, ports, 1e9, switchfab.WithAdmitter(ad))
	res, err := Run(Config{
		Switch:      s,
		Ports:       ports,
		Classes:     classes,
		TargetVCs:   2000,
		Workers:     4,
		ChurnEvents: 10000,
		Seed:        5,
		Drain:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.RampedVCs == 0 {
		t.Fatal("nothing admitted")
	}
	if s.VCCount() != 0 {
		t.Errorf("VCCount = %d after drain", s.VCCount())
	}
	for p := 0; p < ports; p++ {
		if calls := ad.PortCalls(p); calls != 0 {
			t.Errorf("admitter tracks %d calls on drained port %d", calls, p)
		}
	}
}

func TestLevelSet(t *testing.T) {
	got := LevelSet([]Class{
		{Levels: []float64{2e6, 64e3}},
		{Levels: []float64{64e3, 1e6}},
	})
	want := []float64{64e3, 1e6, 2e6}
	if len(got) != len(want) {
		t.Fatalf("LevelSet = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("LevelSet = %v, want %v", got, want)
		}
	}
}

func TestRunValidation(t *testing.T) {
	s := newChurnSwitch(t, 1, 1e9)
	if _, err := Run(Config{Ports: 1, TargetVCs: 1}); err == nil {
		t.Error("nil switch accepted")
	}
	if _, err := Run(Config{Switch: s, TargetVCs: 1}); err == nil {
		t.Error("zero ports accepted")
	}
	if _, err := Run(Config{Switch: s, Ports: 1}); err == nil {
		t.Error("zero target accepted")
	}
	bad := []Class{{Name: "x", Weight: 1, MeanHold: 10}} // no levels
	if _, err := Run(Config{Switch: s, Ports: 1, TargetVCs: 1, Classes: bad}); err == nil {
		t.Error("class without levels accepted")
	}
}

// TestRunRefusesBadClasses: Run refuses a class the generator cannot run,
// naming it, and returns at once. Unchecked, each row runs: with 257
// classes, class 256 is stored in an event as class 0, whose zero
// renegotiation time reschedules a renegotiation at the same instant
// forever; a NaN or infinite parameter panics in a worker or feeds NaN due
// times to the queue; a negative renegotiation time silently means CBR.
func TestRunRefusesBadClasses(t *testing.T) {
	vbr := Class{Name: "vbr", Weight: 1, Levels: []float64{64e3, 128e3}, MeanHold: 10, MeanReneg: 1}
	many := make([]Class, 257)
	for i := range many {
		many[i] = Class{Name: fmt.Sprint("cbr", i), Weight: 1, Levels: []float64{64e3}, MeanHold: 10}
	}
	many[256] = vbr
	with := func(f func(*Class)) []Class {
		c := vbr
		f(&c)
		return []Class{c}
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, row := range []struct {
		name    string
		classes []Class
	}{
		{"257 classes", many},
		{"NaN weight", with(func(c *Class) { c.Weight = nan })},
		{"infinite weight", with(func(c *Class) { c.Weight = inf })},
		{"NaN hold", with(func(c *Class) { c.MeanHold = nan })},
		{"infinite hold", with(func(c *Class) { c.MeanHold = inf })},
		{"NaN reneg", with(func(c *Class) { c.MeanReneg = nan })},
		{"infinite reneg", with(func(c *Class) { c.MeanReneg = inf })},
		{"negative reneg", with(func(c *Class) { c.MeanReneg = -1 })},
		{"-Inf reneg", with(func(c *Class) { c.MeanReneg = -inf })},
	} {
		t.Run(row.name, func(t *testing.T) {
			s := newChurnSwitch(t, 1, 1e12)
			done := make(chan error, 1)
			go func() {
				_, err := Run(Config{Switch: s, Ports: 1, Classes: row.classes, TargetVCs: 2000, Workers: 1, ChurnEvents: 2000})
				done <- err
			}()
			select {
			case err := <-done:
				if err == nil {
					t.Fatal("accepted")
				}
				if bad := row.classes[len(row.classes)-1].Name; !strings.Contains(err.Error(), fmt.Sprintf("%q", bad)) {
					t.Errorf("error %q does not name class %q", err, bad)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Run still running after 5 s")
			}
		})
	}
}

// TestSingleWorkerCountsPinned: with one worker and no admitter a seed fixes
// every switch operation the generator performs, so the pinned counts hold
// the order in which the queue hands events back.
func TestSingleWorkerCountsPinned(t *testing.T) {
	type counts struct {
		ramped, final                                    int
		setups, blocked, teardowns, renegs, renegDenials int64
	}
	for _, row := range []struct {
		seed uint64
		want counts
	}{
		{1, counts{3000, 2657, 6097, 259, 6097, 15915, 3549}},
		{2, counts{3000, 2671, 6244, 330, 6244, 15567, 3135}},
		{3, counts{3000, 2629, 6257, 231, 6257, 15340, 2983}},
	} {
		res, err := Run(Config{
			Switch:      newChurnSwitch(t, 2, 300e6),
			Ports:       2,
			TargetVCs:   3000,
			Workers:     1,
			ChurnEvents: 20000,
			Seed:        row.seed,
			Drain:       true,
		})
		if err != nil {
			t.Fatal(err)
		}
		got := counts{res.RampedVCs, res.FinalVCs, res.Setups, res.Blocked, res.Teardowns, res.Renegs, res.RenegDenials}
		if got != row.want {
			t.Errorf("seed %d: counts %+v, want %+v", row.seed, got, row.want)
		}
	}
}
