package churn

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"rcbr/internal/admission"
	"rcbr/internal/switchfab"
)

// TestRunReachesTargetAndDrains is the generator's core contract: ramp to
// the requested population, keep churning, and — with Drain set — hand the
// fabric back empty (Run fails otherwise) with balanced books.
func TestRunReachesTargetAndDrains(t *testing.T) {
	res, err := Run(Config{
		Ports:        8,
		PortCapacity: 1e9,
		TargetVCs:    5000,
		Workers:      4,
		ChurnEvents:  20000,
		Seed:         3,
		Drain:        true,
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
			Ports:        2,
			PortCapacity: 1e12,
			TargetVCs:    60,
			Workers:      3,
			ChurnEvents:  events,
			Seed:         11,
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
// concurrent setup path, and the live memory MBAC on the run's virtual
// clock — and Run's drain check holds the admitter's per-port books to drain
// with the fabric.
func TestRunUnderMemoryAdmitter(t *testing.T) {
	res, err := Run(Config{
		Ports:        4,
		PortCapacity: 1e9,
		Target:       1e-3,
		TargetVCs:    2000,
		Workers:      4,
		ChurnEvents:  10000,
		Seed:         5,
		Drain:        true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.RampedVCs == 0 {
		t.Fatal("nothing admitted")
	}
}

func TestLevelSet(t *testing.T) {
	got := levelSet([]Class{
		{Levels: []float64{2e6, 64e3}},
		{Levels: []float64{64e3, 1e6}},
	})
	want := []float64{64e3, 1e6, 2e6}
	if len(got) != len(want) {
		t.Fatalf("levelSet = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("levelSet = %v, want %v", got, want)
		}
	}
}

func TestRunValidation(t *testing.T) {
	ok := Config{Ports: 1, PortCapacity: 1e9, TargetVCs: 1}
	for _, row := range []struct {
		name string
		edit func(*Config)
	}{
		{"zero ports", func(c *Config) { c.Ports = 0 }},
		{"zero target", func(c *Config) { c.TargetVCs = 0 }},
		{"negative churn budget", func(c *Config) { c.ChurnEvents = -5 }},
		{"zero capacity", func(c *Config) { c.PortCapacity = 0 }},
		{"NaN capacity", func(c *Config) { c.PortCapacity = math.NaN() }},
		{"admission target 2", func(c *Config) { c.Target = 2 }},
		{"admission target -1", func(c *Config) { c.Target = -1 }},
		{"NaN admission target", func(c *Config) { c.Target = math.NaN() }},
		{"class without levels", func(c *Config) { c.Classes = []Class{{Name: "x", Weight: 1, MeanHold: 10}} }},
	} {
		cfg := ok
		row.edit(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s accepted", row.name)
		}
	}
	if _, err := Run(ok); err != nil {
		t.Errorf("the valid config: %v", err)
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
			done := make(chan error, 1)
			go func() {
				_, err := Run(Config{Ports: 1, PortCapacity: 1e12, Classes: row.classes, TargetVCs: 2000, Workers: 1, ChurnEvents: 2000})
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

// TestSingleWorkerCountsPinned: with one worker a seed fixes every switch
// operation the generator performs, with no admitter and with a memory
// admitter, which weighs history on the run's virtual clock and never on the
// wall. So the pinned counts hold the order in which the queue hands events
// back and, under the admitter, every decision it makes.
func TestSingleWorkerCountsPinned(t *testing.T) {
	type counts struct {
		ramped, final                                    int
		setups, blocked, teardowns, renegs, renegDenials int64
	}
	for _, row := range []struct {
		seed   uint64
		target float64
		want   counts
	}{
		{1, 0, counts{3000, 2657, 6097, 259, 6097, 15915, 3549}},
		{2, 0, counts{3000, 2671, 6244, 330, 6244, 15567, 3135}},
		{3, 0, counts{3000, 2629, 6257, 231, 6257, 15340, 2983}},
		{1, 1e-3, counts{678, 448, 3744, 32407, 3744, 28933, 0}},
		{2, 1e-3, counts{669, 426, 3630, 32504, 3630, 29107, 0}},
		{3, 1e-3, counts{692, 449, 3903, 31763, 3903, 29194, 0}},
	} {
		res, err := Run(Config{
			Ports:        2,
			PortCapacity: 300e6,
			Target:       row.target,
			TargetVCs:    3000,
			Workers:      1,
			ChurnEvents:  20000,
			Seed:         row.seed,
			Drain:        true,
		})
		if err != nil {
			t.Fatal(err)
		}
		got := counts{res.RampedVCs, res.FinalVCs, res.Setups, res.Blocked, res.Teardowns, res.Renegs, res.RenegDenials}
		if got != row.want {
			t.Errorf("seed %d, target %g: counts %+v, want %+v", row.seed, row.target, got, row.want)
		}
	}
}

// TestAdmitterMatchesReferenceOnChurnTime checks the switch's memory-based
// admitter against admission.Memory, the O(calls) reference it was derived
// from, on a one-worker churn run: the reference, fed every operation the
// run makes at the switch's own virtual readings, takes the same decision at
// every setup the port's books let through, and the books refuse exactly
// the setups and renegotiations that overflow them. Both sides of admission
// are exercised, and the drain leaves the reference as empty as Run's check
// leaves the fabric.
func TestAdmitterMatchesReferenceOnChurnTime(t *testing.T) {
	const ports, capacity, target = 2, 60e6, 1e-3
	cfg := Config{
		Ports: ports, PortCapacity: capacity, Target: target,
		TargetVCs: 400, Workers: 1, ChurnEvents: 6000, Seed: 7, Drain: true,
	}
	var (
		refs     [ports]*admission.Memory
		reserved [ports]float64
		rates    = map[switchfab.VCID]float64{}
		bad      error
		admitted int
		refused  int
	)
	for p := range refs {
		var err error
		if refs[p], err = admission.NewMemory(levelSet(defaultClasses()), capacity, target); err != nil {
			t.Fatal(err)
		}
	}
	cfg.observe = func(kind uint8, id switchfab.VCID, rate float64, ok bool, clock int64) {
		p, now := int(id)%ports, time.Duration(clock).Seconds()
		switch {
		case bad != nil:
		case kind == evSetup && reserved[p]+rate > capacity:
			if ok {
				bad = fmt.Errorf("t=%.3fs setup %s admitted over port %d's capacity", now, id, p)
			}
		case kind == evSetup:
			if want := refs[p].Admit(now, rate); ok != want {
				bad = fmt.Errorf("t=%.3fs setup %s on port %d: switch admits %v, reference %v", now, id, p, ok, want)
			} else if !ok {
				refused++
			} else {
				admitted++
				refs[p].OnAdmit(int(id), now, rate)
				reserved[p] += rate
				rates[id] = rate
			}
		case kind == evReneg:
			old := rates[id]
			if fits := reserved[p]-old+rate <= capacity; ok != fits {
				bad = fmt.Errorf("t=%.3fs renegotiate %s to %g: granted %v, the books say %v", now, id, rate, ok, fits)
			} else if ok && rate != old {
				refs[p].OnRateChange(int(id), now, old, rate)
				reserved[p] += rate - old
				rates[id] = rate
			}
		case kind == evDepart:
			refs[p].OnDepart(int(id), now, rates[id])
			reserved[p] -= rates[id]
			delete(rates, id)
		}
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if bad != nil {
		t.Fatal(bad)
	}
	if admitted < 100 || refused < 100 {
		t.Errorf("%d setups admitted and %d refused by admission: the run exercises one side only", admitted, refused)
	}
	if len(rates) != 0 || reserved != [ports]float64{} {
		t.Errorf("after the drain the reference holds %d calls and %v b/s", len(rates), reserved)
	}
}
