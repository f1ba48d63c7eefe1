package admission

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"unsafe"

	"rcbr/internal/stats"
)

// TestLiveMemoryMatchesMemory drives the same random lifecycle sequence
// through the O(calls) Memory controller and the O(levels) LiveMemory and
// requires the call counts to agree at every step and the pooled estimates,
// and therefore the admit decisions, at every probe point. This is the
// correctness claim behind running the memory scheme in a live setup path:
// the incremental decomposition is the same estimator, not an approximation
// of it. It holds at every level count from one to callSlots, the widest a
// call record takes and the one the benchmark's switch runs at.
func TestLiveMemoryMatchesMemory(t *testing.T) {
	for _, levels := range [][]float64{
		{1e6},
		{64e3, 4e6},
		{64e3, 512e3, 1e6, 2e6, 4e6},
		{64e3, 256e3, 512e3, 1e6, 2e6, 4e6, 8e6},
	} {
		t.Run(fmt.Sprintf("levels=%d", len(levels)), func(t *testing.T) {
			matchMemory(t, levels)
		})
	}
}

func matchMemory(t *testing.T, levels []float64) {
	const capacity, target = 50e6, 1e-3
	ref, err := NewMemory(levels, capacity, target)
	if err != nil {
		t.Fatal(err)
	}
	live, err := NewLiveMemory(levels, capacity, target)
	if err != nil {
		t.Fatal(err)
	}
	type call struct {
		rate float64
		rec  *Call // LiveMemory's record, held by the caller
	}
	rng := stats.NewRNG(7)
	present := make(map[int]call) // id -> current rate and record
	anyCall := func() (int, call) {
		// Map iteration order is fine: both see the same choice.
		for id, c := range present {
			return id, c
		}
		panic("empty")
	}
	nextID := 0
	now := 0.0
	for step := 0; step < 5000; step++ {
		now += rng.ExpFloat64(1)
		switch op := rng.Intn(3); {
		case op == 0 || len(present) == 0: // arrive
			rate := levels[rng.Intn(len(levels))]
			id := nextID
			nextID++
			ref.OnAdmit(id, now, rate)
			rec := NewCall()
			live.Enter(rec, now, rate)
			present[id] = call{rate, rec}
		case op == 1: // renegotiate
			id, c := anyCall()
			newRate := levels[rng.Intn(len(levels))]
			ref.OnRateChange(id, now, c.rate, newRate)
			live.Move(c.rec, now, c.rate, newRate)
			present[id] = call{newRate, c.rec}
		default: // depart
			id, c := anyCall()
			ref.OnDepart(id, now, c.rate)
			live.Leave(c.rec, c.rate)
			delete(present, id)
		}
		if live.Calls() != len(present) {
			t.Fatalf("step %d: LiveMemory tracks %d calls, want %d", step, live.Calls(), len(present))
		}
		if step%25 != 0 {
			continue
		}
		probe := now + rng.ExpFloat64(1)
		refDist, refOK := ref.estimate(probe)
		dist, ok := live.dist(probe)
		if refOK != ok {
			t.Fatalf("step %d: estimate ok %v vs %v", step, refOK, ok)
		}
		if refOK {
			for i := range refDist.P {
				if math.Abs(refDist.P[i]-dist.P[i]) > 1e-9 {
					t.Fatalf("step %d level %d: P %.12g vs %.12g", step, i, refDist.P[i], dist.P[i])
				}
			}
		}
		if refAdmit, admit := ref.Admit(probe, 0), live.Admit(probe, 0); refAdmit != admit {
			t.Fatalf("step %d: Admit %v vs %v", step, refAdmit, admit)
		}
	}
	// Drain completely: the live controller must return to an exactly empty
	// pool, not one with residual dwell mass.
	for _, c := range present {
		live.Leave(c.rec, c.rate)
	}
	if live.Calls() != 0 {
		t.Fatalf("calls after drain = %d", live.Calls())
	}
	if _, ok := live.dist(now + 10); ok {
		t.Fatal("drained controller still reports dwell mass")
	}
	if !live.Admit(now+10, 64e3) {
		t.Fatal("empty controller must admit")
	}
}

// TestNewCallIsOneObject pins the record: one 64-byte heap object — its
// level-entry time and callSlots dwell slots — fresh, that is in no pool
// and with no history.
func TestNewCallIsOneObject(t *testing.T) {
	if size := unsafe.Sizeof(Call{}); size != 64 {
		t.Errorf("Call is %d bytes, want 64", size)
	}
	var c *Call
	if got := testing.AllocsPerRun(100, func() { c = NewCall() }); got != 1 {
		t.Errorf("NewCall allocates %v objects, want 1", got)
	}
	if !math.IsNaN(c.since) || c.dwell != [callSlots]float64{} {
		t.Errorf("NewCall = %+v, want since NaN and no dwell", *c)
	}
}

// TestCallRecordMisusePanics pins the record's life cycle: entering a record
// twice, and moving or leaving one that already left, panic and leave the
// pooled sums as they were.
func TestCallRecordMisusePanics(t *testing.T) {
	levels := []float64{64e3, 512e3, 4e6}
	m, err := NewLiveMemory(levels, 50e6, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	live, spent := NewCall(), NewCall()
	m.Enter(live, 1, levels[0])
	m.Enter(spent, 1, levels[1])
	m.Move(spent, 2, levels[1], levels[2])
	m.Leave(spent, levels[2])
	for name, misuse := range map[string]func(){
		"Enter of an entered record":      func() { m.Enter(live, 3, levels[1]) },
		"Move after Leave":                func() { m.Move(spent, 3, levels[2], levels[0]) },
		"Move after Leave, no time since": func() { m.Move(spent, 2, levels[2], levels[0]) },
		"Leave after Leave":               func() { m.Leave(spent, levels[2]) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			misuse()
		}()
	}
	m.Leave(live, levels[0])
	if m.Calls() != 0 {
		t.Errorf("Calls = %d after the misuse, want 0", m.Calls())
	}
	for i := range levels {
		if m.flushed[i] != 0 || m.active[i] != 0 || m.sinceSum[i] != 0 {
			t.Errorf("level %d: flushed %v active %v sinceSum %v, want zeros", i, m.flushed[i], m.active[i], m.sinceSum[i])
		}
	}
}

// badLevels are level sets every history-based constructor refuses: none,
// descending, and with a level that is not finite — which a bare ascending
// check lets through, since NaN fails every comparison.
var badLevels = map[string][]float64{
	"none":       nil,
	"descending": {2e6, 1e6},
	"NaN inside": {1e6, math.NaN(), 3e6},
	"NaN alone":  {math.NaN()},
	"+Inf last":  {1e6, math.Inf(1)},
	"-Inf first": {math.Inf(-1), 1e6},
}

func TestLiveMemoryValidation(t *testing.T) {
	for name, levels := range badLevels {
		if _, err := NewLiveMemory(levels, 1e6, 1e-3); err == nil {
			t.Errorf("levels %s %v accepted", name, levels)
		}
	}
	eight := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	if _, err := NewLiveMemory(eight[:callSlots], 1e6, 1e-3); err != nil {
		t.Errorf("%d levels refused: %v", callSlots, err)
	}
	if _, err := NewLiveMemory(eight, 1e6, 1e-3); err == nil || !strings.Contains(err.Error(), "7") {
		t.Errorf("8 levels: err %v, want a refusal naming the limit of 7", err)
	}
	if _, err := NewLiveMemory([]float64{1, 2}, 0, 1e-3); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := NewLiveMemory([]float64{1, 2}, 1e6, 1); err == nil {
		t.Error("target 1 accepted")
	}
	if _, err := NewLiveMemory([]float64{1, 2}, 1e6, math.NaN()); err == nil {
		t.Error("NaN target accepted")
	}
	if _, err := NewLiveMemory([]float64{1, 2}, math.NaN(), 1e-3); err == nil {
		t.Error("NaN capacity accepted")
	}
	if _, err := NewLiveMemory([]float64{1, 2}, math.Inf(1), 1e-3); err == nil {
		t.Error("+Inf capacity accepted")
	}
}

// TestLiveMemoryIndex pins the level bucketing to stats.LevelHist.Index
// semantics: nearest level, ties toward the lower one. A call entered at each
// rate must be counted at the level LevelHist.Index picks.
func TestLiveMemoryIndex(t *testing.T) {
	levels := []float64{100, 200, 400}
	ref := stats.NewLevelHist(levels)
	for _, rate := range []float64{0, 99, 100, 149, 150, 151, 200, 299, 300, 301, 400, 1e9} {
		m, err := NewLiveMemory(levels, 1e6, 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		m.Enter(NewCall(), 0, rate)
		want := ref.Index(rate)
		for i, n := range m.active {
			if (i == want) != (n == 1) {
				t.Errorf("Enter at %g: active = %v, LevelHist.Index = %d", rate, m.active, want)
				break
			}
		}
	}
}

// TestAdmitShortcutKeepsTheDecision holds Admit's shortcut — admit when the
// share per call clears the highest weighted level — to the full Chernoff
// evaluation over the normalized pool: over seeded pools of up to seven
// levels, some a hair apart, and capacities that put the share per call on
// either side of that level by a few units in the last place, the two
// decisions agree every time.
func TestAdmitShortcutKeepsTheDecision(t *testing.T) {
	rng := stats.NewRNG(11)
	shortcuts := 0
	for k := 0; k < 2000; k++ {
		n := 1 + rng.Intn(7)
		levels := make([]float64, n)
		at := 0.0
		for i := range levels {
			if i > 0 && rng.Intn(3) == 0 {
				at = math.Nextafter(at, math.Inf(1))
			} else {
				at += 64e3 * (0.5 + rng.Float64())
			}
			levels[i] = at
		}
		probe, err := NewLiveMemory(levels, 1, 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		calls := 1 + rng.Intn(20)
		now := 0.0
		type entry struct {
			rec         *Call
			enter, rate float64
		}
		present := make([]entry, calls)
		for c := range present {
			present[c].enter = levels[rng.Intn(n)]
		}
		// Build the pool once to find its top level, then replay it on
		// controllers whose capacity straddles top·(calls+1).
		replay := func(m *LiveMemory) {
			now = 0
			r := stats.NewRNG(uint64(k))
			for c := range present {
				e := &present[c]
				e.rec, e.rate = NewCall(), e.enter
				now += r.ExpFloat64(1)
				m.Enter(e.rec, now, e.rate)
			}
			for j := 0; j < calls; j++ {
				now += r.ExpFloat64(1)
				e, rate := &present[r.Intn(calls)], levels[r.Intn(n)]
				m.Move(e.rec, now, e.rate, rate)
				e.rate = rate
			}
			now += r.ExpFloat64(1)
		}
		replay(probe)
		_, top := probe.weigh(now)
		share := top * float64(calls+1)
		for _, capacity := range []float64{
			share, math.Nextafter(share, 0), math.Nextafter(share, math.Inf(1)),
			share * (1 + 1e-15), share * (1 + 1e-14), share * (1 + 1e-12), share * 2, share / 2,
		} {
			m, err := NewLiveMemory(levels, capacity, 1e-3)
			if err != nil {
				t.Fatal(err)
			}
			replay(m)
			want := true
			if dist, ok := m.dist(now); ok {
				want = chernoffAdmit(dist, m.capacity, m.target, m.present)
			}
			if got := m.Admit(now, 0); got != want {
				t.Fatalf("pool %d, capacity %v: Admit = %v, the full evaluation %v", k, capacity, got, want)
			}
			if m.capacity/float64(m.present+1) > top*m.slack {
				shortcuts++
			}
		}
	}
	if shortcuts == 0 {
		t.Fatal("no case took the shortcut")
	}
}
