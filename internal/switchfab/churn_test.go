package switchfab

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rcbr/internal/cell"
	"rcbr/internal/metrics"
	"rcbr/internal/stats"
)

// bookRecorder is a DataPlane that counts what it is told and hands out one
// rate word: a refused rate or a refused call must reach neither.
type bookRecorder struct {
	calls int
	word  RateWord
}

func (r *bookRecorder) OnTeardown(int, VCID) { r.calls++ }
func (r *bookRecorder) OnSetup(_ int, _ VCID, rate float64) (*RateWord, error) {
	r.calls++
	r.word.Store(rate)
	return &r.word, nil
}

// TestSetupRejectsNonFiniteRates is the headline poisoning regression, and
// since PR 22 the whole of what a taint analyzer held for this package
// before (DESIGN §9): a NaN rate passes a bare `rate < 0` check (NaN fails
// every ordered comparison), lands in port.reserved, and then every
// capacity comparison on the port is false forever — permanent overcommit
// from one crafted message. So every exported entry point that takes a rate
// is fed every kind of bad one and must answer ErrInvalidRate with the
// books exactly as they were: the port's load, the VC's rate, the counters,
// the calls the admitter tracks, and nothing said to the data plane. A bad
// rate is also one past the books' range (1e300 would overflow the integer
// sums) and, for a port, a capacity that books to no unit at all.
func TestSetupRejectsNonFiniteRates(t *testing.T) {
	ad, err := NewMemoryAdmitter([]float64{100e3, 1e6}, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	rec := &bookRecorder{}
	s := New(WithAdmitter(ad), WithDataPlane(rec))
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
		also []float64 // bad for this entry point alone
	}{
		{"AddPort", func(r float64) error { return s.AddPort(2, r) }, []float64{1e-4}},
		{"Setup", func(r float64) error { return s.Setup(11, 1, r) }, nil},
		{"SetupID", func(r float64) error { return s.SetupID(11, 1, r) }, nil},
		{"RenegotiateID", func(r float64) error { _, _, err := s.RenegotiateID(10, r); return err }, nil},
		{"RenegotiateBestID", func(r float64) error { _, _, err := s.RenegotiateBestID(10, r); return err }, nil},
		{"HandleRM delta", func(r float64) error { return handleRM(cell.RM{ER: r, Seq: 1}) }, nil},
		{"HandleRM resync", func(r float64) error { return handleRM(cell.RM{ER: r, Resync: true}) }, nil},
	}
	stats, told := s.Stats(), rec.calls
	for _, e := range entries {
		for _, rate := range append([]float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, 1e300}, e.also...) {
			if err := e.call(rate); !errors.Is(err, ErrInvalidRate) {
				t.Errorf("%s(%v): %v, want ErrInvalidRate", e.name, rate, err)
			}
			if reserved, _, err := s.PortLoad(1); err != nil || reserved != 100e3 {
				t.Fatalf("%s(%v): PortLoad = %v, %v, want 100e3", e.name, rate, reserved, err)
			}
			if vc, err := s.VC(10); err != nil || vc.Rate != 100e3 {
				t.Fatalf("%s(%v): VC(10).Rate = %v, %v, want 100e3", e.name, rate, vc.Rate, err)
			}
			if got := s.Stats(); got != stats {
				t.Fatalf("%s(%v): stats moved: %+v, were %+v", e.name, rate, got, stats)
			}
			if calls := ad.PortCalls(1); calls != 1 {
				t.Fatalf("%s(%v): the admitter tracks %d calls, want 1", e.name, rate, calls)
			}
			if rec.calls != told || rec.word.Load() != 100e3 {
				t.Fatalf("%s(%v): the data plane heard of it", e.name, rate)
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

// nonDyadic draws a rate off the books' 2⁻⁹ b/s lattice: a multiple of 100.1
// b/s or of 64,000/3 b/s. Books kept in float64 drift on such rates, since
// every sum rounds.
func nonDyadic(rng *stats.RNG) float64 {
	if rng.Intn(2) == 0 {
		return float64(1+rng.Intn(1000)) * 100.1
	}
	return float64(1+rng.Intn(48)) * 64e3 / 3
}

// TestSetupTeardownDrift holds a port's books exact — not within epsilon.
// First it churns driftOps setup/teardown pairs of integer-valued rates
// through one port, and the drained reservation must return to exactly zero:
// any residue is a double-count or leak in the accounting. Then, on each of
// 20 seeds, it sets up 10,000 VCs at rates off the lattice on a port that
// cannot carry them all, makes 10,000 renegotiations of every kind, and tears
// every VC down in random order. The reservation must equal the exact sum of
// the VCs' rates after the renegotiations and be exactly 0 after the drain.
// Books kept in float64 miss the sum on all 20 seeds and zero on 13.
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
	if s.VCCount() != 0 {
		t.Fatalf("VCCount = %d after drain", s.VCCount())
	}

	const vcs = 10_000
	for seed := uint64(1); seed <= 20; seed++ {
		rng := stats.NewRNG(seed)
		s := newTestSwitch(t, 7e9/3)
		var up []VCID
		for i := 0; i < vcs; i++ {
			err := s.SetupID(VCID(i), 1, nonDyadic(rng))
			if IsReject(err) {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			up = append(up, VCID(i))
		}
		for i := 0; i < vcs; i++ {
			id, rate := up[rng.Intn(len(up))], nonDyadic(rng)
			h := cell.Header{VPI: id.VPI(), VCI: id.VCI()}
			var err error
			switch i % 4 {
			case 0:
				_, _, err = s.RenegotiateID(id, rate)
			case 1:
				_, _, err = s.RenegotiateBestID(id, rate)
			case 2:
				_, err = s.HandleRM(h, cell.RM{ER: rate / 8})
			case 3:
				_, err = s.HandleRM(h, cell.RM{ER: rate / 8, Decrease: true})
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		var sum float64
		for _, id := range up {
			vc, err := s.VC(id)
			if err != nil {
				t.Fatal(err)
			}
			sum += vc.Rate
		}
		if reserved, _, _ := s.PortLoad(1); reserved != sum {
			t.Errorf("seed %d: reserved %v after the renegotiations, its VCs' rates sum to %v", seed, reserved, sum)
		}
		for i := len(up) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			up[i], up[j] = up[j], up[i]
		}
		for _, id := range up {
			if err := s.TeardownID(id); err != nil {
				t.Fatal(err)
			}
		}
		if reserved, _, _ := s.PortLoad(1); reserved != 0 {
			t.Errorf("seed %d: drained port reserved = %v, want exactly 0", seed, reserved)
		}
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

// TestParallelSetupChurnStorm hammers setup/renegotiate/teardown from many
// goroutines across ports with the stateful memory admitter
// installed, at rates off the books' lattice. Run under -race (the
// Makefile's race target does), this is the proof that removing the global
// setup mutex kept the stateful-admission path correct: the admitter's calls
// balance the switch's VCs exactly at the end of the storm, level by level,
// every port's reservation is exactly the sum of its VCs' rates, and the
// fabric drains to exactly zero everywhere. Beside each worker churning its
// own 16 ids, two raiders renegotiate ids picked across every worker's
// block, through the storm and through the workers' concurrent drain, so
// renegotiations race the owners' teardowns and re-setups of the same VC:
// the gone check under the port mutex must keep a record from moving after
// it left (a record moved or left twice, or never entered, panics inside
// the controller).
func TestParallelSetupChurnStorm(t *testing.T) {
	const ports = 8
	rates := []float64{641 * 100.1, 25 * 64e3 / 3, 9_991 * 100.1, 97 * 64e3 / 3, 193 * 64e3 / 3}
	inner, err := NewMemoryAdmitter(rates, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	s := New(WithAdmitter(inner))
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
	var setups, teardowns, renegGrants atomic.Int64
	var wg, raiders sync.WaitGroup
	done := make(chan struct{})
	raid := func() {
		for r := 0; r < 2; r++ {
			raiders.Add(1)
			go func(r int, done <-chan struct{}) {
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
			}(r, done)
		}
	}
	raid()
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
		}(w)
	}
	wg.Wait()
	close(done)
	raiders.Wait()
	if t.Failed() {
		return
	}
	// Every setup entered a call and every teardown took one out: the
	// admitter holds exactly the VCs the switch does, at the levels of their
	// rates. Each port reserves exactly what its VCs hold.
	up := setups.Load() - teardowns.Load()
	var calls int
	levels := make([]float64, len(rates))
	sum := make([]float64, ports)
	for p := 0; p < ports; p++ {
		calls += inner.PortCalls(p)
		for level, n := range s.port(p).mbac.Active() {
			levels[level] += n
		}
	}
	for _, vc := range s.VCs() {
		levels[stats.NearestLevel(rates, vc.Rate)]--
		sum[vc.Port] += vc.Rate
	}
	if n := int64(s.VCCount()); n != up || int64(calls) != up {
		t.Errorf("%d setups less %d teardowns; the switch holds %d VCs, the admitter %d calls", setups.Load(), teardowns.Load(), n, calls)
	}
	for level, n := range levels {
		if n != 0 {
			t.Errorf("admitter holds %v calls at %g b/s more than the switch does", n, rates[level])
		}
	}
	for p := 0; p < ports; p++ {
		if reserved, _, _ := s.PortLoad(p); reserved != sum[p] {
			t.Errorf("port %d reserved %v after the storm, its VCs' rates sum to %v", p, reserved, sum[p])
		}
	}
	// The drain races the raiders too: each worker tears its own block down
	// while renegotiations keep landing on ids that are going.
	done = make(chan struct{})
	raid()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < live && i < iters; i++ {
				if err := s.TeardownID(VCID(w*1000 + i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(done)
	raiders.Wait()
	if t.Failed() {
		return
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
		for level, n := range s.port(p).mbac.Active() {
			if n != 0 {
				t.Errorf("port %d level %d: %v calls still active after drain", p, level, n)
			}
		}
	}
	st := s.Stats()
	// One counter per fact: a decision is a grant or a denial and is counted
	// as that alone; the callers' own tally says how many grants there were.
	if st.Renegotiations != st.Grants+st.Denials || st.Grants != renegGrants.Load() {
		t.Errorf("%d renegotiations, %d grants, %d denials; callers saw %d grants",
			st.Renegotiations, st.Grants, st.Denials, renegGrants.Load())
	}
}

// TestAdmissionHook holds setup to the admitter WithAdmitter installed and to
// nothing else: the three calls of TestMemoryAdmitterBlocks all fit the port
// by the capacity check, so with a nil admitter all three are taken and
// nothing is rejected, and with a MemoryAdmitter the third is turned away
// with ErrAdmission as the one setup reject.
func TestAdmissionHook(t *testing.T) {
	for _, withMBAC := range []bool{false, true} {
		var ad *MemoryAdmitter
		if withMBAC {
			var err error
			if ad, err = NewMemoryAdmitter([]float64{64e3, 4e6}, 1e-3); err != nil {
				t.Fatal(err)
			}
		}
		s := New(WithAdmitter(ad))
		s.clock = new(tickClock).read
		if err := s.AddPort(1, 10e6); err != nil {
			t.Fatal(err)
		}
		var third error
		for i, rate := range []float64{4e6, 4e6, 64e3} {
			err := s.SetupID(VCID(i+1), 1, rate)
			if i < 2 && err != nil {
				t.Fatalf("MBAC %v: setup %d at %g b/s: %v", withMBAC, i+1, rate, err)
			}
			third = err
		}
		wantRejects, wantVCs := int64(0), 3
		if withMBAC {
			wantRejects, wantVCs = 1, 2
			if !errors.Is(third, ErrAdmission) {
				t.Errorf("MBAC: third call: %v, want ErrAdmission", third)
			}
		} else if third != nil {
			t.Errorf("nil admitter: third call: %v, want admitted", third)
		}
		if st := s.Stats(); st.SetupRejects != wantRejects || s.VCCount() != wantVCs {
			t.Errorf("MBAC %v: SetupRejects = %d, VCCount = %d; want %d, %d",
				withMBAC, st.SetupRejects, s.VCCount(), wantRejects, wantVCs)
		}
	}
}

// TestMemoryAdmitterBlocks pins the live memory scheme's defining behavior:
// the admission decision is driven by the pooled bandwidth *history* of the
// calls present, not the instantaneous reservation. Two 4 Mb/s calls on a
// 10 Mb/s port leave room for a 64 kb/s third by the capacity check, but the
// history says calls on this port are 4 Mb/s beasts — and three of those
// overflow, so the Chernoff tail is exactly 1 and admission must deny. The
// refused call touches no book: no reservation, no VC, nothing said to the
// data plane; it is one setup reject, counted once in Stats and in the
// registry's view of it, and one reject event. A departure takes its history
// with it and reopens the port.
func TestMemoryAdmitterBlocks(t *testing.T) {
	ad, err := NewMemoryAdmitter([]float64{64e3, 4e6}, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	ring := metrics.NewEventLog(16)
	rec := &bookRecorder{}
	s := New(WithAdmitter(ad), WithMetrics(reg), WithEventTrace(ring), WithDataPlane(rec))
	s.clock = new(tickClock).read // a millisecond per reading: dwell mass accrues at the 4 Mb/s level
	if err := s.AddPort(1, 10e6); err != nil {
		t.Fatal(err)
	}
	if err := s.SetupID(1, 1, 4e6); err != nil {
		t.Fatal(err)
	}
	if err := s.SetupID(2, 1, 4e6); err != nil {
		t.Fatal(err)
	}
	told, rejected := rec.calls, s.Stats().SetupRejects
	if err := s.SetupID(3, 1, 64e3); !errors.Is(err, ErrAdmission) {
		t.Fatalf("third call: %v, want ErrAdmission (history-based denial)", err)
	}
	if got := ad.PortCalls(1); got != 2 {
		t.Fatalf("PortCalls = %d, want 2", got)
	}
	if reserved, _, err := s.PortLoad(1); err != nil || reserved != 8e6 {
		t.Errorf("PortLoad after the refusal = %g, %v; want 8e6", reserved, err)
	}
	if _, err := s.VC(3); !errors.Is(err, ErrNoVC) || s.VCCount() != 2 {
		t.Errorf("the refused call left a VC: VC(3) = %v, VCCount = %d", err, s.VCCount())
	}
	if rec.calls != told {
		t.Errorf("the data plane heard of the refused call")
	}
	if got := s.Stats().SetupRejects - rejected; got != 1 {
		t.Errorf("the refusal was counted %d times in SetupRejects, want 1", got)
	}
	if got := reg.Snapshot().Counters[MetricSetupRejects]; got != 1 {
		t.Errorf("%s = %d, want 1", MetricSetupRejects, got)
	}
	rejects := 0
	for _, ev := range ring.Events() {
		if ev.Kind == metrics.EventSetupReject {
			rejects++
		}
	}
	if rejects != 1 {
		t.Errorf("%d setup-reject events, want 1", rejects)
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

// TestMemoryAdmitterRefusesBadCapacity feeds a direct AdmitCall each
// capacity AddPort refuses. Each must admit nothing and leave no controller
// behind: a switch that adds the port afterwards builds its own from the
// port's capacity and decides TestMemoryAdmitterBlocks's three calls as it
// does there — instead of panicking on a nil controller, refusing the second
// 4 Mb/s call under a NaN capacity, or admitting the third under +Inf.
func TestMemoryAdmitterRefusesBadCapacity(t *testing.T) {
	for _, capacity := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		t.Run(fmt.Sprint(capacity), func(t *testing.T) {
			ad, err := NewMemoryAdmitter([]float64{64e3, 4e6}, 1e-3)
			if err != nil {
				t.Fatal(err)
			}
			if ad.AdmitCall(1, 64e3, 0, capacity) {
				t.Errorf("AdmitCall admitted a call at capacity %g", capacity)
			}
			if n := len(ad.ports); n != 0 {
				t.Fatalf("AdmitCall at capacity %g left %d controllers", capacity, n)
			}
			s := New(WithAdmitter(ad))
			s.clock = new(tickClock).read
			if err := s.AddPort(1, 10e6); err != nil {
				t.Fatal(err)
			}
			for i, c := range []struct {
				rate float64
				want error
			}{{4e6, nil}, {4e6, nil}, {64e3, ErrAdmission}} {
				if err := s.SetupID(VCID(i), 1, c.rate); !errors.Is(err, c.want) {
					t.Errorf("setup %d at %g b/s: %v, want %v", i, c.rate, err, c.want)
				}
			}
		})
	}
}

// TestMemoryAdmitterServesOneSwitch installs one admitter in two switches
// that both add a port 1: A at 10 Mb/s, B at 1 Gb/s. B's port would pool its
// calls with A's on a controller sized for A's capacity and guarded by A's
// mutex, so B's AddPort fails and names the port, and A's port still decides
// TestMemoryAdmitterBlocks's three calls as it does there.
func TestMemoryAdmitterServesOneSwitch(t *testing.T) {
	ad, err := NewMemoryAdmitter([]float64{64e3, 4e6}, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	a, b := New(WithAdmitter(ad)), New(WithAdmitter(ad))
	a.clock, b.clock = new(tickClock).read, new(tickClock).read
	if err := a.AddPort(1, 10e6); err != nil {
		t.Fatal(err)
	}
	err = b.AddPort(1, 1e9)
	if err == nil || !strings.Contains(err.Error(), "port 1") {
		t.Fatalf("switch B's AddPort(1) on switch A's admitter: %v, want an error naming port 1", err)
	}
	if _, _, err := b.PortLoad(1); !errors.Is(err, ErrNoPort) {
		t.Errorf("the refused port exists on B: %v", err)
	}
	if err := b.AddPort(2, 1e9); err != nil {
		t.Errorf("B cannot add a port A does not have: %v", err)
	}
	for i, c := range []struct {
		rate float64
		want error
	}{{4e6, nil}, {4e6, nil}, {64e3, ErrAdmission}} {
		if err := a.SetupID(VCID(i), 1, c.rate); !errors.Is(err, c.want) {
			t.Errorf("A: setup %d at %g b/s: %v, want %v", i, c.rate, err, c.want)
		}
	}
	if got := ad.PortCalls(1); got != 2 {
		t.Errorf("PortCalls(1) = %d, want A's 2", got)
	}
}

// TestOnePortOneLock holds the admitter's direct callers to the port's own
// mutex, the one lock that guards a port's controller. While a port's mutex
// is held, AdmitCall and PortCalls on that port wait for it. And raced
// against setups, renegotiations and teardowns on the same ports, they leave
// the race detector quiet (the Makefile's race target runs this) and the
// books balanced: each port's controller tracks exactly the VCs the switch
// holds there.
func TestOnePortOneLock(t *testing.T) {
	const ports, capacity = 4, 1e9
	ad, err := NewMemoryAdmitter([]float64{64e3, 512e3, 4e6}, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	s := New(WithAdmitter(ad))
	for p := 0; p < ports; p++ {
		if err := s.AddPort(p, capacity); err != nil {
			t.Fatal(err)
		}
	}
	for name, call := range map[string]func(){
		"AdmitCall": func() { ad.AdmitCall(1, 64e3, 0, capacity) },
		"PortCalls": func() { ad.PortCalls(1) },
	} {
		p := s.port(1)
		p.mu.Lock()
		done := make(chan struct{})
		go func() { call(); close(done) }()
		select {
		case <-done:
			t.Errorf("%s returned while port 1's mutex was held", name)
		case <-time.After(20 * time.Millisecond):
		}
		p.mu.Unlock()
		<-done
	}

	rates := []float64{64e3, 512e3, 4e6}
	iters := stormIters
	if testing.Short() {
		iters = 200
	}
	stop := make(chan struct{})
	var probes sync.WaitGroup
	for r := 0; r < 2; r++ {
		probes.Add(1)
		go func(r int) {
			defer probes.Done()
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if !ad.AdmitCall(i%ports, rates[i%len(rates)], 0, capacity) {
					t.Error("AdmitCall refused a call on a port far from full")
					return
				}
				if n := ad.PortCalls(i % ports); n < 0 {
					t.Errorf("PortCalls(%d) = %d", i%ports, n)
					return
				}
			}
		}(r)
	}
	var workers sync.WaitGroup
	for w := 0; w < 4; w++ {
		workers.Add(1)
		go func(w int) {
			defer workers.Done()
			const live = 8
			for i := 0; i < iters; i++ {
				id := VCID(w*1000 + i%live)
				if i >= live {
					if err := s.TeardownID(id); err != nil {
						t.Error(err)
						return
					}
				}
				if err := s.SetupID(id, int(id)%ports, rates[i%len(rates)]); err != nil {
					t.Error(err)
					return
				}
				if _, _, err := s.RenegotiateID(id, rates[(i+1)%len(rates)]); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	workers.Wait()
	close(stop)
	probes.Wait()
	held := make([]int, ports)
	for _, vc := range s.VCs() {
		held[vc.Port]++
	}
	for p := 0; p < ports; p++ {
		if got := ad.PortCalls(p); got != held[p] {
			t.Errorf("port %d: the admitter tracks %d calls, the switch holds %d VCs", p, got, held[p])
		}
	}
}

// TestControlPathLooksNoControllerUp holds every switch-driven admitter call
// to the controller its port resolved at AddPort: with the admitter's port
// map write-locked, a setup, a renegotiation, a best-effort one, an RM cell
// and a teardown still complete, so none of them looks a controller up by
// port id.
func TestControlPathLooksNoControllerUp(t *testing.T) {
	ad, err := NewMemoryAdmitter([]float64{1e6, 2e6}, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	s := New(WithAdmitter(ad))
	if err := s.AddPort(1, 1e9); err != nil {
		t.Fatal(err)
	}
	ad.mu.Lock()
	defer ad.mu.Unlock()
	done := make(chan error, 1)
	go func() {
		err := s.SetupID(7, 1, 1e6)
		if err == nil {
			_, _, err = s.RenegotiateID(7, 2e6)
		}
		if err == nil {
			_, _, err = s.RenegotiateBestID(7, 1e6)
		}
		if err == nil {
			_, err = s.HandleRM(cell.Header{VCI: 7}, cell.RM{Resync: true, ER: 2e6})
		}
		if err == nil {
			err = s.TeardownID(7)
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the control path waited on the admitter's port map")
	}
}

// TestMemoryAdmitterRefusesBadLevels holds NewMemoryAdmitter to the level
// sets a port's controller can pool over: every level finite — NaN and ±Inf
// pass a bare ascending check — and at most 7 of them, the dwell slots a
// VC's call record carries. The refusal of a wider set names the limit. A
// NaN target is refused too.
func TestMemoryAdmitterRefusesBadLevels(t *testing.T) {
	for _, levels := range [][]float64{
		{1e6, math.NaN(), 3e6},
		{math.NaN()},
		{1e6, math.Inf(1)},
		{math.Inf(-1), 1e6},
	} {
		if _, err := NewMemoryAdmitter(levels, 1e-3); err == nil {
			t.Errorf("levels %v accepted", levels)
		}
	}
	eight := []float64{1e6, 2e6, 3e6, 4e6, 5e6, 6e6, 7e6, 8e6}
	if _, err := NewMemoryAdmitter(eight[:7], 1e-3); err != nil {
		t.Errorf("7 levels refused: %v", err)
	}
	if _, err := NewMemoryAdmitter(eight, 1e-3); err == nil || !strings.Contains(err.Error(), "7") {
		t.Errorf("8 levels: err %v, want a refusal naming the limit of 7", err)
	}
	if _, err := NewMemoryAdmitter(eight[:2], math.NaN()); err == nil {
		t.Error("NaN target accepted")
	}
}
