package switchfab

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"rcbr/internal/cell"
)

// lifecycleRecorder is a DataPlane that checks the order it is told things
// in: a VC is set up only while absent, and torn down only while present, on
// the port it was set up on. It hands out a fresh rate word per incarnation
// of a VC and snapshots the word's value at teardown, so a store that lands
// on a retired word shows. It yields inside OnSetup and OnTeardown so that
// whatever the switch allows to overlap with a hook, does.
type lifecycleRecorder struct {
	mu         sync.Mutex
	vcs        map[VCID]incarnation
	retired    []incarnation
	violations []string
}

// incarnation is one setup of a VC as the data plane saw it: its port, its
// word and, once retired, the word's value at teardown.
type incarnation struct {
	id   VCID
	port int
	word *RateWord
	last float64
}

func newLifecycleRecorder() *lifecycleRecorder {
	return &lifecycleRecorder{vcs: make(map[VCID]incarnation)}
}

func (r *lifecycleRecorder) violate(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

func (r *lifecycleRecorder) OnSetup(port int, id VCID, rate float64) (*RateWord, error) {
	runtime.Gosched()
	r.mu.Lock()
	defer r.mu.Unlock()
	if was, up := r.vcs[id]; up {
		r.violate("setup of %s on port %d while it is up on port %d", id, port, was.port)
	}
	w := new(RateWord)
	w.Store(rate)
	r.vcs[id] = incarnation{id: id, port: port, word: w}
	return w, nil
}

func (r *lifecycleRecorder) OnTeardown(port int, id VCID) {
	runtime.Gosched()
	r.mu.Lock()
	defer r.mu.Unlock()
	was, up := r.vcs[id]
	if !up || was.port != port {
		r.violate("teardown of %s on port %d: up=%v on port %d", id, port, up, was.port)
	}
	if up {
		was.last = was.word.Load()
		r.retired = append(r.retired, was)
	}
	delete(r.vcs, id)
}

// check holds a quiescent switch and the recorder to each other: no hook
// came out of order, no retired word moved after its teardown, and the
// switch lists exactly the live incarnations, each on its port with its
// word holding the VC's rate.
func (r *lifecycleRecorder) check(t *testing.T, s *Switch) {
	t.Helper()
	for _, v := range r.violations {
		t.Error(v)
	}
	for _, in := range r.retired {
		if got := in.word.Load(); got != in.last {
			t.Errorf("%s on port %d: retired word moved from %v to %v after teardown", in.id, in.port, in.last, got)
		}
	}
	listed := s.VCs()
	if len(listed) != len(r.vcs) || len(listed) != s.VCCount() {
		t.Fatalf("switch lists %d VCs (VCCount %d), the data plane holds %d", len(listed), s.VCCount(), len(r.vcs))
	}
	for _, vc := range listed {
		id := MakeVCID(vc.VPI, vc.VCI)
		in, up := r.vcs[id]
		got, err := s.VC(id)
		if !up || in.port != vc.Port || err != nil || got != vc || in.word.Load() != vc.Rate {
			t.Errorf("switch lists %+v (VC %+v, %v), the data plane holds %+v with word %v", vc, got, err, in, in.word.Load())
		}
	}
}

// TestParallelSameIDLifecycle races every lifecycle operation on the same
// few ids across several ports, which is where per-VC consistency rests on
// the port mutex and the gone flag alone: a teardown on one port against a
// setup of the same id on another, and renegotiations that looked the VC up
// just before it went. The data plane must see each id's events in an order
// that makes sense, and at the end it, the listing and the port books agree
// exactly (rates are integers, so sums are exact in float64), every VC's
// rate word included. Run under -race by `make race`.
func TestParallelSameIDLifecycle(t *testing.T) {
	const (
		workers = 8
		ports   = 4
		ids     = 6
		iters   = 2000
	)
	rec := newLifecycleRecorder()
	s := New(WithDataPlane(rec))
	for p := 0; p < ports; p++ {
		// Tight enough that setups are refused and best-effort grants are
		// partial some of the time.
		if err := s.AddPort(p, 6e6); err != nil {
			t.Fatal(err)
		}
	}
	rates := []float64{64e3, 512e3, 1e6, 2e6, 4e6}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < iters; i++ {
				id := MakeVCID(uint8(rng.Intn(2)), uint16(rng.Intn(ids/2)))
				rate := rates[rng.Intn(len(rates))]
				var err error
				switch rng.Intn(4) {
				case 0:
					if err = s.SetupID(id, rng.Intn(ports), rate); IsReject(err) || errors.Is(err, ErrVCExists) {
						err = nil
					}
				case 1:
					err = s.TeardownID(id)
				case 2:
					_, _, err = s.RenegotiateID(id, rate)
				case 3:
					_, _, err = s.RenegotiateBestID(id, rate)
				}
				if err != nil && !errors.Is(err, ErrNoVC) {
					t.Errorf("worker %d step %d on %s: %v", w, i, id, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	rec.check(t, s)
	sum := make([]float64, ports)
	for _, vc := range s.VCs() {
		sum[vc.Port] += vc.Rate
	}
	for p := 0; p < ports; p++ {
		if reserved, _, _ := s.PortLoad(p); reserved != sum[p] {
			t.Errorf("port %d reserved %v, its VCs' rates sum to %v", p, reserved, sum[p])
		}
	}
}

// TestNoStoreLandsOnARetiredRateWord flaps one id between two ports — set
// up on one, torn down, set up on the other — while renegotiators drive it
// concurrently, each with rates no other request uses, so a stale store is
// told apart from a late one. A renegotiation that found an incarnation just
// before its teardown reaches the port mutex after it and must see the VC
// gone: no store may land on the retired word, and at quiescence the live
// word holds exactly the switch's rate. Run under -race by `make race`.
func TestNoStoreLandsOnARetiredRateWord(t *testing.T) {
	const (
		flaps         = 2000
		renegotiators = 4
	)
	rec := newLifecycleRecorder()
	s := New(WithDataPlane(rec))
	for p := 0; p < 2; p++ {
		if err := s.AddPort(p, 1e12); err != nil {
			t.Fatal(err)
		}
	}
	id := MakeVCID(3, 7)
	var wg sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < renegotiators; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := cell.Header{VPI: id.VPI(), VCI: id.VCI()}
			for k := 1; ; k++ {
				select {
				case <-done:
					return
				default:
				}
				rate := float64(k*renegotiators + w) // this request's alone
				var err error
				if k%2 == 0 {
					_, _, err = s.RenegotiateID(id, rate)
				} else {
					_, err = s.HandleRM(h, cell.RM{Resync: true, ER: rate})
				}
				if err != nil && !errors.Is(err, ErrNoVC) {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for i := 0; i <= flaps; i++ {
		if err := s.SetupID(id, i%2, 1); err != nil {
			t.Error(err)
			break
		}
		runtime.Gosched()
		if i == flaps {
			break // the last incarnation stays up
		}
		if err := s.TeardownID(id); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()
	rec.check(t, s)
	if len(rec.retired) != flaps || s.VCCount() != 1 {
		t.Errorf("%d incarnations retired and %d up, want %d and 1", len(rec.retired), s.VCCount(), flaps)
	}
}
