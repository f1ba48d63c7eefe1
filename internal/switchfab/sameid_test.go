package switchfab

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// lifecycleRecorder is a DataPlane that checks the order it is told things
// in: a VC is set up only while absent, and retargeted or torn down only
// while present, on the port it was set up on. It yields inside OnSetup and
// OnTeardown so that whatever the switch allows to overlap with a hook,
// does.
type lifecycleRecorder struct {
	mu         sync.Mutex
	vcs        map[VCID]VCInfo
	violations []string
}

func (r *lifecycleRecorder) violate(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

func (r *lifecycleRecorder) OnSetup(port int, id VCID, rate float64) {
	runtime.Gosched()
	r.mu.Lock()
	defer r.mu.Unlock()
	if was, up := r.vcs[id]; up {
		r.violate("setup of %s on port %d while it is up on port %d", id, port, was.Port)
	}
	r.vcs[id] = VCInfo{VPI: id.VPI(), VCI: id.VCI(), Port: port, Rate: rate}
}

func (r *lifecycleRecorder) OnRateChange(port int, id VCID, rate float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	was, up := r.vcs[id]
	if !up || was.Port != port {
		r.violate("rate change of %s on port %d: up=%v on port %d", id, port, up, was.Port)
		return
	}
	was.Rate = rate
	r.vcs[id] = was
}

func (r *lifecycleRecorder) OnTeardown(port int, id VCID) {
	runtime.Gosched()
	r.mu.Lock()
	defer r.mu.Unlock()
	if was, up := r.vcs[id]; !up || was.Port != port {
		r.violate("teardown of %s on port %d: up=%v on port %d", id, port, up, was.Port)
	}
	delete(r.vcs, id)
}

// TestParallelSameIDLifecycle races every lifecycle operation on the same
// few ids across several ports, which is where per-VC consistency rests on
// the port mutex and the gone flag alone: a teardown on one port against a
// setup of the same id on another, and renegotiations that looked the VC up
// just before it went. The data plane must see each id's events in an order
// that makes sense, and at the end it, the listing and the port books agree
// exactly (rates are integers, so sums are exact in float64). Run under
// -race by `make race`.
func TestParallelSameIDLifecycle(t *testing.T) {
	const (
		workers = 8
		ports   = 4
		ids     = 6
		iters   = 2000
	)
	rec := &lifecycleRecorder{vcs: make(map[VCID]VCInfo)}
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

	for _, v := range rec.violations {
		t.Error(v)
	}
	listed := s.VCs()
	if len(listed) != len(rec.vcs) || len(listed) != s.VCCount() {
		t.Fatalf("switch lists %d VCs (VCCount %d), the data plane holds %d", len(listed), s.VCCount(), len(rec.vcs))
	}
	sum := make([]float64, ports)
	for _, vc := range listed {
		if got := rec.vcs[MakeVCID(vc.VPI, vc.VCI)]; got != vc {
			t.Errorf("switch lists %+v, the data plane holds %+v", vc, got)
		}
		sum[vc.Port] += vc.Rate
	}
	for p := 0; p < ports; p++ {
		if reserved, _, _ := s.PortLoad(p); reserved != sum[p] {
			t.Errorf("port %d reserved %v, its VCs' rates sum to %v", p, reserved, sum[p])
		}
	}
	if clamps := s.Stats().ReservedClamps; clamps != 0 {
		t.Errorf("ReservedClamps = %d, want 0", clamps)
	}
}
