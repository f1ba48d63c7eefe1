package mesh

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"rcbr/internal/switchfab"
)

// TestConcurrentBottleneckNoOvercommit drives 32 paths across one shared
// bottleneck link through a storm of conflicting increases (most of which
// must partially settle, deny, or roll back) and then checks the two
// invariants the rollback protocol promises: no hop's port is ever
// reserved past its capacity, and after the storm every hop's reservation
// equals the sum of the rates its paths believe they hold. Run under
// -race this also exercises the path semaphore and the switch's
// per-port locking from 32 goroutines at once.
func TestConcurrentBottleneckNoOvercommit(t *testing.T) {
	const (
		nPaths     = 32
		rounds     = 40
		bottleneck = 10e6
	)
	m := New()
	// Parking lot: a dedicated ingress switch per path, all funneling
	// into one shared bottleneck switch.
	shared := switchfab.New()
	if err := m.AddSwitch("bneck", shared); err != nil {
		t.Fatal(err)
	}
	if err := m.AddHost("dst"); err != nil {
		t.Fatal(err)
	}
	if err := m.AddLink("bneck", "dst", 1, bottleneck, 0); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	paths := make([]*Path, nPaths)
	for i := 0; i < nPaths; i++ {
		name := "in" + string(rune('a'+i/26)) + string(rune('a'+i%26))
		if err := m.AddSwitch(name, switchfab.New()); err != nil {
			t.Fatal(err)
		}
		// Generous ingress links: the shared link is the only bottleneck.
		if err := m.AddLink(name, "bneck", 1, bottleneck, 0); err != nil {
			t.Fatal(err)
		}
		hops, err := m.Route(name, "bneck", "dst")
		if err != nil {
			t.Fatal(err)
		}
		p, err := m.SetupPath(ctx, switchfab.VCID(i+1), hops, 100e3)
		if err != nil {
			t.Fatal(err)
		}
		paths[i] = p
	}
	var wg sync.WaitGroup
	for i, p := range paths {
		wg.Add(1)
		go func(i int, p *Path) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i)))
			for r := 0; r < rounds; r++ {
				// Ask for far more than a fair share half the time, so
				// grants collide and the rollback/settle machinery runs.
				target := 100e3 + rng.Float64()*(bottleneck/4)
				if _, err := p.Renegotiate(ctx, target); err != nil {
					var re *RateError
					if !errors.As(err, &re) {
						t.Errorf("path %d: unexpected error: %v", i, err)
						return
					}
				}
				if reserved, capacity, err := shared.PortLoad(1); err != nil || reserved > capacity+1e-6 {
					t.Errorf("bottleneck over-committed mid-storm: %v of %v (%v)", reserved, capacity, err)
					return
				}
			}
		}(i, p)
	}
	wg.Wait()
	reserved, capacity, err := shared.PortLoad(1)
	if err != nil {
		t.Fatal(err)
	}
	if reserved > capacity+1e-6 {
		t.Fatalf("bottleneck over-committed after storm: %v of %v", reserved, capacity)
	}
	var sum float64
	for _, p := range paths {
		sum += p.Rate()
	}
	if diff := reserved - sum; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("bottleneck reservation %v disagrees with the paths' own rates %v", reserved, sum)
	}
}

// TestMinAlongPathProperty checks the paper's end-to-end invariant with
// randomized topologies: for a path alone on its hops except for one
// fixed competing reservation per hop, the granted rate equals
// min(target, min over hops of (old rate + headroom)) — and every hop's
// reservation afterward equals exactly the granted rate plus its
// competitor's. The rates are random and off the switch's lattice, so the
// oracle books them as the switch does, in whole 2⁻⁹ b/s, and compares
// exactly.
func TestMinAlongPathProperty(t *testing.T) {
	const (
		capacity = 1e6
		initial  = 50e3
	)
	book := func(rate float64) int64 { return int64(math.Round(rate * 512)) }
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nHops := 1 + rng.Intn(6)
		m := New()
		if err := m.AddHost("dst"); err != nil {
			t.Fatal(err)
		}
		names := make([]string, nHops)
		sws := make([]*switchfab.Switch, nHops)
		minCeiling := book(capacity)
		competitors := make([]int64, nHops)
		for i := range names {
			names[i] = "s" + string(rune('a'+i))
			sws[i] = switchfab.New()
			if err := m.AddSwitch(names[i], sws[i]); err != nil {
				t.Fatal(err)
			}
		}
		ctx := context.Background()
		for i := range names {
			next := "dst"
			if i+1 < nHops {
				next = names[i+1]
			}
			if err := m.AddLink(names[i], next, 1, capacity, 0); err != nil {
				t.Fatal(err)
			}
		}
		route := append(append([]string(nil), names...), "dst")
		hops, err := m.Route(route...)
		if err != nil {
			t.Fatal(err)
		}
		// One competing single-hop VC per switch with a random rate.
		for i := range hops {
			compet := rng.Float64() * (capacity - initial)
			if _, err := m.SetupPath(ctx, switchfab.VCID(1000+i), hops[i:i+1], compet); err != nil {
				t.Fatal(err)
			}
			competitors[i] = book(compet)
			minCeiling = min(minCeiling, book(capacity)-competitors[i])
		}
		p, err := m.SetupPath(ctx, 1, hops, initial)
		if err != nil {
			t.Fatal(err)
		}
		target := initial + rng.Float64()*capacity
		got, err := p.Renegotiate(ctx, target)
		want := max(min(book(target), minCeiling), book(initial))
		if got != float64(want)/512 {
			t.Logf("seed %d: granted %v, want min-along-path %v (target %v, ceiling %v)",
				seed, got, float64(want)/512, target, float64(minCeiling)/512)
			return false
		}
		wantErr := want != book(target)
		if wantErr == (err == nil) {
			t.Logf("seed %d: error mismatch: granted %v of %v with err %v", seed, got, target, err)
			return false
		}
		if err != nil && !errors.Is(err, switchfab.ErrCapacity) {
			t.Logf("seed %d: error does not unwrap to ErrCapacity: %v", seed, err)
			return false
		}
		// Every hop holds exactly its competitor plus the granted rate.
		for i, name := range names {
			reserved, _, err := sws[i].PortLoad(1)
			if err != nil {
				t.Fatal(err)
			}
			if reserved != float64(competitors[i]+want)/512 {
				t.Logf("seed %d: hop %d (%s) reserved %v with path at %v and competitor %v",
					seed, i, name, reserved, got, float64(competitors[i])/512)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
