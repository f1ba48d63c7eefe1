package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// withProcs runs fn at GOMAXPROCS procs and restores the old value. Sweep
// runs min(GOMAXPROCS, n) workers, so this sets the size of its pool: 1 is
// the serial run.
func withProcs(procs int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fn()
}

// TestSweepOrderedResults: results come back in index order for every
// pool size, identical to the serial run.
func TestSweepOrderedResults(t *testing.T) {
	const n = 57
	want := make([]int, n)
	for i := range want {
		want[i] = i * i
	}
	for _, procs := range []int{1, 2, 3, 8, n, 4 * n} {
		var got []int
		var err error
		withProcs(procs, func() {
			got, err = Sweep(context.Background(), n,
				func(_ context.Context, i int) (int, error) { return i * i, nil })
		})
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		if len(got) != n {
			t.Fatalf("GOMAXPROCS=%d: %d results, want %d", procs, len(got), n)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("GOMAXPROCS=%d: result[%d] = %d, want %d", procs, i, got[i], want[i])
			}
		}
	}
}

func TestSweepEmpty(t *testing.T) {
	got, err := Sweep(context.Background(), 0,
		func(_ context.Context, i int) (int, error) { return i, nil })
	if err != nil || got != nil {
		t.Fatalf("empty sweep: got %v, %v", got, err)
	}
}

// TestSweepFailFast: an error at index 0 must cancel the sweep's context
// (so ctx-respecting grid points stop), and the returned error must be the
// real failure, not one of the cancellations it triggered.
func TestSweepFailFast(t *testing.T) {
	boom := errors.New("boom")
	for _, procs := range []int{1, 4} {
		var calls atomic.Int64
		var err error
		withProcs(procs, func() {
			_, err = Sweep(context.Background(), 100,
				func(ctx context.Context, i int) (int, error) {
					calls.Add(1)
					if i == 0 {
						return 0, boom
					}
					<-ctx.Done() // block until fail-fast cancellation
					return 0, ctx.Err()
				})
		})
		if !errors.Is(err, boom) {
			t.Fatalf("GOMAXPROCS=%d: got %v, want %v", procs, err, boom)
		}
		if c := calls.Load(); c > int64(2*procs) {
			t.Fatalf("GOMAXPROCS=%d: %d grid points started after the failure; fail-fast is not cancelling", procs, c)
		}
	}
}

// TestSweepLowestIndexError: with several real failures, the lowest index
// deterministically wins regardless of completion order.
func TestSweepLowestIndexError(t *testing.T) {
	errAt := make([]error, 16)
	for i := range errAt {
		errAt[i] = fmt.Errorf("fail %d", i)
	}
	for _, procs := range []int{1, 8} {
		for trial := 0; trial < 20; trial++ {
			var err error
			withProcs(procs, func() {
				_, err = Sweep(context.Background(), len(errAt),
					func(_ context.Context, i int) (int, error) {
						if i%2 == 1 {
							return 0, errAt[i]
						}
						return i, nil
					})
			})
			if !errors.Is(err, errAt[1]) {
				t.Fatalf("GOMAXPROCS=%d trial %d: got %v, want %v", procs, trial, err, errAt[1])
			}
		}
	}
}

// TestSweepParentCancellation: a cancelled parent context surfaces as
// ctx.Err(), both up front and mid-sweep.
func TestSweepParentCancellation(t *testing.T) {
	for _, procs := range []int{1, 4} {
		withProcs(procs, func() {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := Sweep(ctx, 5,
				func(_ context.Context, i int) (int, error) { return i, nil }); !errors.Is(err, context.Canceled) {
				t.Errorf("GOMAXPROCS=%d: pre-cancelled sweep: got %v", procs, err)
			}

			ctx, cancel = context.WithCancel(context.Background())
			defer cancel()
			_, err := Sweep(ctx, 100,
				func(sctx context.Context, i int) (int, error) {
					if i == 0 {
						cancel() // external cancellation mid-sweep
					}
					<-sctx.Done()
					return 0, sctx.Err()
				})
			if !errors.Is(err, context.Canceled) {
				t.Errorf("GOMAXPROCS=%d: mid-sweep cancellation: got %v", procs, err)
			}
		})
	}
}
