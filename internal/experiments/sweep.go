package experiments

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

// Sweep evaluates fn(ctx, i) for every index in [0, n) and returns the
// results in index order regardless of execution order. It is the shared
// grid runner behind the figure sweeps: each grid point must be
// independent, seeding any randomness from its index rather than from
// shared mutable state.
//
// It runs min(GOMAXPROCS, n) workers. The sweep is fail-fast: the first
// error cancels the context passed to fn, un-started indices are skipped,
// and after all in-flight calls drain the error with the lowest index is
// returned — so the reported failure is deterministic even though goroutine
// scheduling is not. Cancellation of the parent ctx stops the sweep the same
// way and surfaces ctx's error when no fn call failed on its own.
func Sweep[R any](ctx context.Context, n int, fn func(ctx context.Context, i int) (R, error)) ([]R, error) {
	if n <= 0 {
		return nil, nil
	}
	results := make([]R, n)
	workers := min(runtime.GOMAXPROCS(0), n)

	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Cancellation is tested before an index is claimed, never after:
			// a claimed index always runs. Indices are claimed in increasing
			// order, so every index below one that failed was claimed first
			// and runs too — the lowest failure is always among the errors.
			for sctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				r, err := fn(sctx, i)
				if err != nil {
					errs[i] = err
					cancel()
					return
				}
				results[i] = r
			}
		}()
	}
	wg.Wait()

	// Prefer a real failure over the cancellation errors that in-flight
	// calls may report once fail-fast kicks in; among real failures the
	// lowest index wins.
	var fallback error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			return nil, err
		}
		if fallback == nil {
			fallback = err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if fallback != nil {
		return nil, fallback
	}
	return results, nil
}
