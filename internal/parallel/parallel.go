// Package parallel is the shared worker-pool substrate behind the
// framework's three hot loops: what-if design-space evaluation
// (whatif.Evaluate), optimizer candidate scoring (opt.Tune /
// opt.Exhaustive) and chaos campaigns (chaos.Campaign.Run).
//
// The pool preserves the two properties the serial loops had, so turning
// parallelism on never changes observable results:
//
//   - input order: results are returned indexed exactly as the inputs
//     were given, regardless of completion order;
//   - first-error semantics: when calls fail, the error of the
//     lowest-index failing call is returned — the same error a serial
//     loop that stops at the first failure would have produced
//     (provided the work function is deterministic per index).
//
// Work is handed out by an atomic counter rather than a channel, so the
// per-item dispatch cost stays tens of nanoseconds; with workers == 1 or
// a single item the pool degenerates to an inline loop with no
// synchronization at all.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count setting: n > 0 is used as given; zero
// and negative values mean runtime.NumCPU(). Command-line frontends
// reject negatives before they get here; the library treats them as the
// default so a zero value is always safe.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.NumCPU()
}

// Map runs fn(i) for every i in [0, n) on at most workers goroutines
// (Workers-resolved) and returns the n results in input order. If any
// calls fail, Map returns a nil slice and the error of the lowest-index
// failing call; indices beyond the earliest known failure may be skipped.
func Map[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return []T{}, nil
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	out := make([]T, n)
	if w == 1 {
		for i := 0; i < n; i++ {
			v, err := fn(i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}

	var next atomic.Int64
	var firstErr atomic.Int64 // lowest failing index seen so far
	firstErr.Store(int64(n))  // sentinel: no error
	errs := make([]error, n)

	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				// Indices are handed out in increasing order, so any
				// index above the earliest known failure cannot affect
				// the returned error — skip the work.
				if int64(i) > firstErr.Load() {
					continue
				}
				v, err := fn(i)
				if err != nil {
					errs[i] = err
					for {
						cur := firstErr.Load()
						if int64(i) >= cur || firstErr.CompareAndSwap(cur, int64(i)) {
							break
						}
					}
					continue
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()

	if e := firstErr.Load(); e < int64(n) {
		return nil, errs[e]
	}
	return out, nil
}
