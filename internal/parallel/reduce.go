package parallel

import (
	"sync"
	"sync/atomic"
)

// Reduce streams fn over [0, n) and folds the results into per-worker
// accumulators, so an aggregate over an arbitrarily large index space
// costs O(workers) memory instead of Map's O(n) result slice.
//
// Each of the at most workers goroutines (Workers-resolved) owns one
// accumulator created by acc; fold(a, i) incorporates index i and returns
// the updated accumulator. When the space is drained the per-worker
// accumulators are merged left-to-right in worker-index order. Work is
// handed out by the same atomic counter as Map, so which indices land in
// which accumulator is scheduling-dependent — the overall result is
// deterministic exactly when merge is insensitive to how the index space
// was partitioned. Aggregations that tag values with their index satisfy
// this naturally: an argmin that breaks ties toward the lowest index
// returns the same winner for every partition, because each worker sees
// its indices in increasing order and merge re-applies the same rule.
//
// Errors keep Map's first-error semantics: the error of the lowest-index
// failing call is returned (with a zero accumulator), and indices beyond
// the earliest known failure may be skipped.
func Reduce[A any](workers, n int, acc func() A, fold func(a A, i int) (A, error), merge func(a, b A) A) (A, error) {
	if n <= 0 {
		return acc(), nil
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w == 1 {
		a := acc()
		for i := 0; i < n; i++ {
			var err error
			if a, err = fold(a, i); err != nil {
				var zero A
				return zero, err
			}
		}
		return a, nil
	}

	var next atomic.Int64
	var firstErr atomic.Int64 // lowest failing index seen so far
	firstErr.Store(int64(n))  // sentinel: no error
	var errMu sync.Mutex      // guards errVal; taken only on the error path
	var errVal error          // error of the firstErr index
	accs := make([]A, w)

	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			a := acc()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					break
				}
				// Indices are handed out in increasing order, so any
				// index above the earliest known failure cannot affect
				// the returned error — skip the work.
				if int64(i) > firstErr.Load() {
					continue
				}
				var err error
				if a, err = fold(a, i); err != nil {
					errMu.Lock()
					if int64(i) < firstErr.Load() {
						firstErr.Store(int64(i))
						errVal = err
					}
					errMu.Unlock()
				}
			}
			accs[g] = a
		}(g)
	}
	wg.Wait()

	if firstErr.Load() < int64(n) {
		var zero A
		return zero, errVal
	}
	out := accs[0]
	for _, a := range accs[1:] {
		out = merge(out, a)
	}
	return out, nil
}
