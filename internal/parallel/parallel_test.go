package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	if got := Workers(4); got != 4 {
		t.Errorf("Workers(4) = %d", got)
	}
	if got := Workers(0); got != runtime.NumCPU() {
		t.Errorf("Workers(0) = %d, want NumCPU %d", got, runtime.NumCPU())
	}
	if got := Workers(-3); got != runtime.NumCPU() {
		t.Errorf("Workers(-3) = %d, want NumCPU %d", got, runtime.NumCPU())
	}
}

// TestMapOrder: results come back in input order whatever the worker
// count, including counts far above the item count.
func TestMapOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 64} {
		out, err := Map(workers, 100, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 100 {
			t.Fatalf("workers=%d: %d results", workers, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	out, err := Map(4, 0, func(i int) (int, error) { return 0, nil })
	if err != nil || out == nil || len(out) != 0 {
		t.Errorf("Map(_, 0) = %v, %v; want empty slice", out, err)
	}
}

// TestMapFirstError: with several failing indices the lowest one's error
// is returned — identical to a serial loop stopping at the first failure.
func TestMapFirstError(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		_, err := Map(workers, 200, func(i int) (int, error) {
			if i == 7 || i == 50 || i == 199 {
				return 0, fmt.Errorf("fail at %d", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "fail at 7" {
			t.Errorf("workers=%d: err = %v, want fail at 7", workers, err)
		}
	}
}

// TestMapErrorSkips: once an early index fails, far-later indices may be
// skipped, but everything below the failure still runs (it could hold an
// even earlier failure).
func TestMapErrorSkips(t *testing.T) {
	var ran atomic.Int64
	_, err := Map(4, 1000, func(i int) (int, error) {
		ran.Add(1)
		if i == 3 {
			return 0, errors.New("boom")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("no error")
	}
	if n := ran.Load(); n == 1000 {
		t.Logf("all indices ran despite early error (legal, but the skip path saved nothing)")
	}
}

// TestMapDeterministicError: the returned error is stable across repeats
// and worker counts even when many indices fail.
func TestMapDeterministicError(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		for _, workers := range []int{2, 5, 16} {
			_, err := Map(workers, 64, func(i int) (int, error) {
				if i%2 == 1 {
					return 0, fmt.Errorf("odd %d", i)
				}
				return i, nil
			})
			if err == nil || err.Error() != "odd 1" {
				t.Fatalf("trial %d workers %d: err = %v", trial, workers, err)
			}
		}
	}
}

func BenchmarkMapDispatch(b *testing.B) {
	// Dispatch overhead for trivially cheap work items.
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Map(4, 256, func(i int) (int, error) { return i, nil }); err != nil {
			b.Fatal(err)
		}
	}
}
