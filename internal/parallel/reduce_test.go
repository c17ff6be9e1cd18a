package parallel

import (
	"errors"
	"fmt"
	"testing"
)

// argmin is the canonical partition-insensitive accumulator: lowest
// value wins, ties break to the lowest index.
type argmin struct {
	val float64
	idx int
}

func newArgmin() argmin { return argmin{idx: -1} }

func foldArgmin(a argmin, i int, v float64) argmin {
	if a.idx < 0 || v < a.val || (v == a.val && i < a.idx) {
		return argmin{val: v, idx: i}
	}
	return a
}

func mergeArgmin(a, b argmin) argmin {
	if b.idx < 0 {
		return a
	}
	if a.idx < 0 || b.val < a.val || (b.val == a.val && b.idx < a.idx) {
		return b
	}
	return a
}

// TestReduceArgminDeterminism: the argmin of a value set with duplicate
// minima is identical for every worker count — ties to the lowest index.
func TestReduceArgminDeterminism(t *testing.T) {
	const n = 1000
	val := func(i int) float64 { return float64((i*7919 + 13) % 97) } // min 0 hit repeatedly
	want, err := Reduce(1, n,
		newArgmin,
		func(a argmin, i int) (argmin, error) { return foldArgmin(a, i, val(i)), nil },
		mergeArgmin)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 4, 8, 33} {
		got, err := Reduce(workers, n,
			newArgmin,
			func(a argmin, i int) (argmin, error) { return foldArgmin(a, i, val(i)), nil },
			mergeArgmin)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("workers=%d: argmin = %+v, want %+v", workers, got, want)
		}
	}
}

// TestReduceSum: a commutative fold (sum) matches the serial total at
// every worker count.
func TestReduceSum(t *testing.T) {
	const n = 512
	want := n * (n - 1) / 2
	for _, workers := range []int{1, 3, 16} {
		got, err := Reduce(workers, n,
			func() int { return 0 },
			func(a, i int) (int, error) { return a + i, nil },
			func(a, b int) int { return a + b })
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("workers=%d: sum = %d, want %d", workers, got, want)
		}
	}
}

// TestReduceFirstError: the lowest-index failure is returned, matching
// Map's serial first-error semantics.
func TestReduceFirstError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		_, err := Reduce(workers, 100,
			func() int { return 0 },
			func(a, i int) (int, error) {
				if i >= 40 {
					return a, fmt.Errorf("fail at %d", i)
				}
				return a + 1, nil
			},
			func(a, b int) int { return a + b })
		if err == nil || err.Error() != "fail at 40" {
			t.Errorf("workers=%d: err = %v, want fail at 40", workers, err)
		}
	}
}

// TestReduceConstantMemory: allocations are independent of the index
// space — the streaming contract that lets an unbounded exhaustive
// search run without materializing O(n) state.
func TestReduceConstantMemory(t *testing.T) {
	run := func(n int) float64 {
		return testing.AllocsPerRun(3, func() {
			got, err := Reduce(4, n,
				func() int { return 0 },
				func(a, i int) (int, error) { return a + i, nil },
				func(a, b int) int { return a + b })
			if err != nil || got != n*(n-1)/2 {
				t.Fatalf("n=%d: sum = %d, %v", n, got, err)
			}
		})
	}
	small, large := run(1<<10), run(1<<17)
	if large > small+8 {
		t.Errorf("allocs grew with n: %.0f at 2^10 vs %.0f at 2^17", small, large)
	}
}

// TestReduceEmpty: an empty index space returns the fresh accumulator.
func TestReduceEmpty(t *testing.T) {
	got, err := Reduce(4, 0,
		func() int { return 42 },
		func(a, i int) (int, error) { return 0, errors.New("never") },
		func(a, b int) int { return 0 })
	if err != nil || got != 42 {
		t.Errorf("empty reduce = %d, %v; want 42, nil", got, err)
	}
}
