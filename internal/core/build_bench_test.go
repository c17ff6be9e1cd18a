package core_test

import (
	"testing"

	"stordep/internal/casestudy"
	"stordep/internal/core"
)

// buildCases are the designs whose builds BenchmarkBuild times and
// TestBuildAllocBudget bounds, each with its budget: the async mirror a
// Monte Carlo request builds three times, and Baseline, the search
// workload's base design.
var buildCases = []struct {
	name   string
	d      *core.Design
	budget float64
}{
	{"mirror", casestudy.AsyncBMirror(5), 10},
	{"baseline", casestudy.Baseline(), 11},
}

// TestBuildAllocBudget bounds the allocations of one core.Build. The
// mirror build measures 8 and Baseline 9: the System, the devices, their
// demand array and the pointers to them, the outlay items, the chain,
// the spare placements, and the array name of each default spare
// placement (one in the mirror, two in Baseline). Allocating each device
// and its demand list on its own (12 and 17) breaks both budgets, and an
// outlay list that regrows from empty (10 and 12) Baseline's.
func TestBuildAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement")
	}
	for _, c := range buildCases {
		got := testing.AllocsPerRun(200, func() {
			if _, err := core.Build(c.d); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: allocs per build: %.0f (budget %.0f)", c.name, got, c.budget)
		if got > c.budget {
			t.Errorf("%s: core.Build allocates %.0f, budget %.0f", c.name, got, c.budget)
		}
	}
}

// BenchmarkBuild times one core.Build of each case.
func BenchmarkBuild(b *testing.B) {
	for _, c := range buildCases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Build(c.d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
