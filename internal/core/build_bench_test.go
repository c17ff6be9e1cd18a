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

// TestBuildAllocBudget bounds the allocations of one core.Build, and of
// one System.Rebuild into a System that has held the design before. A
// fresh build measures 8 for the mirror and 9 for Baseline: the System,
// the devices, their demand array and the pointers to them, the outlay
// items, the chain, the spare placements, and the array name of each
// default spare placement (one in the mirror, two in Baseline); a build
// whose System does not escape keeps it on the stack (7 and 8).
// Allocating each device and its demand list on its own (12 and 17)
// breaks both budgets, and an outlay list that regrows from empty (10
// and 12) Baseline's. A rebuild reuses all of that storage, including
// the spare placements' array names, so its budget is 0.
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
		var sys core.System
		got = testing.AllocsPerRun(200, func() {
			if err := sys.Rebuild(c.d); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: allocs per rebuild: %.0f (budget 0)", c.name, got)
		if got > 0 {
			t.Errorf("%s: System.Rebuild into reused storage allocates %.0f, budget 0", c.name, got)
		}
	}
}

// BenchmarkBuild times one core.Build of each case, and one
// System.Rebuild of it into reused storage ("/reused").
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
		b.Run(c.name+"/reused", func(b *testing.B) {
			var sys core.System
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := sys.Rebuild(c.d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
