package core_test

import (
	"testing"
	"time"

	"stordep/internal/casestudy"
	"stordep/internal/core"
	"stordep/internal/failure"
	"stordep/internal/units"
)

// batchDesigns collects every design shape the kernel must replicate:
// the case-study what-if set (PiT, backup, vaulting, mirror variants),
// an interconnect-limited mirror, and a multi-sited erasure design.
func batchDesigns() []*core.Design {
	ds := append(casestudy.WhatIfDesigns(), casestudy.AsyncBMirror(4))
	return append(ds, erasureDesign(5, 3))
}

// TestAssessBatchMatchesAssessBrief: for every design and scenario, a
// Cols row folded from the kernel's level fragments and assessed through
// the batch kernel yields Briefs bitwise identical to System.AssessBrief
// — the determinism contract the compiled optimizer path builds on.
func TestAssessBatchMatchesAssessBrief(t *testing.T) {
	scs := briefScenarios()
	for _, d := range batchDesigns() {
		sys, err := core.Build(d)
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		kern, err := core.NewBatchKernel(sys, scs)
		if err != nil {
			t.Fatalf("%s: kernel: %v", d.Name, err)
		}
		// Three rows, with the middle one left invalid: valid rows must
		// be unaffected by neighbors and invalid rows must come back
		// zeroed.
		cols := kern.NewCols(3)
		asm := kern.NewAssembler()
		for _, row := range []int{0, 2} {
			if !asm.Row(d, cols, row) {
				t.Fatalf("%s: row %d refused", d.Name, row)
			}
		}
		var scratch core.BatchScratch
		kern.AssessBatch(3, cols, &scratch)

		var ref core.Scratch
		for si, sc := range scs {
			want, err := sys.AssessBrief(sc, &ref)
			if err != nil {
				t.Fatalf("%s/%s: brief: %v", d.Name, sc.DisplayName(), err)
			}
			for _, row := range []int{0, 2} {
				got := scratch.Briefs[row*len(scs)+si]
				if got != want {
					t.Errorf("%s/%s row %d: batch %+v, brief %+v", d.Name, sc.DisplayName(), row, got, want)
				}
			}
			if got := scratch.Briefs[1*len(scs)+si]; got != (core.Brief{}) {
				t.Errorf("%s/%s: invalid row produced %+v, want zero", d.Name, sc.DisplayName(), got)
			}
		}
	}
}

// TestRecoveryFloorAdmissible: with each device's bandwidth ceiling at
// its spec's MaxBandwidth, the least RecoveryFloor over the levels that
// may serve a scenario (those whose copy survives, or whose multi-sited
// fragments do) never exceeds the recovery time AssessBatch reports,
// for every design shape and scenario the kernel replicates.
func TestRecoveryFloorAdmissible(t *testing.T) {
	scs := briefScenarios()
	checked := 0
	for _, d := range batchDesigns() {
		sys, err := core.Build(d)
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		kern, err := core.NewBatchKernel(sys, scs)
		if err != nil {
			t.Fatalf("%s: kernel: %v", d.Name, err)
		}
		cols := kern.NewCols(1)
		if !kern.NewAssembler().Row(d, cols, 0) {
			t.Fatalf("%s: row refused", d.Name)
		}
		var scratch core.BatchScratch
		kern.AssessBatch(1, cols, &scratch)
		ceil := make([]units.Rate, kern.Devices())
		for di := range ceil {
			ceil[di] = kern.BaseSpec(di).MaxBandwidth()
		}
		for si, sc := range scs {
			b := scratch.Briefs[si]
			if b.WholeObjectLost {
				continue
			}
			floor := units.Forever
			for j := 0; j < kern.Levels(); j++ {
				f := kern.BaseFragment(j)
				serve := kern.DeviceIntact(si, int(f.Copy))
				if kern.MultiLevel(j) {
					serve = kern.MultiServe(si, j)
				}
				if serve {
					floor = min(floor, kern.RecoveryFloor(si, j, f, ceil))
				}
			}
			if floor > b.RecoveryTime {
				t.Errorf("%s/%s: recovery floor %v exceeds the recovery time %v",
					d.Name, sc.DisplayName(), floor, b.RecoveryTime)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("every scenario lost the object")
	}
}

// TestAssessBatchAllocBudget: once the scratch buffer is warm,
// AssessBatch performs no allocations at all — the kernel's reason to
// exist.
func TestAssessBatchAllocBudget(t *testing.T) {
	sys, err := core.Build(casestudy.Baseline())
	if err != nil {
		t.Fatal(err)
	}
	kern, err := core.NewBatchKernel(sys, briefScenarios())
	if err != nil {
		t.Fatal(err)
	}
	const rows = 16
	cols := kern.NewCols(rows)
	asm := kern.NewAssembler()
	for r := 0; r < rows; r++ {
		if !asm.Row(sys.Design(), cols, r) {
			t.Fatal("base row refused")
		}
	}
	var scratch core.BatchScratch
	kern.AssessBatch(rows, cols, &scratch) // warm the brief buffer
	allocs := testing.AllocsPerRun(50, func() {
		kern.AssessBatch(rows, cols, &scratch)
	})
	if allocs != 0 {
		t.Errorf("AssessBatch allocates %.1f objects per call, want 0", allocs)
	}
}

// TestNewBatchKernelRejectsInvalidScenario: scenario validation happens
// once at kernel build time, so AssessBatch can skip it per candidate.
func TestNewBatchKernelRejectsInvalidScenario(t *testing.T) {
	sys, err := core.Build(casestudy.Baseline())
	if err != nil {
		t.Fatal(err)
	}
	bad := []failure.Scenario{{Scope: failure.ScopeArray, TargetAge: -time.Hour}}
	if _, err := core.NewBatchKernel(sys, bad); err == nil {
		t.Error("kernel accepted a scenario AssessBrief would reject")
	}
}

// TestRowRejectsForeignShape: a design whose shape differs from the
// kernel's base design must be refused, not silently mis-assessed.
func TestRowRejectsForeignShape(t *testing.T) {
	sys, err := core.Build(casestudy.Baseline())
	if err != nil {
		t.Fatal(err)
	}
	kern, err := core.NewBatchKernel(sys, briefScenarios())
	if err != nil {
		t.Fatal(err)
	}
	cols := kern.NewCols(1)
	if kern.NewAssembler().Row(erasureDesign(5, 3), cols, 0) || cols.Valid[0] {
		t.Error("row accepted a design with a different shape")
	}
}
