package core_test

import (
	"testing"
	"time"

	"stordep/internal/casestudy"
	"stordep/internal/core"
	"stordep/internal/units"
)

// The two hot callers of the restore function: the batch kernel, which
// evaluates it once per (candidate, scenario), and the prune bound's
// recovery-time floor, which evaluates it per table entry, level and
// scenario. Both report their cost per evaluation so runs with different
// scenario sets compare.

// BenchmarkAssessBatch assesses 64 Baseline rows under briefScenarios().
func BenchmarkAssessBatch(b *testing.B) {
	sys, err := core.Build(casestudy.Baseline())
	if err != nil {
		b.Fatal(err)
	}
	scs := briefScenarios()
	kern, err := core.NewBatchKernel(sys, scs)
	if err != nil {
		b.Fatal(err)
	}
	const rows = 64
	cols := kern.NewCols(rows)
	asm := kern.NewAssembler()
	for r := 0; r < rows; r++ {
		if !asm.Row(sys.Design(), cols, r) {
			b.Fatal("base row refused")
		}
	}
	var scratch core.BatchScratch
	kern.AssessBatch(rows, cols, &scratch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kern.AssessBatch(rows, cols, &scratch)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows*len(scs)), "ns/brief")
}

var floorSink time.Duration

// BenchmarkRecoveryFloor evaluates the floor of every Baseline level
// under every scenario of briefScenarios(), at the base specs' bandwidth
// ceilings.
func BenchmarkRecoveryFloor(b *testing.B) {
	sys, err := core.Build(casestudy.Baseline())
	if err != nil {
		b.Fatal(err)
	}
	scs := briefScenarios()
	kern, err := core.NewBatchKernel(sys, scs)
	if err != nil {
		b.Fatal(err)
	}
	ceil := make([]units.Rate, kern.Devices())
	for di := range ceil {
		ceil[di] = kern.BaseSpec(di).MaxBandwidth()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for si := range scs {
			for j := 0; j < kern.Levels(); j++ {
				floorSink += kern.RecoveryFloor(si, j, kern.BaseFragment(j), ceil)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(scs)*kern.Levels()), "ns/floor")
}
