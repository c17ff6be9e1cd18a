// Benchmarks regenerating every table and figure of the paper's
// evaluation (§4). Each benchmark runs the same code path the cmd/paper
// tool uses, reports the framework's throughput on that experiment, and —
// once per run — prints the regenerated artifact so `go test -bench`
// output doubles as an experiment log (see EXPERIMENTS.md for the
// paper-vs-measured comparison).
package stordep_test

import (
	"fmt"
	"testing"
	"time"

	"stordep"
	"stordep/internal/casestudy"
	"stordep/internal/core"
	"stordep/internal/failure"
	"stordep/internal/report"
	"stordep/internal/sim"
	"stordep/internal/trace"
	"stordep/internal/units"
	"stordep/internal/whatif"
	"stordep/internal/workload"
)

// printOnce emits a regenerated artifact a single time per benchmark.
func printOnce(b *testing.B, artifact func() string) {
	b.Helper()
	if b.N > 1 {
		return
	}
	fmt.Println(artifact())
}

// BenchmarkTable2TraceAnalysis regenerates Table 2's measurement path: a
// synthetic cello-like trace is generated and analyzed into the five
// workload parameters (the published cello numbers themselves are inputs;
// the benchmark exercises the analyzer that would produce them from a
// trace).
func BenchmarkTable2TraceAnalysis(b *testing.B) {
	cfg := trace.CelloLike(1, 200)
	cfg.Duration = 12 * time.Hour
	tr, err := trace.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	windows := []time.Duration{time.Minute, time.Hour, 12 * time.Hour}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := trace.Analyze(tr, time.Minute, windows)
		if err != nil {
			b.Fatal(err)
		}
		if a.AvgUpdateRate <= 0 {
			b.Fatal("empty analysis")
		}
	}
	b.StopTimer()
	printOnce(b, func() string { return report.Table2(workload.Cello()) })
}

// BenchmarkTable5Utilization regenerates Table 5: build the baseline and
// compute every device's per-technique normal-mode utilization.
func BenchmarkTable5Utilization(b *testing.B) {
	var u core.Utilization
	for i := 0; i < b.N; i++ {
		sys, err := core.Build(casestudy.Baseline())
		if err != nil {
			b.Fatal(err)
		}
		u = sys.Utilization()
	}
	b.StopTimer()
	printOnce(b, func() string { return report.Table5(u) })
}

// BenchmarkTable6Dependability regenerates Table 6: assess the baseline
// under the three case-study failure scenarios.
func BenchmarkTable6Dependability(b *testing.B) {
	sys, err := core.Build(casestudy.Baseline())
	if err != nil {
		b.Fatal(err)
	}
	scs := failure.CaseStudyScenarios()
	var out []*core.Assessment
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err = sys.AssessAll(scs)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	printOnce(b, func() string { return report.Table6(out) })
}

// BenchmarkFigure5Costs regenerates Figure 5: the cost breakdown
// (per-technique outlays plus outage and loss penalties) per scenario.
func BenchmarkFigure5Costs(b *testing.B) {
	sys, err := core.Build(casestudy.Baseline())
	if err != nil {
		b.Fatal(err)
	}
	scs := failure.CaseStudyScenarios()
	var out []*core.Assessment
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err = sys.AssessAll(scs)
		if err != nil {
			b.Fatal(err)
		}
		for _, a := range out {
			if a.Cost.Total() <= 0 {
				b.Fatal("empty cost")
			}
		}
	}
	b.StopTimer()
	printOnce(b, func() string { return report.Figure5(out) })
}

// BenchmarkTable7WhatIf regenerates Table 7: evaluate all seven what-if
// designs under array failure and site disaster.
func BenchmarkTable7WhatIf(b *testing.B) {
	scs := []failure.Scenario{
		{Scope: failure.ScopeArray},
		{Scope: failure.ScopeSite},
	}
	var rows []report.WhatIfRow
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, d := range casestudy.WhatIfDesigns() {
			sys, err := core.Build(d)
			if err != nil {
				b.Fatal(err)
			}
			arr, err := sys.Assess(scs[0])
			if err != nil {
				b.Fatal(err)
			}
			site, err := sys.Assess(scs[1])
			if err != nil {
				b.Fatal(err)
			}
			rows = append(rows, report.WhatIfRow{Design: d.Name, Array: arr, Site: site})
		}
	}
	b.StopTimer()
	printOnce(b, func() string { return report.Table7(rows) })
}

// BenchmarkFigure3RangeMath regenerates Figure 3's guaranteed-RP-range
// math across the baseline hierarchy.
func BenchmarkFigure3RangeMath(b *testing.B) {
	sys, err := core.Build(casestudy.Baseline())
	if err != nil {
		b.Fatal(err)
	}
	chain := sys.Chain()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 1; j <= len(chain); j++ {
			if chain.GuaranteedRange(j).Empty() {
				b.Fatal("unexpected empty range")
			}
		}
	}
	b.StopTimer()
	printOnce(b, func() string { return report.Figure3(chain) })
}

// BenchmarkFigure4Recovery regenerates Figure 4's recovery-time
// dependency resolution for the site-disaster path (vault -> shipment ->
// library -> array with overlapped provisioning).
func BenchmarkFigure4Recovery(b *testing.B) {
	sys, err := core.Build(casestudy.Baseline())
	if err != nil {
		b.Fatal(err)
	}
	sc := failure.Scenario{Scope: failure.ScopeSite}
	var a *core.Assessment
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err = sys.Assess(sc)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	printOnce(b, func() string { return report.Figure4(a) })
}

// BenchmarkSimulationValidation runs the discrete-event cross-validation
// of the analytic loss bounds (the paper's proposed validation, measured
// here): 10 weeks of RP propagation plus a thousand-instant loss study.
func BenchmarkSimulationValidation(b *testing.B) {
	chain := casestudy.Baseline().Chain()
	for i := 0; i < b.N; i++ {
		s, err := sim.New(chain)
		if err != nil {
			b.Fatal(err)
		}
		h, err := s.Run(nil, nil, nil, 0, 20*units.Week)
		if err != nil {
			b.Fatal(err)
		}
		st, err := h.LossStudy([]int{2, 3}, 0, 12*units.Week, 19*units.Week, time.Hour)
		if err != nil {
			b.Fatal(err)
		}
		if st.Max > 217*time.Hour {
			b.Fatalf("bound violated: %v", st.Max)
		}
	}
}

// BenchmarkWhatIfSearch measures the automated-design inner loop the
// framework is positioned to serve: a 20-candidate link sweep ranked and
// queried for the cheapest design meeting an RTO/RPO.
func BenchmarkWhatIfSearch(b *testing.B) {
	counts := make([]int, 20)
	for i := range counts {
		counts[i] = i + 1
	}
	scs := []failure.Scenario{{Scope: failure.ScopeArray}, {Scope: failure.ScopeSite}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		designs := whatif.Sweep(counts, casestudy.AsyncBMirror)
		results, err := whatif.Evaluate(designs, scs)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := whatif.Cheapest(results, whatif.Objectives{
			RTO: 12 * time.Hour, RPO: time.Hour,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEndToEnd measures one full public-API evaluation: build the
// baseline, assess all scenarios, total the costs.
func BenchmarkEndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys, err := stordep.Baseline().Build()
		if err != nil {
			b.Fatal(err)
		}
		for _, sc := range stordep.CaseStudyScenarios() {
			a, err := sys.Assess(sc)
			if err != nil {
				b.Fatal(err)
			}
			_ = a.Cost.Total()
		}
	}
}
