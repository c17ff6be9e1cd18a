// Benchmarks for the parallel-evaluation substrate: candidate cloning,
// exhaustive search, coordinate descent, what-if fan-out and chaos
// campaigns, each at one worker and at four. CI's "Bench scaling gate"
// step divides BenchmarkExhaustiveLargeSerial's ns/op by
// BenchmarkExhaustiveLargeParallel's under GOMAXPROCS=4.
package stordep_test

import (
	"testing"

	"stordep/internal/casestudy"
	"stordep/internal/chaos"
	"stordep/internal/config"
	"stordep/internal/failure"
	"stordep/internal/opt"
	"stordep/internal/whatif"
)

func arraySiteScenarios() []failure.Scenario {
	return []failure.Scenario{
		{Scope: failure.ScopeArray},
		{Scope: failure.ScopeSite},
	}
}

// largeKnobs extends the Table 7 space with a 512-option vault retention
// sweep: 2 x 3 x 2 x 512 = 6144 candidates, which the streaming search
// enumerates without materializing the space.
func largeKnobs() []opt.Knob {
	ret := make([]int, 512)
	for i := range ret {
		ret[i] = i + 1
	}
	return append(optimizerKnobs(), opt.RetCntKnob("vaulting", ret))
}

// BenchmarkCloneJSON copies a candidate by a config-JSON round trip, the
// copy the structural clone replaced.
func BenchmarkCloneJSON(b *testing.B) {
	d := casestudy.Baseline()
	for i := 0; i < b.N; i++ {
		data, err := config.Marshal(d)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := config.Unmarshal(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCloneStructural(b *testing.B) {
	d := casestudy.Baseline()
	for i := 0; i < b.N; i++ {
		if _, err := d.Clone(); err != nil {
			b.Fatal(err)
		}
	}
}

func benchExhaustive(b *testing.B, workers int) {
	base, knobs, scs := casestudy.Baseline(), optimizerKnobs(), arraySiteScenarios()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := opt.ExhaustiveWorkers(base, knobs, scs, nil, workers); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExhaustiveSerial(b *testing.B)   { benchExhaustive(b, 1) }
func BenchmarkExhaustiveParallel(b *testing.B) { benchExhaustive(b, 4) }

func benchExhaustiveLarge(b *testing.B, workers int) {
	base, knobs, scs := casestudy.Baseline(), largeKnobs(), arraySiteScenarios()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := opt.ExhaustiveOpts(base, knobs, scs, nil, opt.ExhaustiveOptions{Workers: workers}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExhaustiveLargeSerial(b *testing.B)   { benchExhaustiveLarge(b, 1) }
func BenchmarkExhaustiveLargeParallel(b *testing.B) { benchExhaustiveLarge(b, 4) }

func benchTune(b *testing.B, workers int) {
	base, knobs, scs := casestudy.Baseline(), optimizerKnobs(), arraySiteScenarios()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := opt.TuneWorkers(base, knobs, scs, nil, workers); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTuneSerial(b *testing.B)   { benchTune(b, 1) }
func BenchmarkTuneParallel(b *testing.B) { benchTune(b, 4) }

// BenchmarkParallelWhatIf evaluates a 20-design link sweep on four
// workers.
func BenchmarkParallelWhatIf(b *testing.B) {
	counts := make([]int, 20)
	for i := range counts {
		counts[i] = i + 1
	}
	designs, scs := whatif.Sweep(counts, casestudy.AsyncBMirror), arraySiteScenarios()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := whatif.EvaluateWorkers(designs, scs, 4); err != nil {
			b.Fatal(err)
		}
	}
}

func benchChaos(b *testing.B, workers int) {
	for i := 0; i < b.N; i++ {
		c := &chaos.Campaign{Seed: 1, Runs: 10, Workers: workers}
		if _, err := c.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChaosCampaignSerial(b *testing.B)   { benchChaos(b, 1) }
func BenchmarkChaosCampaignParallel(b *testing.B) { benchChaos(b, 4) }
