package mc

import (
	"testing"

	"stordep/internal/casestudy"
	"stordep/internal/core"
)

// trialAllocBudget bounds the per-trial allocation count on the hot
// path (sample schedules, replay the simulator, check bounds, assess
// penalties). Measured ~200 for Baseline, which replays its whole history
// because its three-year vault's lookback reaches time zero, and for an
// async mirror, which replays a few minutes per event. The budget
// carries headroom for schedule variance while still catching a gross
// regression such as a boxed event per fire, a per-event encode or an
// uncached analytic assessment.
const trialAllocBudget = 1000

func TestTrialAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement")
	}
	for _, d := range []*core.Design{casestudy.Baseline(), casestudy.AsyncBMirror(4)} {
		c := &Campaign{Design: d, Seed: 9, Trials: 1000}
		r, err := c.runner()
		if err != nil {
			t.Fatal(err)
		}
		i := 0
		got := testing.AllocsPerRun(200, func() {
			if _, err := r.trial(i % c.Trials); err != nil {
				t.Fatal(err)
			}
			i++
		})
		t.Logf("%s: allocs per trial: %.0f (budget %d)", d.Name, got, trialAllocBudget)
		if got > trialAllocBudget {
			t.Errorf("%s: per-trial hot path allocates %.0f, budget %d", d.Name, got, trialAllocBudget)
		}
	}
}

// BenchmarkTrial is the raw per-trial cost, for -bench comparison runs:
// Baseline (three-year vault retention), an F+I backup under a weekly
// vault, and an async mirror (one-minute cycles over a one-year mission).
func BenchmarkTrial(b *testing.B) {
	for _, d := range []*core.Design{casestudy.Baseline(), casestudy.WeeklyVaultFI(), casestudy.AsyncBMirror(4)} {
		b.Run(d.Name, func(b *testing.B) {
			c := &Campaign{Design: d, Seed: 9, Trials: 1 << 30}
			r, err := c.runner()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := r.trial(i); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
