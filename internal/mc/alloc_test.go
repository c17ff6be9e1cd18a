package mc

import (
	"testing"

	"stordep/internal/casestudy"
	"stordep/internal/core"
)

// TestTrialAllocBudget bounds the per-trial allocation count on the hot
// path (sample schedules, replay the windows the queries read, check
// bounds, assess penalties). An async mirror trial measures 57: its first
// object-scope event is unrecoverable and ends the event loop, so it
// replays about one of its dozen windows, and its context resolves the
// recovery plan only. Its budget of 72 fails a return to replaying every
// window up front (about 180) or to building full assessments per context
// (77). The tape designs measure 115 and 120, replaying from time zero
// because their vaults' lookback reaches it, into RP lists each sized
// once from the replayed window (regrowing them took 145 and 155); their
// budget of 300 catches gross regressions such as a boxed event per fire
// or a per-event encode.
func TestTrialAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement")
	}
	for _, tc := range []struct {
		design *core.Design
		budget float64
	}{
		{casestudy.AsyncBMirror(4), 72},
		{casestudy.Baseline(), 300},
		{casestudy.WeeklyVaultFI(), 300},
	} {
		c := &Campaign{Design: tc.design, Seed: 9, Trials: 1000}
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
		t.Logf("%s: allocs per trial: %.0f (budget %.0f)", tc.design.Name, got, tc.budget)
		if got > tc.budget {
			t.Errorf("%s: per-trial hot path allocates %.0f, budget %.0f", tc.design.Name, got, tc.budget)
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
