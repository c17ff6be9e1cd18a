package mc

import (
	"testing"

	"stordep/internal/casestudy"
	"stordep/internal/config"
	"stordep/internal/core"
)

// testRunner builds the campaign's design and readies a runner for it,
// both returned to their pools when the test ends.
func testRunner(tb testing.TB, c *Campaign) *runner {
	tb.Helper()
	sys, err := c.build()
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { releaseSystem(sys) })
	r, err := c.runner(sys)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(r.release)
	return r
}

// TestTrialAllocBudget bounds the per-trial allocation count on the hot
// path (sample schedules, replay the windows the queries read, check
// bounds, assess penalties) of a warm trial: one on a scratch earlier
// trials filled, as every trial but a worker's first draws from the pool.
// Its schedules, histories, caches and random stream are reused in place,
// so a trial allocates only when a buffer must grow past what the trials
// before it needed: about 0.03-0.04 allocations per trial for the async
// mirror, Baseline and Weekly vault F+I alike (the cold first trial
// allocates 34, 60 and 61; before the scratch, every trial allocated 57,
// 114 and 119). The budget of 1 fails a per-trial random stream (2
// allocations per stream, 7 or more streams), a per-replay RP block or
// event queue, a per-trial context or bound map, or a sort with a
// reflection swapper.
func TestTrialAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement")
	}
	for _, tc := range []struct {
		design *core.Design
		budget float64
	}{
		{casestudy.AsyncBMirror(4), 1},
		{casestudy.Baseline(), 1},
		{casestudy.WeeklyVaultFI(), 1},
	} {
		c := &Campaign{Design: tc.design, Seed: 9, Trials: 1000}
		r := testRunner(t, c)
		s := new(scratch)
		i := 0
		got := testing.AllocsPerRun(200, func() {
			if _, err := r.trial(s, i%c.Trials); err != nil {
				t.Fatal(err)
			}
			i++
		})
		t.Logf("%s: allocs per trial: %.1f (budget %.0f)", tc.design.Name, got, tc.budget)
		if got > tc.budget {
			t.Errorf("%s: per-trial hot path allocates %.1f, budget %.0f", tc.design.Name, got, tc.budget)
		}
	}
}

// requestCases are the request-shaped workloads TestRequestAllocBudget
// bounds and BenchmarkRequest times. A request is one perfbench mc-mirror
// request: decode the design's JSON, core.Build it, sample a one-trial
// campaign and estimate its report. The decode (14 allocations) and the
// request's own build (7; its System stays on the stack) are 21 of the
// mirror's 29: Sample's and Estimate's builds go into pooled Systems and
// allocate nothing, nor does the trial, once the pools are warm. The
// budget of 34 fails a return to fresh campaign builds (45). Under the
// race detector, whose pools drop a quarter of what they are given, a
// request measures about 46, and the budget is raceBudget.
var requestCases = []struct {
	name   string
	design *core.Design
	budget float64
}{
	{"mirror", casestudy.AsyncBMirror(4), 34},
}

// raceBudget bounds a request under the race detector. It still fails a
// return to pooling nothing (about 110).
const raceBudget = 60

// serveRequest serves one request-shaped campaign on the design's JSON.
func serveRequest(tb testing.TB, data []byte, seed int64) *Report {
	d, err := config.Unmarshal(data)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := core.Build(d); err != nil {
		tb.Fatal(err)
	}
	c := &Campaign{Design: d, Seed: seed, Trials: 1, Workers: 1}
	obs, err := c.Sample(0, c.Trials)
	if err != nil {
		tb.Fatal(err)
	}
	rep, err := c.Estimate(obs)
	if err != nil {
		tb.Fatal(err)
	}
	return rep
}

func TestRequestAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement")
	}
	for _, tc := range requestCases {
		data, err := config.Marshal(tc.design)
		if err != nil {
			t.Fatal(err)
		}
		budget := tc.budget
		if raceEnabled {
			budget = raceBudget
		}
		seed := int64(0)
		got := testing.AllocsPerRun(200, func() {
			serveRequest(t, data, seed)
			seed++
		})
		t.Logf("%s: allocs per request: %.1f (budget %.0f)", tc.name, got, budget)
		if got > budget {
			t.Errorf("%s: a request allocates %.1f, budget %.0f", tc.name, got, budget)
		}
	}
}

// BenchmarkRequest is the cost of one request of each requestCases
// workload, for -bench comparison runs.
func BenchmarkRequest(b *testing.B) {
	for _, tc := range requestCases {
		data, err := config.Marshal(tc.design)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				serveRequest(b, data, int64(i))
			}
		})
	}
}

// BenchmarkTrial is the raw per-trial cost on a warm scratch, for -bench
// comparison runs: Baseline (three-year vault retention), an F+I backup
// under a weekly vault, and an async mirror (one-minute cycles over a
// one-year mission).
func BenchmarkTrial(b *testing.B) {
	for _, d := range []*core.Design{casestudy.Baseline(), casestudy.WeeklyVaultFI(), casestudy.AsyncBMirror(4)} {
		b.Run(d.Name, func(b *testing.B) {
			c := &Campaign{Design: d, Seed: 9, Trials: 1 << 30}
			r := testRunner(b, c)
			s := new(scratch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := r.trial(s, i); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
