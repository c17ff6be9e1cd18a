package dist

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stordep/internal/casestudy"
	"stordep/internal/failure"
	"stordep/internal/hierarchy"
	"stordep/internal/opt"
)

// runCoordinator drives one distributed search over loopback workers and
// returns the merged Result plus the run's metrics.
func runCoordinator(t *testing.T, workers []Worker, opts Options, job *Job) (*Result, *Metrics) {
	t.Helper()
	c, err := NewCoordinator(workers, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	return res, c.Metrics()
}

// TestCoordinatorMatchesSingleProcess is the headline determinism
// property: for any worker count and shard count, the distributed answer
// is byte-identical to the single-process search.
func TestCoordinatorMatchesSingleProcess(t *testing.T) {
	job := testJob(t)
	oracle := singleProcessOracle(t, job)

	for _, n := range []int{1, 2, 4} {
		workers := make([]Worker, n)
		for i := range workers {
			workers[i] = &Loopback{Name: fmt.Sprintf("w%d", i)}
		}
		res, m := runCoordinator(t, workers, Options{}, job)
		requireIdentical(t, fmt.Sprintf("%d workers", n), oracle, res)

		shards := int64(n * shardsPerWorker)
		if m.ShardsCompleted.Load() != shards {
			t.Errorf("%d workers: completed %d shards, want %d", n, m.ShardsCompleted.Load(), shards)
		}
		// Every attempt announces itself with an initial heartbeat.
		if m.HeartbeatsReceived.Load() < shards {
			t.Errorf("%d workers: %d heartbeats, want >= %d", n, m.HeartbeatsReceived.Load(), shards)
		}
	}
}

func TestCoordinatorShardCountOverrides(t *testing.T) {
	job := testJob(t)
	oracle := singleProcessOracle(t, job)
	workers := []Worker{&Loopback{Name: "a"}, &Loopback{Name: "b"}}

	for _, tc := range []struct {
		shards, want int
	}{
		{1, 1},
		{5, 5},
		{24, 24},
		{100, 24}, // capped at the space size
	} {
		res, m := runCoordinator(t, workers, Options{Shards: tc.shards}, job)
		requireIdentical(t, fmt.Sprintf("Shards=%d", tc.shards), oracle, res)
		if m.ShardsCompleted.Load() != int64(tc.want) {
			t.Errorf("Shards=%d: completed %d, want %d", tc.shards, m.ShardsCompleted.Load(), tc.want)
		}
	}
}

// TestCoordinatorSurvivesInjectedFaults is the flaky-transport property
// test: under seeded random crashes, hangs and malformed responses —
// with speculation racing duplicate attempts on half the seeds — the
// merged Solution never deviates from the single-process oracle.
func TestCoordinatorSurvivesInjectedFaults(t *testing.T) {
	job := testJob(t)
	oracle := singleProcessOracle(t, job)

	for seed := int64(0); seed < 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			workers := make([]Worker, 3)
			for i := range workers {
				// One rand per worker: a Loopback runs attempts
				// sequentially, so the source is never shared.
				rng := rand.New(rand.NewSource(seed*31 + int64(i)))
				workers[i] = &Loopback{
					Name: fmt.Sprintf("w%d", i),
					Intercept: func(*Job) Fault {
						switch p := rng.Float64(); {
						case p < 0.20:
							return FaultCrash
						case p < 0.30:
							return FaultMalformed
						case p < 0.35:
							return FaultHang
						default:
							return FaultNone
						}
					},
				}
			}
			opts := Options{
				AttemptTimeout: 250 * time.Millisecond, // reaps the hangs
				MaxAttempts:    12,
				RetryBackoff:   time.Millisecond,
			}
			if seed%2 == 1 {
				opts.SpeculateAfter = 25 * time.Millisecond
			}
			res, m := runCoordinator(t, workers, opts, job)
			requireIdentical(t, "faulty transport", oracle, res)
			if m.WorkerErrors.Load() > 0 && m.ShardsRetried.Load() == 0 {
				t.Error("errors were recorded but nothing was retried")
			}
		})
	}
}

// TestCoordinatorStragglerRedispatch is the acceptance scenario: one
// worker never responds, and the coordinator must re-dispatch its shards
// within the attempt timeout and still return the exact answer.
func TestCoordinatorStragglerRedispatch(t *testing.T) {
	job := testJob(t)
	oracle := singleProcessOracle(t, job)

	// The space evaluates in microseconds, so without a barrier the good
	// worker can drain every shard before the hung worker's goroutine is
	// even scheduled; hold the good worker until the straggler provably
	// owns a shard.
	hungGot := make(chan struct{})
	var once sync.Once
	workers := []Worker{
		&Loopback{Name: "hung", Intercept: func(*Job) Fault {
			once.Do(func() { close(hungGot) })
			return FaultHang
		}},
		&Loopback{Name: "good", Intercept: func(*Job) Fault {
			<-hungGot
			return FaultNone
		}},
	}
	res, m := runCoordinator(t, workers, Options{
		Shards:         4,
		AttemptTimeout: 100 * time.Millisecond,
		RetryBackoff:   time.Millisecond,
	}, job)
	requireIdentical(t, "straggler", oracle, res)
	if m.WorkerErrors.Load() < 1 {
		t.Error("the hung worker's timeouts should count as worker errors")
	}
	if m.ShardsRetried.Load() < 1 {
		t.Error("a timed-out shard should have been re-dispatched")
	}
	if last := m.LastSeen()["good"]; last.IsZero() {
		t.Error("the live worker should have reported liveness")
	}
}

// TestCoordinatorSpeculationRescuesStragglers uses no attempt timeout at
// all: with one worker hung forever, only speculative re-dispatch can
// finish the search.
func TestCoordinatorSpeculationRescuesStragglers(t *testing.T) {
	job := testJob(t)
	oracle := singleProcessOracle(t, job)

	hungGot := make(chan struct{})
	var once sync.Once
	workers := []Worker{
		&Loopback{Name: "hung", Intercept: func(*Job) Fault {
			once.Do(func() { close(hungGot) })
			return FaultHang
		}},
		&Loopback{Name: "fast", Intercept: func(*Job) Fault {
			<-hungGot
			return FaultNone
		}},
	}
	res, m := runCoordinator(t, workers, Options{
		Shards:         4,
		SpeculateAfter: 20 * time.Millisecond,
	}, job)
	requireIdentical(t, "speculation", oracle, res)
	if m.ShardsSpeculated.Load() < 1 {
		t.Error("the hung shard should have been speculatively re-dispatched")
	}
}

// TestCoordinatorDiscardsDuplicateResults races two live workers on one
// deliberately slow shard: both answers arrive, the first wins, and the
// duplicate must be discarded without perturbing the merge.
func TestCoordinatorDiscardsDuplicateResults(t *testing.T) {
	job := testJob(t)
	oracle := singleProcessOracle(t, job)

	slow := func(*Job) Fault { time.Sleep(80 * time.Millisecond); return FaultNone }
	workers := []Worker{
		&Loopback{Name: "a", Intercept: slow},
		&Loopback{Name: "b", Intercept: slow},
	}
	res, m := runCoordinator(t, workers, Options{
		Shards:         1,
		SpeculateAfter: 10 * time.Millisecond,
	}, job)
	requireIdentical(t, "duplicate race", oracle, res)
	if m.ShardsSpeculated.Load() != 1 {
		t.Fatalf("speculated %d shards, want 1", m.ShardsSpeculated.Load())
	}
	// Run waits for the losing attempt, so its discard is recorded.
	if m.DuplicatesDiscarded.Load() != 1 {
		t.Errorf("discarded %d duplicates, want 1", m.DuplicatesDiscarded.Load())
	}
}

func TestCoordinatorFailsAfterMaxAttempts(t *testing.T) {
	job := testJob(t)
	crash := func(*Job) Fault { return FaultCrash }
	c, err := NewCoordinator([]Worker{
		&Loopback{Name: "a", Intercept: crash},
		&Loopback{Name: "b", Intercept: crash},
	}, Options{MaxAttempts: 2, RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Run(context.Background(), job)
	if !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("err = %v, want the injected crash as the cause", err)
	}
	if !strings.Contains(err.Error(), "gave up") {
		t.Errorf("error should say the shard gave up: %v", err)
	}
}

func TestCoordinatorHonorsCancellation(t *testing.T) {
	job := testJob(t)
	hang := func(*Job) Fault { return FaultHang }
	c, err := NewCoordinator([]Worker{&Loopback{Name: "a", Intercept: hang}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = c.Run(ctx, job)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cancellation took %v to unwind", elapsed)
	}
}

func TestCoordinatorRejectsBadInput(t *testing.T) {
	if _, err := NewCoordinator(nil, Options{}); !errors.Is(err, ErrNoWorkers) {
		t.Error("no workers should be ErrNoWorkers")
	}
	if _, err := NewCoordinator([]Worker{&Loopback{}}, Options{}); err == nil {
		t.Error("empty worker ID should be rejected")
	}
	if _, err := NewCoordinator([]Worker{&Loopback{Name: "a"}, &Loopback{Name: "a"}}, Options{}); err == nil {
		t.Error("duplicate worker IDs should be rejected")
	}

	c, err := NewCoordinator([]Worker{&Loopback{Name: "a"}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	job := testJob(t)
	job.Shard = ShardSpec{Index: 0, Count: 2}
	if _, err := c.Run(context.Background(), job); !errors.Is(err, ErrBadJob) {
		t.Errorf("pre-sharded job: err = %v, want ErrBadJob", err)
	}

	tight := testJob(t)
	tight.Budget = 5 // the space is 24 candidates
	if _, err := c.Run(context.Background(), tight); !errors.Is(err, opt.ErrSpaceTooLarge) {
		t.Errorf("over-budget job: err = %v, want opt.ErrSpaceTooLarge", err)
	}
}

func TestCoordinatorHonorsBudgetWithinLimit(t *testing.T) {
	job := testJob(t)
	job.Budget = 24
	oracle := singleProcessOracle(t, job)
	res, _ := runCoordinator(t, []Worker{&Loopback{Name: "a"}}, Options{}, job)
	requireIdentical(t, "budget at the limit", oracle, res)
}

// TestBackoffDelayJitteredWithinBounds: retry delays are exponential in
// the failure count, land in [base<<n / 2, base<<n], and actually vary.
func TestBackoffDelayJitteredWithinBounds(t *testing.T) {
	c, err := NewCoordinator([]Worker{&Loopback{Name: "w"}},
		Options{RetryBackoff: 100 * time.Millisecond, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[time.Duration]bool)
	for i := 0; i < 200; i++ {
		d := c.backoffDelay(1)
		if d < 50*time.Millisecond || d > 100*time.Millisecond {
			t.Fatalf("backoffDelay(1) = %v, want within [50ms, 100ms]", d)
		}
		seen[d] = true
	}
	if len(seen) < 2 {
		t.Error("200 draws produced a single delay; jitter is not jittering")
	}
	if d := c.backoffDelay(3); d < 200*time.Millisecond || d > 400*time.Millisecond {
		t.Errorf("backoffDelay(3) = %v, want within [200ms, 400ms]", d)
	}
	if d := c.backoffDelay(50); d > 100*time.Millisecond<<10 {
		t.Errorf("backoffDelay(50) = %v, want capped at 1024x the base", d)
	}
}

// TestBackoffDelaySeedDeterminism: the same seed replays the same jitter
// sequence, so a run is reproducible; a different seed varies it.
func TestBackoffDelaySeedDeterminism(t *testing.T) {
	draw := func(seed int64) []time.Duration {
		c, err := NewCoordinator([]Worker{&Loopback{Name: "w"}},
			Options{RetryBackoff: 64 * time.Millisecond, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]time.Duration, 32)
		for i := range out {
			out[i] = c.backoffDelay(1 + i%4)
		}
		return out
	}
	a, b := draw(7), draw(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d: %v vs %v for the same seed", i, a[i], b[i])
		}
	}
	other := draw(8)
	same := true
	for i := range a {
		if a[i] != other[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("32 draws identical across different seeds")
	}
}

// TestCoordinatorGiveUpAccounting pins the give-up path exactly: with
// one shard and MaxAttempts 3, the failure names the last worker and
// wraps the underlying cause, and the retry counters are exact.
func TestCoordinatorGiveUpAccounting(t *testing.T) {
	job := testJob(t)
	c, err := NewCoordinator([]Worker{&Loopback{Name: "solo", Intercept: func(*Job) Fault { return FaultCrash }}},
		Options{Shards: 1, MaxAttempts: 3, RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Run(context.Background(), job)
	if !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("err = %v, want the underlying crash wrapped", err)
	}
	for _, want := range []string{"gave up", "worker solo", "3 failed attempts"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("give-up error %q should contain %q", err, want)
		}
	}
	m := c.Metrics()
	if got := m.WorkerErrors.Load(); got != 3 {
		t.Errorf("WorkerErrors = %d, want exactly 3", got)
	}
	if got := m.ShardsRetried.Load(); got != 2 {
		t.Errorf("ShardsRetried = %d, want exactly 2 (third failure gives up)", got)
	}
	if got := m.ShardsCompleted.Load(); got != 0 {
		t.Errorf("ShardsCompleted = %d, want 0", got)
	}
}

// TestCoordinatorRetryAccountingExact: two injected crashes then
// success — the retry and duplicate counters match exactly and the
// answer is still byte-identical.
func TestCoordinatorRetryAccountingExact(t *testing.T) {
	job := testJob(t)
	oracle := singleProcessOracle(t, job)
	var n int64
	w := &Loopback{Name: "w", Intercept: func(*Job) Fault {
		if atomic.AddInt64(&n, 1) <= 2 {
			return FaultCrash
		}
		return FaultNone
	}}
	res, m := runCoordinator(t, []Worker{w},
		Options{Shards: 1, MaxAttempts: 5, RetryBackoff: time.Millisecond}, job)
	requireIdentical(t, "retry then success", oracle, res)
	if got := m.WorkerErrors.Load(); got != 2 {
		t.Errorf("WorkerErrors = %d, want exactly 2", got)
	}
	if got := m.ShardsRetried.Load(); got != 2 {
		t.Errorf("ShardsRetried = %d, want exactly 2", got)
	}
	if got := m.DuplicatesDiscarded.Load(); got != 0 {
		t.Errorf("DuplicatesDiscarded = %d, want 0 (no speculation ran)", got)
	}
	if got := m.ShardsCompleted.Load(); got != 1 {
		t.Errorf("ShardsCompleted = %d, want 1", got)
	}
}

// table7WideJob is cmd/optimize's Table 7 knob space (vault policy,
// backup policy, PiT technique) widened with a vault retention sweep
// over 1..512: the 6144-candidate space of opt's TestPrunedLargeRatio
// and perfbench's search workload, under the worst-total objective.
func table7WideJob(t *testing.T) *Job {
	t.Helper()
	vault, err := PolicyKnobSpec("vaulting", []string{"4-weekly", "weekly"},
		[]hierarchy.Policy{casestudy.VaultPolicy(), casestudy.WeeklyVaultPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	backup, err := PolicyKnobSpec("backup", []string{"weekly full", "F+I", "daily full"},
		[]hierarchy.Policy{casestudy.BackupPolicy(), casestudy.FIBackupPolicy(), casestudy.DailyFBackupPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	ret := make([]int, 512)
	for i := range ret {
		ret[i] = i + 1
	}
	specs := []KnobSpec{vault, backup, PiTKnobSpec("split-mirror"), RetCntKnobSpec("vaulting", ret)}
	scs := ScenarioSpecs([]failure.Scenario{{Scope: failure.ScopeArray}, {Scope: failure.ScopeSite}})
	job, err := NewJob(casestudy.Baseline(), specs, scs, ObjectiveSpec{Kind: "worst"})
	if err != nil {
		t.Fatal(err)
	}
	return job
}

// TestCoordinatorPrunesLargeSpace: on table7WideJob's 6144 candidates a
// pruning fleet prunes, returns the unpruned answer, retires every
// candidate exactly once, and reports the merged pruning counters in its
// metrics. How much is pruned depends on the schedule, but never drops
// to zero: each shard's own seed probes already set an incumbent that
// prunes 1024, 1024 and 256 candidates of the 4, 8 and 16 shards that
// 1, 2 and 4 workers split the space into, and a coordinator incumbent
// or a score achieved mid-shard only lowers the incumbent further.
func TestCoordinatorPrunesLargeSpace(t *testing.T) {
	job := table7WideJob(t)
	oracle := singleProcessOracle(t, job)
	const space = 2 * 3 * 2 * 512
	pjob := *job
	pjob.Prune = true
	for _, n := range []int{1, 2, 4} {
		workers := make([]Worker, n)
		for i := range workers {
			workers[i] = &Loopback{Name: fmt.Sprintf("w%d", i)}
		}
		label := fmt.Sprintf("%d pruning workers", n)
		res, m := runCoordinator(t, workers, Options{}, &pjob)
		requireAnswerIdentical(t, label, oracle, res)
		if res.Pruned == 0 {
			t.Errorf("%s: pruned none of %d candidates (%d bounds)", label, space, res.BoundsComputed)
		}
		if res.Evaluations+res.Pruned != space {
			t.Errorf("%s: assessed %d + pruned %d != space %d",
				label, res.Evaluations, res.Pruned, space)
		}
		if m.CandidatesPruned.Load() != int64(res.Pruned) || m.BoundsComputed.Load() != int64(res.BoundsComputed) {
			t.Errorf("%s: metrics pruned %d / bounds %d, merged solution %d / %d", label,
				m.CandidatesPruned.Load(), m.BoundsComputed.Load(), res.Pruned, res.BoundsComputed)
		}
		t.Logf("%s: pruned %d of %d, %d bounds", label, res.Pruned, space, res.BoundsComputed)
	}
}

// TestCoordinatorPrunedMatchesExhaustive: a pruning fleet returns the
// same answer as the unpruned single-process oracle for any worker
// count, the merged assessed/pruned split covers the space exactly, and
// the validated pruning counters surface in the coordinator's metrics.
// The K-way cell also pins the incumbent story: every vote on a shard
// carries the same frozen incumbent, so honest votes stay byte-identical
// and validation never misfires on schedule-dependent counters.
func TestCoordinatorPrunedMatchesExhaustive(t *testing.T) {
	job := testJob(t)
	oracle := singleProcessOracle(t, job)
	knobs, err := BuildKnobs(job.Knobs)
	if err != nil {
		t.Fatal(err)
	}
	space, err := opt.SpaceSize(knobs)
	if err != nil {
		t.Fatal(err)
	}
	pjob := *job
	pjob.Prune = true

	for _, n := range []int{1, 2, 4} {
		workers := make([]Worker, n)
		for i := range workers {
			workers[i] = &Loopback{Name: fmt.Sprintf("w%d", i)}
		}
		res, m := runCoordinator(t, workers, Options{}, &pjob)
		requireAnswerIdentical(t, fmt.Sprintf("%d pruning workers", n), oracle, res)
		if res.Evaluations+res.Pruned != space {
			t.Errorf("%d workers: assessed %d + pruned %d != space %d",
				n, res.Evaluations, res.Pruned, space)
		}
		if m.CandidatesPruned.Load() != int64(res.Pruned) {
			t.Errorf("%d workers: metrics pruned %d, merged solution says %d",
				n, m.CandidatesPruned.Load(), res.Pruned)
		}
		if m.BoundsComputed.Load() != int64(res.BoundsComputed) {
			t.Errorf("%d workers: metrics bounds %d, merged solution says %d",
				n, m.BoundsComputed.Load(), res.BoundsComputed)
		}
	}

	workers := []Worker{&Loopback{Name: "a"}, &Loopback{Name: "b"}, &Loopback{Name: "c"}}
	res, m := runCoordinator(t, workers, Options{ValidateK: 2}, &pjob)
	requireAnswerIdentical(t, "pruned under 2-way validation", oracle, res)
	if res.Evaluations+res.Pruned != space {
		t.Errorf("validated: assessed %d + pruned %d != space %d",
			res.Evaluations, res.Pruned, space)
	}
	if m.ValidationMismatches.Load() != 0 {
		t.Errorf("honest pruning workers produced %d validation mismatches", m.ValidationMismatches.Load())
	}
}
