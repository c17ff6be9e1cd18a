package dist

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestChaosWorkerInjectsEachFault pins each fault's observable effect:
// drops and crashes error out, wrong-shard answers fail the shape
// check, corruptions and lies perturb the score in opposite directions,
// and flapping health fails probes.
func TestChaosWorkerInjectsEachFault(t *testing.T) {
	ctx := context.Background()
	job := testJob(t)
	mk := func(o ChaosOptions) *ChaosWorker {
		o.Seed = 7
		return NewChaosWorker(&Loopback{Name: "u"}, o)
	}
	honest, err := (&Loopback{Name: "u"}).Run(ctx, job, nil)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := mk(ChaosOptions{PDrop: 1}).Run(ctx, job, nil); !errors.Is(err, ErrChaosDrop) {
		t.Errorf("drop: err = %v, want ErrChaosDrop", err)
	}
	if _, err := mk(ChaosOptions{PCrashMid: 1}).Run(ctx, job, nil); !errors.Is(err, ErrChaosCrashMid) {
		t.Errorf("crash-mid: err = %v, want ErrChaosCrashMid", err)
	}

	w := mk(ChaosOptions{PWrongShard: 1})
	res, err := w.Run(ctx, job, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shard == job.Shard {
		t.Error("wrong-shard: the answered shard should not match the asked one")
	}

	w = mk(ChaosOptions{PLie: 1})
	res, err = w.Run(ctx, job, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !(res.Score < honest.Score) {
		t.Errorf("lie: score %v, want strictly better (lower) than honest %v", res.Score, honest.Score)
	}
	if w.LiesReturned.Load() != 1 {
		t.Errorf("lie: LiesReturned = %d, want 1", w.LiesReturned.Load())
	}

	w = mk(ChaosOptions{PCorrupt: 1})
	res, err = w.Run(ctx, job, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !(res.Score > honest.Score) {
		t.Errorf("corrupt: score %v, want perturbed above honest %v", res.Score, honest.Score)
	}

	w = mk(ChaosOptions{PDelay: 1, MaxDelay: time.Millisecond})
	if _, err := w.Run(ctx, job, nil); err != nil {
		t.Errorf("delay: err = %v, want an honest (late) answer", err)
	}

	w = mk(ChaosOptions{PFlapHealth: 1})
	if err := w.Health(ctx); !errors.Is(err, ErrChaosFlap) {
		t.Errorf("flap: health = %v, want ErrChaosFlap", err)
	}
	if w.FlapsInjected.Load() != 1 {
		t.Errorf("flap: FlapsInjected = %d, want 1", w.FlapsInjected.Load())
	}
	w = mk(ChaosOptions{PFlapHealth: 0})
	if err := w.Health(ctx); err != nil {
		t.Errorf("steady health: err = %v, want nil", err)
	}
}

// TestChaosWorkerSeedDeterminism: the same seed replays the same fault
// schedule.
func TestChaosWorkerSeedDeterminism(t *testing.T) {
	ctx := context.Background()
	job := testJob(t)
	o := ChaosOptions{Seed: 99, PDelay: 0.2, PDrop: 0.2, PCrashMid: 0.2, PWrongShard: 0.1, PLie: 0.1, MaxDelay: time.Microsecond}
	a := NewChaosWorker(&Loopback{Name: "u"}, o)
	b := NewChaosWorker(&Loopback{Name: "u"}, o)
	for i := 0; i < 20; i++ {
		a.Run(ctx, job, nil) //nolint:errcheck
		b.Run(ctx, job, nil) //nolint:errcheck
	}
	for f := ChaosFault(0); f < chaosFaultCount; f++ {
		if a.Faults[f].Load() != b.Faults[f].Load() {
			t.Errorf("fault %v: %d vs %d injections for the same seed", f, a.Faults[f].Load(), b.Faults[f].Load())
		}
	}
}

// TestChaosLiarsNeverCollide: two different liars must not produce the
// same wrong answer, or independent faults could fake a majority.
func TestChaosLiarsNeverCollide(t *testing.T) {
	ctx := context.Background()
	job := testJob(t)
	a, err := NewChaosWorker(&Loopback{Name: "liar-a"}, ChaosOptions{Seed: 1, PLie: 1}).Run(ctx, job, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewChaosWorker(&Loopback{Name: "liar-b"}, ChaosOptions{Seed: 1, PLie: 1}).Run(ctx, job, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resultDigest(a) == resultDigest(b) {
		t.Fatal("two distinct liars produced byte-identical lies")
	}
}

// TestChaosByzantineProperty is the headline robustness property: for
// worker fleets {2,4,8} x ValidateK {1,2,3} under a seeded fault mix —
// delays, drops, mid-stream crashes, wrong-shard answers for everyone,
// plus plausibly-lying and corrupting byzantine workers wherever an
// honest majority remains — the merged Solution is byte-identical to
// the single-process search, counted lies always surface as validation
// mismatches, and lying workers are quarantined. K=1 cells run only
// detectable faults: a plausible lie is undetectable without
// cross-validation, which is exactly why ValidateK exists.
func TestChaosByzantineProperty(t *testing.T) {
	job := testJob(t)
	oracle := singleProcessOracle(t, job)

	type cell struct{ n, k int }
	cells := []cell{{2, 1}, {4, 1}, {8, 1}, {2, 2}, {4, 2}, {8, 2}, {4, 3}, {8, 3}}
	for _, c := range cells {
		for seed := int64(1); seed <= 2; seed++ {
			c, seed := c, seed
			t.Run(fmt.Sprintf("workers=%d,k=%d,seed=%d", c.n, c.k, seed), func(t *testing.T) {
				t.Parallel()
				need := c.k/2 + 1
				liars := 0
				if c.k >= 2 {
					// As many byzantine workers as the honest-majority
					// contract allows, capped at 2: honest >= need must hold
					// or no shard could ever validate.
					liars = c.n - need
					if liars > 2 {
						liars = 2
					}
				}
				workers := make([]Worker, c.n)
				chaos := make([]*ChaosWorker, c.n)
				for i := range workers {
					o := ChaosOptions{Seed: seed*1000 + int64(i), MaxDelay: 2 * time.Millisecond}
					if i < liars {
						o.PLie, o.PCorrupt = 0.4, 0.2
					} else {
						o.PDelay, o.PDrop, o.PCrashMid, o.PWrongShard = 0.1, 0.1, 0.05, 0.05
					}
					chaos[i] = NewChaosWorker(&Loopback{Name: fmt.Sprintf("w%d", i)}, o)
					workers[i] = chaos[i]
				}
				res, m := runCoordinator(t, workers, Options{
					ValidateK:    c.k,
					MaxAttempts:  20,
					RetryBackoff: time.Millisecond,
					Seed:         seed,
				}, job)
				requireIdentical(t, fmt.Sprintf("%d workers, K=%d, seed %d", c.n, c.k, seed), oracle, res)

				var lies int64
				for _, cw := range chaos[:liars] {
					lies += cw.LiesReturned.Load()
				}
				t.Logf("dispatched %d, retried %d, byzantine answers %d, mismatches %d, quarantines %d, readmissions %d",
					m.ShardsDispatched.Load(), m.ShardsRetried.Load(), lies,
					m.ValidationMismatches.Load(), m.WorkersQuarantined.Load(), m.WorkersReadmitted.Load())
				if lies > 0 {
					if m.ValidationMismatches.Load() == 0 {
						t.Errorf("%d byzantine answers returned but no validation mismatch recorded", lies)
					}
					if m.WorkersQuarantined.Load() == 0 {
						t.Error("byzantine workers were never quarantined")
					}
				}
			})
		}
	}
}

// TestChaosPersistentLiarWithoutMajorityFailsLoudly: two workers, K=2,
// one always lying. No honest majority is possible, so the run must
// fail with ErrValidation — never silently merge either answer.
func TestChaosPersistentLiarWithoutMajorityFailsLoudly(t *testing.T) {
	job := testJob(t)
	liar := NewChaosWorker(&Loopback{Name: "liar"}, ChaosOptions{Seed: 3, PLie: 1})
	c, err := NewCoordinator([]Worker{&Loopback{Name: "honest"}, liar}, Options{
		ValidateK:    2,
		RetryBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Run(context.Background(), job)
	if !errors.Is(err, ErrValidation) {
		t.Fatalf("err = %v, want ErrValidation", err)
	}
	if !strings.Contains(err.Error(), "majority") {
		t.Errorf("error should explain the missing majority: %v", err)
	}
}

// TestCoordinatorValidateKHonest: with an honest fleet, cross-validation
// changes the work (K votes per shard) but never the answer.
func TestCoordinatorValidateKHonest(t *testing.T) {
	job := testJob(t)
	oracle := singleProcessOracle(t, job)
	for _, k := range []int{2, 3} {
		workers := make([]Worker, 4)
		for i := range workers {
			workers[i] = &Loopback{Name: fmt.Sprintf("w%d", i)}
		}
		res, m := runCoordinator(t, workers, Options{ValidateK: k}, job)
		requireIdentical(t, fmt.Sprintf("K=%d", k), oracle, res)
		shards := int64(16) // 4 workers x shardsPerWorker
		if m.ShardsCompleted.Load() != shards {
			t.Errorf("K=%d: completed %d shards, want %d", k, m.ShardsCompleted.Load(), shards)
		}
		// A shard validates as soon as K/2+1 votes agree, so the floor is
		// the majority threshold per shard, not K: with an honest fleet
		// the last vote of an odd K is never needed.
		need := int64(k/2 + 1)
		if got := m.ShardsDispatched.Load(); got < shards*need {
			t.Errorf("K=%d: dispatched %d attempts, want >= %d (majority votes per shard)", k, got, shards*need)
		}
		if m.ValidationMismatches.Load() != 0 {
			t.Errorf("K=%d: %d mismatches among honest workers", k, m.ValidationMismatches.Load())
		}
	}
}

func TestCoordinatorValidateKNeedsEnoughWorkers(t *testing.T) {
	if _, err := NewCoordinator([]Worker{&Loopback{Name: "a"}, &Loopback{Name: "b"}},
		Options{ValidateK: 3}); !errors.Is(err, ErrValidation) {
		t.Errorf("err = %v, want ErrValidation for K=3 with 2 workers", err)
	}
}

// lateVoter is a scripted third voter: it starts its attempt (closing
// started, which the honest voters wait for), evaluates the shard, holds
// its answer until the coordinator has validated the shard without it,
// and then returns the answer with tamper applied (nil: unchanged).
type lateVoter struct {
	Loopback
	m       *Metrics
	started chan struct{}
	tamper  func(*Result)
}

func (l *lateVoter) Run(ctx context.Context, job *Job, heartbeat func(int64)) (*Result, error) {
	close(l.started)
	res, err := l.Loopback.Run(ctx, job, heartbeat)
	if err != nil {
		return nil, err
	}
	for deadline := time.Now().Add(time.Minute); l.m.ShardsCompleted.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return nil, errors.New("shard never validated")
		}
	}
	if l.tamper != nil {
		l.tamper(res)
	}
	return res, nil
}

// TestCoordinatorChecksLateVotes: under K=3 a shard validates on two
// agreeing votes, so a third vote can land after it. A late lie must
// still count as a validation mismatch and quarantine its voter, and a
// late honest vote must stay a discarded duplicate; the merged Result
// is the single-process one either way, and all of it is recorded by
// the time Run returns. The honest voters wait until the late voter
// holds its assignment, so the late vote always lands.
func TestCoordinatorChecksLateVotes(t *testing.T) {
	job := testJob(t)
	oracle := singleProcessOracle(t, job)
	for _, c := range []struct {
		name                               string
		tamper                             func(*Result)
		mismatches, quarantines, discarded int64
	}{
		{"lie", func(r *Result) { r.Score -= r.Score*0.25 + 1 }, 1, 1, 0},
		{"honest", nil, 0, 0, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			m := &Metrics{}
			late := &lateVoter{Loopback: Loopback{Name: "late"}, m: m, started: make(chan struct{}), tamper: c.tamper}
			wait := func(*Job) Fault { <-late.started; return FaultNone }
			workers := []Worker{
				&Loopback{Name: "a", Intercept: wait},
				&Loopback{Name: "b", Intercept: wait},
				late,
			}
			res, _ := runCoordinator(t, workers, Options{Shards: 1, ValidateK: 3, Metrics: m}, job)
			requireIdentical(t, c.name, oracle, res)
			// Run returns only after the late vote is recorded and its
			// quarantine delivered.
			if got := m.ValidationMismatches.Load(); got != c.mismatches {
				t.Errorf("validation mismatches %d, want %d", got, c.mismatches)
			}
			if got := m.WorkersQuarantined.Load(); got != c.quarantines {
				t.Errorf("quarantines %d, want %d", got, c.quarantines)
			}
			if got := m.DuplicatesDiscarded.Load(); got != c.discarded {
				t.Errorf("duplicates discarded %d, want %d", got, c.discarded)
			}
		})
	}
}

// TestCoordinatorQuarantineRedispatchesInFlightVotes: a worker
// quarantined mid-run (here by the registry's failure limit, tripped by
// its own crashes) keeps the run alive — its shards are re-dispatched
// to the surviving fleet and the answer stays exact.
func TestCoordinatorQuarantineRedispatchesInFlightVotes(t *testing.T) {
	job := testJob(t)
	oracle := singleProcessOracle(t, job)

	reg := NewRegistry(RegistryOptions{
		FailureLimit:      2,
		QuarantineBackoff: time.Hour, // never readmitted within the test
	})
	// Hold the steady worker until the doomed one has provably crashed
	// twice (tripping the failure limit), so the quarantine always
	// happens before the queue can drain.
	tripped := make(chan struct{})
	var crashes atomic.Int64
	if err := reg.Add(&Loopback{Name: "doomed", Intercept: func(*Job) Fault {
		if crashes.Add(1) == 2 {
			close(tripped)
		}
		return FaultCrash
	}}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Add(&Loopback{Name: "steady", Intercept: func(*Job) Fault {
		<-tripped
		return FaultNone
	}}); err != nil {
		t.Fatal(err)
	}
	c, err := NewCoordinatorRegistry(reg, Options{MaxAttempts: 50, RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "mid-run quarantine", oracle, res)
	if s, _ := reg.State("doomed"); s != StateQuarantined {
		t.Errorf("doomed worker state = %v, want quarantined", s)
	}
	if got := c.Metrics().WorkersQuarantined.Load(); got != 1 {
		t.Errorf("WorkersQuarantined = %d, want 1", got)
	}
}

// TestCoordinatorAdoptsWorkerAddedMidRun: a worker registered while the
// run is already executing joins the dispatch pool. The run has a
// deadline, so a missed worker fails the test instead of hanging it.
func TestCoordinatorAdoptsWorkerAddedMidRun(t *testing.T) {
	job := testJob(t)
	oracle := singleProcessOracle(t, job)

	reg := NewRegistry(RegistryOptions{})
	started := make(chan struct{})
	var once sync.Once
	// The sole initial worker hangs forever after signaling; only the
	// late-added worker can finish the search.
	if err := reg.Add(&Loopback{Name: "stuck", Intercept: func(*Job) Fault {
		once.Do(func() { close(started) })
		return FaultHang
	}}); err != nil {
		t.Fatal(err)
	}
	c, err := NewCoordinatorRegistry(reg, Options{
		Shards:         4,
		AttemptTimeout: 50 * time.Millisecond,
		MaxAttempts:    1000,
		RetryBackoff:   time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		<-started
		reg.Add(&Loopback{Name: "late"}) //nolint:errcheck
	}()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := c.Run(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "late-added worker", oracle, res)
}
