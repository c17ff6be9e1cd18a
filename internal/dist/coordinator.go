package dist

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"stordep/internal/opt"
)

// Worker executes shard jobs on behalf of the coordinator. Run evaluates
// one job and returns its wire Result; it must honor ctx cancellation
// (the coordinator enforces per-attempt timeouts through it, and waits
// for the attempts it cancels before Run returns) and may
// call heartbeat, concurrently with its own work, to report live
// progress (evaluated-candidate count). Implementations: HTTPWorker
// (remote, cmd/worker), Loopback (in-process, hermetic tests) and
// ChaosWorker (seeded fault injection around either).
type Worker interface {
	ID() string
	Run(ctx context.Context, job *Job, heartbeat func(evals int64)) (*Result, error)
}

// ErrNoWorkers is returned by NewCoordinator without any workers.
var ErrNoWorkers = errors.New("dist: coordinator needs at least one worker")

// ErrValidation marks a K-way cross-validation failure: a shard's votes
// split with no digest reaching the majority threshold and no unvoted
// worker left to break the tie. The search fails loudly rather than
// merge an answer it cannot trust.
var ErrValidation = errors.New("dist: k-way validation failed")

// shardsPerWorker oversizes the default partition so fast workers
// absorb slow shards: the space splits into that many shards per
// worker (capped at the space size).
const shardsPerWorker = 4

// Options configures a Coordinator. The zero value is usable: four
// shards per worker, three attempts per shard, 100ms base backoff with
// seeded jitter, no per-attempt timeout, no speculation, no
// cross-validation.
type Options struct {
	// Shards sets the shard count when > 0; 0 means shardsPerWorker
	// shards per registered worker.
	Shards int
	// AttemptTimeout bounds each dispatch attempt; a worker that has not
	// answered by then is abandoned (its context is canceled) and the
	// shard is re-dispatched. 0 means no deadline.
	AttemptTimeout time.Duration
	// MaxAttempts caps failed attempts per shard before the whole
	// search fails. Default 3.
	MaxAttempts int
	// RetryBackoff is the base delay before a failed shard is re-queued,
	// doubling per failure. The actual delay is jittered uniformly into
	// [base/2, base] (seeded by Seed) so simultaneous failures do not
	// re-queue in synchronized bursts; timing never affects the merged
	// Result. Default 100ms.
	RetryBackoff time.Duration
	// Seed seeds the retry-backoff jitter. 0 means a fixed default, so
	// runs are reproducible unless the caller opts into variety.
	Seed int64
	// SpeculateAfter, when > 0, re-dispatches a shard that has been in
	// flight this long to an additional worker; the first valid result
	// (or majority, under ValidateK) wins and losers are discarded. At
	// most one speculative duplicate per shard. 0 disables speculation.
	SpeculateAfter time.Duration
	// ValidateK, when > 1, dispatches every shard to K distinct workers
	// and exact-compares their result digests: the enumeration is
	// deterministic, so honest answers are byte-identical and a
	// disagreeing vote is a lie (or a corruption — indistinguishable,
	// and treated the same). A digest needs K/2+1 matching votes to
	// validate; minority voters are quarantined and their votes on
	// still-unvalidated shards are scrubbed and re-dispatched. A split
	// with no majority draws tie-breaking votes from workers that have
	// not yet voted on the shard, and fails with ErrValidation when none
	// remain. 0 or 1 disables cross-validation (first valid result
	// wins, as before — a plausibly-lying worker is then undetectable).
	ValidateK int
	// WorkersPerJob hints each worker's local evaluation pool size; 0
	// means all the worker's CPUs. Any value returns the same Result.
	WorkersPerJob int
	// Metrics receives the run's instrumentation; nil uses the
	// registry's (reachable via Coordinator.Metrics).
	Metrics *Metrics
}

// Coordinator fans an exhaustive search, or a Monte Carlo campaign's
// trial range, out over a live worker fleet and merges the shard
// results deterministically: the space is partitioned into more shards
// than workers, each shard is dispatched with bounded retries, optional
// speculative re-dispatch and optional K-way cross-validation, and the
// results merge through Merge — byte-identical to a single-process run
// for any worker count, shard count, failure pattern, or arrival order.
// Workers come from a Registry, so membership may change mid-run:
// quarantined workers stop receiving shards, readmitted or newly added
// ones join the dispatch pool immediately.
type Coordinator struct {
	reg  *Registry
	opts Options
	m    *Metrics

	rngMu sync.Mutex
	rng   *rand.Rand
}

// NewCoordinator validates a fixed worker set and defaults the options,
// wrapping the workers in a private static registry (no health probing;
// quarantines expire back to live on their own). Use
// NewCoordinatorRegistry for dynamic membership.
func NewCoordinator(workers []Worker, opts Options) (*Coordinator, error) {
	if len(workers) == 0 {
		return nil, ErrNoWorkers
	}
	m := opts.Metrics
	if m == nil {
		m = &Metrics{}
	}
	reg := NewRegistry(RegistryOptions{Metrics: m, QuarantineBackoff: 50 * time.Millisecond})
	for _, w := range workers {
		if err := reg.Add(w); err != nil {
			return nil, err
		}
	}
	if opts.ValidateK > len(workers) {
		return nil, fmt.Errorf("%w: ValidateK %d needs that many distinct workers, have %d",
			ErrValidation, opts.ValidateK, len(workers))
	}
	return NewCoordinatorRegistry(reg, opts)
}

// NewCoordinatorRegistry builds a coordinator over a live registry. The
// registry may gain and lose workers at any time, including mid-run;
// the run fails only when pending work cannot possibly be served (every
// registered worker has already voted on or failed a shard that still
// needs votes).
func NewCoordinatorRegistry(reg *Registry, opts Options) (*Coordinator, error) {
	if reg == nil {
		return nil, ErrNoWorkers
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 3
	}
	if opts.RetryBackoff <= 0 {
		opts.RetryBackoff = 100 * time.Millisecond
	}
	if opts.ValidateK <= 0 {
		opts.ValidateK = 1
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 20040628 // fixed default: reproducible runs (DSN 2004)
	}
	m := opts.Metrics
	if m == nil {
		m = reg.Metrics()
	}
	return &Coordinator{
		reg:  reg,
		opts: opts,
		m:    m,
		rng:  rand.New(rand.NewSource(seed)),
	}, nil
}

// Metrics returns the coordinator's instrumentation.
func (c *Coordinator) Metrics() *Metrics { return c.m }

// Registry returns the coordinator's worker registry.
func (c *Coordinator) Registry() *Registry { return c.reg }

// backoffDelay computes the jittered exponential backoff before a
// shard's next retry: base<<min(failures-1,10), jittered uniformly into
// [d/2, d] from the coordinator's seeded source.
func (c *Coordinator) backoffDelay(failures int) time.Duration {
	shift := failures - 1
	if shift > 10 {
		shift = 10 // cap the exponential backoff at 1024x the base
	}
	d := c.opts.RetryBackoff << shift
	c.rngMu.Lock()
	j := c.rng.Int63n(int64(d)/2 + 1)
	c.rngMu.Unlock()
	return d/2 + time.Duration(j)
}

// vote is one worker's answer for a shard under K-way validation.
type vote struct {
	worker string
	digest [sha256.Size]byte
	res    *Result
}

// resultDigest canonicalizes a Result for exact-compare voting: the
// deterministic enumeration makes honest answers byte-identical, so the
// digest is a hash of the wire encoding. The schedule-dependent fields
// are zeroed first: MemoHits reflects the worker's evaluation schedule,
// and under pruning so do Evaluations/Pruned/BoundsComputed — the
// incumbent tightens as local scores land, so which subtrees get
// skipped varies between two honest runs of the identical job even
// though the answer fields (Feasible, CandidateIndex, Score, Choices,
// Design) cannot.
func resultDigest(r *Result) [sha256.Size]byte {
	n := *r
	n.MemoHits = 0
	n.Evaluations = 0
	n.Pruned = 0
	n.BoundsComputed = 0
	data, err := n.Encode()
	if err != nil {
		// A decoded Result always re-encodes; if it somehow cannot, give
		// it a digest no honest vote can match.
		return sha256.Sum256([]byte(fmt.Sprintf("unencodable result: %v", err)))
	}
	return sha256.Sum256(data)
}

// runState is one Run's dispatch-and-vote ledger, guarded by mu. cond
// is broadcast on every transition: new pending work, completions,
// failures, speculation, membership changes and cancellation.
type runState struct {
	mu   sync.Mutex
	cond *sync.Cond
	// pending holds shard indices awaiting one dispatch each; stale
	// entries (for shards already validated or fully covered) are
	// dropped lazily by next.
	pending []int
	// target is the number of votes each shard currently wants:
	// ValidateK initially, +1 per speculation and per tie-break.
	target []int
	// votes collects counted answers per shard; votedBy mirrors it by
	// worker ID so one worker never votes twice on a shard.
	votes   map[int][]vote
	votedBy map[int]map[string]bool
	// assigned tracks in-flight attempts per shard by worker ID;
	// started is the start of the oldest in-flight attempt.
	assigned map[int]map[string]bool
	started  map[int]time.Time
	failedBy map[int]map[string]bool
	failures map[int]int
	// speculated caps speculative duplication at one per shard.
	speculated map[int]bool
	// best is the lowest score among validated feasible shards (+Inf
	// until one lands): the incumbent pool later dispatches prune
	// against. pinned freezes the incumbent each shard is dispatched
	// with, at its first dispatch (-1 = not yet dispatched) — a shard's
	// Result depends on its incumbent, so every re-dispatch, speculative
	// duplicate and K-way validation vote must carry the same one or
	// honest votes would not be byte-identical.
	best   float64
	pinned []float64
	// validated is the final result per shard; launched tracks worker
	// loops already spawned (registry members may join mid-run).
	validated []*Result
	launched  map[string]bool
	remaining int
	err       error
}

func (st *runState) fail(err error) {
	if st.err == nil {
		st.err = err
	}
	st.cond.Broadcast()
}

// coverage reports how many votes shard s has counted or in flight.
func (st *runState) coverage(s int) int {
	return len(st.votes[s]) + len(st.assigned[s])
}

// ensureDispatch re-queues shard s if it still wants more votes than it
// has counted or in flight, clearing the shard's failure-exclusion set
// when it would otherwise starve the queue entry (every worker that
// could still vote has failed the shard once — failed workers must
// become eligible again or nobody can serve it; MaxAttempts still
// bounds total failures). Safe to call redundantly: duplicates in
// pending are dropped lazily. Callers hold st.mu.
func (c *Coordinator) ensureDispatch(st *runState, s int) {
	if st.validated[s] != nil || st.coverage(s) >= st.target[s] {
		return
	}
	if len(st.failedBy[s]) >= c.nonVoters(st, s) {
		st.failedBy[s] = nil
	}
	st.pending = append(st.pending, s)
}

// nonVoters counts registered workers that have not voted on shard s —
// the pool any further vote must come from. Callers hold st.mu.
func (c *Coordinator) nonVoters(st *runState, s int) int {
	n := 0
	for _, w := range c.reg.Members() {
		if !st.votedBy[s][w.ID()] {
			n++
		}
	}
	return n
}

// Run partitions the job across the fleet, drives every shard to a
// validated result and merges them through Merge into the whole-space
// Result ExecuteJob returns for the same job. A search job is sized
// from its knob space, the same knob build every worker performs, so
// coordinator and workers agree on the enumeration; a Monte Carlo job
// is sized from its trial count, and its merged observations feed
// mc.(*Campaign).Estimate (with the same seed, trials and mission) for
// a report byte-identical to the single-process campaign. job must be
// unsharded (the coordinator owns the partitioning) and is not mutated;
// each dispatch carries a copy with its shard assignment. Run returns
// only after every attempt it started has returned and been recorded,
// so the metrics count every vote, late ones included.
func (c *Coordinator) Run(ctx context.Context, job *Job) (*Result, error) {
	if job.Shard != (ShardSpec{}) {
		return nil, fmt.Errorf("%w: coordinator job must be unsharded, got shard %d/%d",
			ErrBadJob, job.Shard.Index, job.Shard.Count)
	}
	var space int
	if job.MC != nil {
		if err := job.MC.Validate(); err != nil {
			return nil, err
		}
		space = job.MC.Trials
	} else {
		knobs, err := BuildKnobs(job.Knobs)
		if err != nil {
			return nil, err
		}
		if space, err = opt.SpaceSize(knobs); err != nil {
			return nil, err
		}
		if job.Budget > 0 && space > job.Budget {
			return nil, fmt.Errorf("%w: %d combinations > budget %d", opt.ErrSpaceTooLarge, space, job.Budget)
		}
	}
	results, err := c.dispatch(ctx, job, space)
	if err != nil {
		return nil, err
	}
	merged, err := Merge(results)
	if err != nil {
		return nil, err
	}
	if job.MC != nil && merged.MC.Hi != space {
		return nil, fmt.Errorf("%w: shards cover %d trials, campaign has %d", ErrBadResult, merged.MC.Hi, space)
	}
	return merged, nil
}

// dispatch is Run's validated-dispatch core: partition a space of the
// given size into shards, drive every shard to a validated result
// through the live worker fleet, and return the per-shard results for
// Merge.
func (c *Coordinator) dispatch(ctx context.Context, job *Job, space int) ([]*Result, error) {
	members := c.reg.Members()
	if len(members) == 0 {
		return nil, ErrNoWorkers
	}
	k := c.opts.ValidateK
	if k > len(members) {
		return nil, fmt.Errorf("%w: ValidateK %d needs that many distinct workers, registry has %d",
			ErrValidation, k, len(members))
	}
	shards := c.opts.Shards
	if shards <= 0 {
		shards = len(members) * shardsPerWorker
	}
	if shards > space {
		shards = space
	}
	if shards < 1 {
		shards = 1
	}

	rctx, cancel := context.WithCancel(ctx)
	defer cancel()

	st := &runState{
		target:     make([]int, shards),
		votes:      make(map[int][]vote),
		votedBy:    make(map[int]map[string]bool),
		assigned:   make(map[int]map[string]bool),
		started:    make(map[int]time.Time),
		failedBy:   make(map[int]map[string]bool),
		failures:   make(map[int]int),
		speculated: make(map[int]bool),
		best:       math.Inf(1),
		pinned:     make([]float64, shards),
		validated:  make([]*Result, shards),
		launched:   make(map[string]bool),
		remaining:  shards,
	}
	if job.Incumbent > 0 {
		// A caller-seeded incumbent (e.g. a previous run's winner) is the
		// starting pool every shard may prune against.
		st.best = job.Incumbent
	}
	for s := range st.pinned {
		st.pinned[s] = -1
	}
	st.cond = sync.NewCond(&st.mu)
	// One pending entry per wanted vote, round-robin across shards so K
	// distinct workers fan out over distinct shards first.
	st.pending = make([]int, 0, shards*k)
	for round := 0; round < k; round++ {
		for s := 0; s < shards; s++ {
			st.pending = append(st.pending, s)
		}
	}
	for s := range st.target {
		st.target[s] = k
	}

	// Propagate caller cancellation into the ledger so blocked workers
	// wake up; the derived-context cancel on normal return is a no-op
	// here because remaining is already zero.
	go func() {
		<-rctx.Done()
		st.mu.Lock()
		if st.remaining > 0 {
			st.fail(rctx.Err())
		}
		st.cond.Broadcast()
		st.mu.Unlock()
	}()

	if c.opts.SpeculateAfter > 0 {
		go c.speculate(rctx, st)
	}
	// loops counts the worker loops launched. A loop is added only while
	// the run is unfinished, checked under st.mu, so none can start once
	// the wait below begins.
	var loops sync.WaitGroup
	launch := func(w Worker) {
		st.mu.Lock()
		fresh := !st.launched[w.ID()] && st.remaining > 0 && st.err == nil
		if fresh {
			st.launched[w.ID()] = true
			loops.Add(1)
		}
		st.mu.Unlock()
		if fresh {
			go func() {
				defer loops.Done()
				c.workerLoop(rctx, w, st, job, shards)
			}()
		}
	}
	// Membership changes wake blocked dispatch loops and adopt workers
	// added mid-run. The watch is registered before the first launch,
	// which reads a fresh membership: a worker added after the snapshot
	// above is then launched by one of the two (launch is idempotent per
	// worker), never by neither.
	unwatch := c.reg.Watch(func() {
		for _, w := range c.reg.Members() {
			launch(w)
		}
		st.cond.Broadcast()
	})
	defer unwatch()
	for _, w := range c.reg.Members() {
		launch(w)
	}

	st.mu.Lock()
	for st.remaining > 0 && st.err == nil {
		st.cond.Wait()
	}
	err := st.err
	var results []*Result
	if err == nil {
		results = append(results, st.validated...)
	}
	st.mu.Unlock()
	// Cancel the attempts still in flight and wait for every loop to
	// record its last answer, so a vote that lands after its shard
	// validated is compared (lateVote) before Run returns. Workers honor
	// cancellation, so the wait is bounded.
	cancel()
	loops.Wait()

	if err != nil {
		return nil, err
	}
	return results, nil
}

// speculate watches for stragglers: shards whose oldest running attempt
// is older than SpeculateAfter get one additional vote dispatched.
func (c *Coordinator) speculate(ctx context.Context, st *runState) {
	tick := c.opts.SpeculateAfter / 4
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case now := <-t.C:
			st.mu.Lock()
			for s, t0 := range st.started {
				if !st.speculated[s] && st.validated[s] == nil && now.Sub(t0) >= c.opts.SpeculateAfter {
					st.speculated[s] = true
					st.target[s]++
					st.pending = append(st.pending, s)
					c.m.ShardsSpeculated.Add(1)
				}
			}
			st.cond.Broadcast()
			st.mu.Unlock()
		}
	}
}

// workerLoop pulls shard assignments until the run completes or fails.
// A worker never re-pulls a shard it already failed or voted on unless
// every registered worker has failed it (the exclusion set resets to
// preserve liveness); a quarantined worker's loop idles until the
// registry readmits it.
func (c *Coordinator) workerLoop(ctx context.Context, w Worker, st *runState, job *Job, shards int) {
	for {
		s, inc, ok := c.next(st, w)
		if !ok {
			return
		}
		res, err := c.attempt(ctx, w, job, s, shards, inc)
		c.record(st, w, s, res, err)
	}
}

// next blocks until an assignment is available for this worker, the run
// completes, or it fails. The second return is the shard's pinned
// pruning incumbent: the coordinator's best validated score at the
// shard's first dispatch, frozen so later votes on the same shard see
// the identical job (0 = none achieved yet).
func (c *Coordinator) next(st *runState, w Worker) (int, float64, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for {
		if st.err != nil || st.remaining == 0 {
			return 0, 0, false
		}
		idx := -1
		if c.reg.IsLive(w.ID()) {
			for i, s := range st.pending {
				if st.validated[s] != nil || st.coverage(s) >= st.target[s] {
					continue // stale entry; compacted below
				}
				if !st.votedBy[s][w.ID()] && !st.assigned[s][w.ID()] && !st.failedBy[s][w.ID()] {
					idx = i
					break
				}
			}
		}
		if idx < 0 {
			// Opportunistically drop entries for satisfied shards so the
			// queue never grows stale duplicates.
			kept := st.pending[:0]
			for _, s := range st.pending {
				if st.validated[s] == nil && st.coverage(s) < st.target[s] {
					kept = append(kept, s)
				}
			}
			st.pending = kept
			st.cond.Wait()
			continue
		}
		s := st.pending[idx]
		st.pending = append(st.pending[:idx], st.pending[idx+1:]...)
		if st.assigned[s] == nil {
			st.assigned[s] = make(map[string]bool)
		}
		st.assigned[s][w.ID()] = true
		if len(st.assigned[s]) == 1 {
			st.started[s] = time.Now()
		}
		if st.pinned[s] < 0 {
			if math.IsInf(st.best, 1) {
				st.pinned[s] = 0
			} else {
				st.pinned[s] = st.best
			}
		}
		c.m.ShardsDispatched.Add(1)
		return s, st.pinned[s], true
	}
}

// attempt runs one dispatch with the per-attempt timeout and validates
// the response shape: a result for the wrong shard or wire version is a
// worker failure, exactly like an error or a timeout.
func (c *Coordinator) attempt(ctx context.Context, w Worker, job *Job, s, shards int, incumbent float64) (*Result, error) {
	sub := *job
	sub.Shard = ShardSpec{Index: s, Count: shards}
	sub.Workers = c.opts.WorkersPerJob
	if job.Prune && incumbent > 0 {
		sub.Incumbent = incumbent
	}
	actx := ctx
	if c.opts.AttemptTimeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, c.opts.AttemptTimeout)
		defer cancel()
	}
	hb := func(evals int64) {
		c.m.HeartbeatsReceived.Add(1)
		c.m.WorkerSeen(w.ID(), time.Now())
	}
	res, err := w.Run(actx, &sub, hb)
	if err != nil {
		return nil, err
	}
	switch {
	case res == nil:
		return nil, fmt.Errorf("dist: worker %s returned no result for shard %d/%d", w.ID(), s, shards)
	case res.Version != Version:
		return nil, fmt.Errorf("%w: worker %s answered version %d", ErrVersion, w.ID(), res.Version)
	case res.Shard != sub.Shard:
		return nil, fmt.Errorf("dist: worker %s answered for shard %d/%d, asked %d/%d",
			w.ID(), res.Shard.Index, res.Shard.Count, s, shards)
	}
	return res, nil
}

// quarAction defers a registry quarantine until the ledger lock is
// released (the registry notifies watchers, which would re-enter).
type quarAction struct {
	worker, reason string
}

// record applies one attempt's outcome to the ledger: valid results
// count as votes (with ValidateK <= 1 the first vote validates the
// shard), failures re-queue with jittered exponential backoff until
// MaxAttempts, then fail the run — unless a still-running duplicate
// attempt can save the shard.
func (c *Coordinator) record(st *runState, w Worker, s int, res *Result, err error) {
	now := time.Now()
	id := w.ID()
	var quars []quarAction

	st.mu.Lock()
	delete(st.assigned[s], id)
	if len(st.assigned[s]) == 0 {
		delete(st.assigned, s)
		delete(st.started, s)
	}
	if err == nil {
		c.m.WorkerSeen(id, now)
		quars = c.recordVote(st, id, s, res)
		st.cond.Broadcast()
		st.mu.Unlock()
		c.reg.ReportSuccess(id)
		for _, q := range quars {
			c.reg.Quarantine(q.worker, q.reason)
		}
		return
	}
	c.m.WorkerErrors.Add(1)
	if st.validated[s] != nil || st.err != nil {
		st.cond.Broadcast()
		st.mu.Unlock()
		c.reg.ReportFailure(id)
		return
	}
	st.failures[s]++
	if st.failedBy[s] == nil {
		st.failedBy[s] = make(map[string]bool)
	}
	st.failedBy[s][id] = true
	if len(st.failedBy[s]) >= c.nonVoters(st, s) {
		// Every registered worker that could still vote on this shard has
		// failed it once; reset the exclusion set so retries stay possible
		// until MaxAttempts decides.
		st.failedBy[s] = make(map[string]bool)
	}
	if st.failures[s] >= c.opts.MaxAttempts {
		if len(st.assigned[s]) == 0 {
			st.fail(fmt.Errorf("dist: shard %d gave up after %d failed attempts, last from worker %s: %w",
				s, st.failures[s], id, err))
		}
		// A speculative duplicate is still running: let it decide.
		st.cond.Broadcast()
		st.mu.Unlock()
		c.reg.ReportFailure(id)
		return
	}
	c.m.ShardsRetried.Add(1)
	delay := c.backoffDelay(st.failures[s])
	time.AfterFunc(delay, func() {
		st.mu.Lock()
		if st.err == nil {
			c.ensureDispatch(st, s)
		}
		st.cond.Broadcast()
		st.mu.Unlock()
	})
	st.cond.Broadcast()
	st.mu.Unlock()
	c.reg.ReportFailure(id)
}

// recordVote counts one valid result toward shard s's K-way vote and
// applies the outcome, returning any quarantine verdicts for the
// caller to deliver after unlocking. Callers hold st.mu.
func (c *Coordinator) recordVote(st *runState, id string, s int, res *Result) []quarAction {
	if st.validated[s] != nil {
		return c.lateVote(st, id, s, res)
	}
	if !c.reg.IsLive(id) {
		// The worker was quarantined while this attempt was in flight; a
		// suspect's vote must not count. Replace the dispatch instead.
		c.ensureDispatch(st, s)
		return nil
	}
	if st.votedBy[s] == nil {
		st.votedBy[s] = make(map[string]bool)
	}
	st.votedBy[s][id] = true
	st.votes[s] = append(st.votes[s], vote{worker: id, digest: resultDigest(res), res: res})

	need := c.opts.ValidateK/2 + 1
	counts := make(map[[sha256.Size]byte]int, len(st.votes[s]))
	var winner [sha256.Size]byte
	won := false
	for _, v := range st.votes[s] {
		counts[v.digest]++
		if counts[v.digest] >= need {
			winner, won = v.digest, true
		}
	}
	if won {
		return c.finalizeShard(st, s, winner)
	}
	if st.coverage(s) < st.target[s] {
		// Still short of votes. Counting this vote shrank the shard's
		// non-voter pool, which may have made its failure-exclusion set
		// total (e.g. the only other worker failed the shard before this
		// vote landed) — ensureDispatch clears it so the shard cannot
		// starve waiting on workers that will never become eligible.
		c.ensureDispatch(st, s)
		return nil
	}
	// Every requested vote is in or in flight and none reached the
	// majority threshold: draw a tie-breaker from a worker that has
	// not voted yet, or fail loudly — never merge a split vote.
	if !c.anyUnvotedMember(st, s) {
		st.fail(fmt.Errorf("%w: shard %d split %d ways across %d votes with no %d-vote majority and no unvoted worker left",
			ErrValidation, s, len(counts), len(st.votes[s]), need))
		return nil
	}
	st.target[s]++
	c.ensureDispatch(st, s)
	return nil
}

// lateVote checks a vote that lands after shard s validated. Under
// K-way validation the validated result is the majority's, so a late
// vote with another digest is a lie like a minority vote: it counts as
// a validation mismatch, its voter's votes on still-unvalidated shards
// are scrubbed, and a quarantine verdict is returned. An agreeing late
// vote, and any late vote without cross-validation (the first answer
// validated alone), is a discarded duplicate. Callers hold st.mu.
func (c *Coordinator) lateVote(st *runState, id string, s int, res *Result) []quarAction {
	if c.opts.ValidateK <= 1 {
		c.m.DuplicatesDiscarded.Add(1)
		return nil
	}
	got, want := resultDigest(res), resultDigest(st.validated[s])
	if got == want {
		c.m.DuplicatesDiscarded.Add(1)
		return nil
	}
	c.m.ValidationMismatches.Add(1)
	c.scrubVotes(st, id, s)
	return []quarAction{{
		worker: id,
		reason: fmt.Sprintf("k-way validation mismatch on shard %d: late result digest %x disagrees with the validated majority %x",
			s, got[:6], want[:6]),
	}}
}

// anyUnvotedMember reports whether any registered worker (live or not —
// quarantined workers may return) has not yet voted on shard s.
func (c *Coordinator) anyUnvotedMember(st *runState, s int) bool {
	for _, w := range c.reg.Members() {
		if !st.votedBy[s][w.ID()] {
			return true
		}
	}
	return false
}

// finalizeShard validates shard s with the majority digest: the first
// majority vote becomes the shard's result, minority voters are flagged
// byzantine — their votes on still-unvalidated shards are scrubbed and
// those shards re-dispatched — and quarantine verdicts are returned for
// delivery outside the lock. Callers hold st.mu.
func (c *Coordinator) finalizeShard(st *runState, s int, winner [sha256.Size]byte) []quarAction {
	var quars []quarAction
	for _, v := range st.votes[s] {
		if st.validated[s] == nil && v.digest == winner {
			st.validated[s] = v.res
			if v.res.Feasible && v.res.Score < st.best {
				// A validated (majority-backed) score is trustworthy enough
				// to tighten the incumbent later dispatches prune against; a
				// single unvalidated vote is not — a lying low score could
				// prune the true argmin everywhere.
				st.best = v.res.Score
			}
			c.m.CandidatesPruned.Add(int64(v.res.Pruned))
			c.m.BoundsComputed.Add(int64(v.res.BoundsComputed))
		}
		if v.digest == winner {
			continue
		}
		c.m.ValidationMismatches.Add(1)
		quars = append(quars, quarAction{
			worker: v.worker,
			reason: fmt.Sprintf("k-way validation mismatch on shard %d: result digest %x disagrees with the %d-vote majority %x",
				s, v.digest[:6], countDigest(st.votes[s], winner), winner[:6]),
		})
		c.scrubVotes(st, v.worker, s)
	}
	st.remaining--
	c.m.ShardsCompleted.Add(1)
	return quars
}

func countDigest(votes []vote, d [sha256.Size]byte) int {
	n := 0
	for _, v := range votes {
		if v.digest == d {
			n++
		}
	}
	return n
}

// scrubVotes removes a byzantine worker's counted votes from every
// still-unvalidated shard except keep, re-dispatching each so an
// untainted worker re-votes. Callers hold st.mu.
func (c *Coordinator) scrubVotes(st *runState, worker string, keep int) {
	for s, votes := range st.votes {
		if s == keep || st.validated[s] != nil || !st.votedBy[s][worker] {
			continue
		}
		kept := votes[:0]
		for _, v := range votes {
			if v.worker != worker {
				kept = append(kept, v)
			}
		}
		st.votes[s] = kept
		delete(st.votedBy[s], worker)
		c.ensureDispatch(st, s)
	}
}
