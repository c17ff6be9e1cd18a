package opt

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"stordep/internal/core"
	"stordep/internal/failure"
	"stordep/internal/units"
	"stordep/internal/whatif"
)

// ErrSpaceTooLarge is returned when the knob product exceeds the caller's
// evaluation budget (ExhaustiveOptions.Budget), or overflows int. With no
// budget set the search is unbounded: enumeration is streaming, so memory
// stays O(workers) regardless of the space size and only time limits how
// far it can go.
var ErrSpaceTooLarge = errors.New("opt: knob space exceeds the evaluation budget")

// ErrBadShard is returned for an out-of-range shard specification.
var ErrBadShard = errors.New("opt: invalid shard")

// Shard selects one contiguous slice of the candidate space so an
// exhaustive search can be split across processes or hosts: shard k of m
// covers roughly space/m candidates, and every candidate belongs to
// exactly one shard. The zero value means "the whole space".
//
// Each shard's Solution records the winner's global CandidateIndex, so
// results from independently run shards combine with MergeShards into
// exactly the Solution an unsharded search returns: lowest score wins,
// ties break to the lowest global candidate index.
type Shard struct {
	// Index is the 0-based shard number, in [0, Count).
	Index int
	// Count is the total number of shards; 0 (or 1 with Index 0)
	// disables sharding.
	Count int
}

// Validate rejects an out-of-range shard specification; the zero value
// (the whole space) is valid. Exported so wire-format decoders
// (internal/dist) can reject bad shard assignments before dispatch.
func (s Shard) Validate() error {
	if s.Count == 0 && s.Index == 0 {
		return nil
	}
	if s.Count < 1 || s.Index < 0 || s.Index >= s.Count {
		return fmt.Errorf("%w: shard %d/%d", ErrBadShard, s.Index, s.Count)
	}
	return nil
}

// Bounds returns the half-open global-index range [lo, hi) this shard
// covers over a space of the given size. Exported so other sharded
// fan-outs (internal/dist's Monte Carlo trial ranges) partition exactly
// like the candidate search does.
func (s Shard) Bounds(space int) (lo, hi int) { return s.bounds(space) }

// bounds returns the half-open global-index range [lo, hi) this shard
// covers. Shards are contiguous and balanced: the first space%Count
// shards get one extra candidate. Computed additively so no intermediate
// product can overflow even when space is near MaxInt.
func (s Shard) bounds(space int) (lo, hi int) {
	if s.Count <= 1 {
		return 0, space
	}
	q, r := space/s.Count, space%s.Count
	extra := s.Index
	if extra > r {
		extra = r
	}
	lo = s.Index*q + extra
	hi = lo + q
	if s.Index < r {
		hi++
	}
	return lo, hi
}

// ExhaustiveOptions configures ExhaustiveOpts. The zero value searches
// the whole space on all CPUs with no budget.
type ExhaustiveOptions struct {
	// Workers caps the evaluation goroutines; anything < 1 means
	// runtime.NumCPU().
	Workers int
	// Budget, when > 0, bounds the total space size (not the shard's
	// slice): a larger knob product returns ErrSpaceTooLarge. 0 means
	// unbounded.
	Budget int
	// Shard restricts the search to one slice of the space; the zero
	// value searches everything.
	Shard Shard
	// Progress, when non-nil, is incremented once per retired candidate
	// — evaluated, or pruned wholesale when Prune is set — and may be
	// read concurrently: a live counter for progress reporting and
	// heartbeats (internal/dist streams it to the coordinator). It does
	// not affect the search. It advances once per work item of the
	// sweep: per candidate on a slice without compiled tables, per batch
	// on a compiled one. The final total equals Evaluations plus
	// CandidatesPruned.
	Progress *atomic.Int64
	// Prune enables bound-guided subtree pruning: before a batch is
	// assessed, an admissible lower bound on every candidate in its index
	// range is computed from the compiled group tables (see bound.go),
	// and the batch is skipped wholesale when the bound exceeds the best
	// score achieved so far. Requires Floor. Pruning needs the tables, so
	// it runs only on a slice that compiles (more than 16 candidates);
	// the search runs unpruned (still exact) on a smaller slice, on one
	// whose compilation is refused, and when the bound tables fail their
	// admissibility verification. Pruning never
	// changes the returned Solution — score, CandidateIndex, Choices and
	// Design are byte-identical to the unpruned search — only
	// Evaluations/CandidatesPruned accounting differs. Up to 16 spread
	// candidates are pre-assessed to seed the incumbent; they are not
	// counted in Evaluations.
	Prune bool
	// Floor derives an objective lower bound from a subtree's component
	// floors. It must be the admissible counterpart of the search's
	// Objective: WorstTotalFloor for WorstTotalObjective, ExpectedFloor
	// for ExpectedObjective, ConstrainedOutlayFloor for
	// ConstrainedOutlayObjective. Ignored unless Prune is set.
	Floor ObjectiveFloor
	// Incumbent, when > 0, seeds the pruning incumbent with an already
	// achieved score — e.g. another shard's validated winner — so bounds
	// tighten from the first batch. It must be a score truly achieved by
	// some candidate of the same space and objective; an unachievable
	// value could prune the true argmin.
	Incumbent units.Money
	// Stats, when non-nil, receives the search's candidate accounting —
	// assessed vs pruned — even when the search ends in ErrNoFeasible,
	// so distributed shards report honest totals either way.
	Stats *SearchStats
}

// SearchStats reports how an exhaustive search's candidate slice was
// retired: every candidate is either assessed (scored) or pruned
// (eliminated wholesale by an admissible bound), so Assessed+Pruned
// equals the searched slice's size. BoundsComputed counts the subtree
// bounds evaluated, whether or not they pruned.
type SearchStats struct {
	Assessed       int
	Pruned         int
	BoundsComputed int
}

// SpaceSize returns the total candidate count of a knob set — the
// knob-option product — refusing products that overflow int with
// ErrSpaceTooLarge. Coordinators use it to pick a shard count before
// dispatching (internal/dist).
func SpaceSize(knobs []Knob) (int, error) {
	return spaceSize(knobs)
}

// Size returns the number of candidates this shard covers in a space of
// the given size — what a shard's Evaluations will be, since streaming
// exhaustive search evaluates every candidate in its slice exactly once.
func (s Shard) Size(space int) int {
	lo, hi := s.bounds(space)
	return hi - lo
}

// spaceSize returns the knob-option product, refusing (rather than
// silently wrapping) products that overflow int.
func spaceSize(knobs []Knob) (int, error) {
	space := 1
	for _, k := range knobs {
		n := len(k.Options)
		if space > math.MaxInt/n {
			return 0, fmt.Errorf("%w: knob-option product overflows int", ErrSpaceTooLarge)
		}
		space *= n
	}
	return space, nil
}

// decodeChoice writes candidate idx's option vector into choice using
// mixed-radix decoding with the last knob least significant — the same
// lexicographic order the materialized enumeration used, so global
// candidate indices (and therefore tie-breaking) are stable across the
// slice-based, streaming and sharded implementations.
func decodeChoice(choice []int, knobs []Knob, idx int) {
	for d := len(knobs) - 1; d >= 0; d-- {
		n := len(knobs[d].Options)
		choice[d] = idx % n
		idx /= n
	}
}

func allRevertible(knobs []Knob) bool {
	for _, k := range knobs {
		if !k.Revertible {
			return false
		}
	}
	return true
}

// Exhaustive evaluates every knob combination on all CPUs and returns
// the global optimum; see ExhaustiveOpts.
func Exhaustive(base *core.Design, knobs []Knob, scenarios []failure.Scenario, objective Objective) (*Solution, error) {
	return ExhaustiveOpts(base, knobs, scenarios, objective, ExhaustiveOptions{})
}

// ExhaustiveWorkers is Exhaustive on a bounded worker pool; see
// ExhaustiveOpts.
func ExhaustiveWorkers(base *core.Design, knobs []Knob, scenarios []failure.Scenario, objective Objective, workers int) (*Solution, error) {
	return ExhaustiveOpts(base, knobs, scenarios, objective, ExhaustiveOptions{Workers: workers})
}

// ExhaustiveOpts evaluates every knob combination (or one Shard of them)
// and returns the optimum. Coordinate descent (Tune) can stall on
// interacting knobs; exhaustive search cannot, at the price of evaluating
// the full product space.
//
// Enumeration is streaming: candidate choice vectors are decoded from
// their global index on the fly (mixed-radix, last knob least
// significant) and folded into per-worker argmin accumulators, so memory
// stays O(workers) however large the space is — there is no materialized
// combination list and no score slice.
//
// The search runs the one batched sweep it shares with Frontier
// (sweep.go). A slice of more than 16 candidates is first compiled into
// flat parameter tables (see compile.go) and assessed in batches
// through core.BatchKernel, with near-zero steady-state allocation.
// Compilation is strictly an accelerator: candidates the
// tables cannot represent — and every candidate of a slice that was not
// compiled, because it is small or compilation refused it — are slow
// rows, built by cloning the base, applying the knobs and evaluating.
// When every knob declares itself Revertible, each worker reuses a
// single cloned design across its slow rows instead of cloning per
// candidate.
//
// The result is byte-identical for every worker count, and across
// slice-based, streaming, batched and sharded searches: the optimum is
// the lowest score with ties broken to the lowest global candidate
// index, a rule that is insensitive to how the index space was
// partitioned. Candidates scoring +Inf (unbuildable or infeasible) are
// never selected; if nothing scores below +Inf the search returns
// ErrNoFeasible.
func ExhaustiveOpts(base *core.Design, knobs []Knob, scenarios []failure.Scenario, objective Objective, opts ExhaustiveOptions) (*Solution, error) {
	return exhaustive(base, knobs, scenarios, objective, opts, 0)
}

// exhaustive is ExhaustiveOpts with newSweep's batch hook for tests.
func exhaustive(base *core.Design, knobs []Knob, scenarios []failure.Scenario, objective Objective, opts ExhaustiveOptions, batch int) (*Solution, error) {
	objective, err := validate(knobs, scenarios, objective)
	if err != nil {
		return nil, err
	}
	sw, err := newSweep(base, knobs, scenarios, opts.Workers, opts.Budget, opts.Shard, batch)
	if err != nil {
		return nil, err
	}
	defer sw.release()
	var pr *pruner
	if opts.Prune && sw.cs != nil {
		build := func() {
			if pr = newPruner(sw.cs, opts.Floor, opts.Incumbent); pr != nil {
				pr.seed(objective, sw.lo, sw.hi)
			}
		}
		if profilingEnabled() {
			doPhase(labelsPrune, build)
		} else {
			build()
		}
	}
	sw.progress = opts.Progress
	acc, tally, err := sw.run(func() accumulator { return newArgmin(sw, objective, pr) })
	if opts.Stats != nil {
		*opts.Stats = tally
	}
	if err != nil {
		return nil, err
	}
	best := acc.(*argmin)
	if best.idx < 0 || math.IsInf(float64(best.score), 1) {
		return nil, ErrNoFeasible
	}

	choice := make([]int, len(knobs))
	decodeChoice(choice, knobs, best.idx)
	tuned, err := applyChoice(base, knobs, choice)
	if err != nil {
		return nil, err
	}
	sol := &Solution{
		Design:           tuned,
		Score:            best.score,
		Evaluations:      tally.Assessed,
		Passes:           1,
		CandidateIndex:   best.idx,
		CandidatesPruned: tally.Pruned,
		BoundsComputed:   tally.BoundsComputed,
	}
	for i, k := range knobs {
		sol.Choices = append(sol.Choices, Choice{Knob: k.Name, Option: k.Options[choice[i]]})
	}
	return sol, nil
}

// argmin is ExhaustiveOpts' sweep accumulator: the lowest score a
// worker has seen and its global index, plus the bound pruner and the
// worker's bound scratch, from its arena slot, when the search prunes.
type argmin struct {
	worker
	objective Objective
	score     units.Money
	idx       int // -1 = none yet
	pr        *pruner
	ps        *pruneScratch
}

func newArgmin(sw *sweep, objective Objective, pr *pruner) *argmin {
	a := &argmin{worker: sw.newWorker(), objective: objective, score: units.Money(math.Inf(1)), idx: -1, pr: pr}
	if pr != nil {
		a.ps = &a.sl.ps
		pr.readyScratch(a.ps)
	}
	return a
}

// prune bounds the batch [lo, hi) against the shared incumbent.
func (a *argmin) prune(lo, hi int) (bounded, pruned bool) {
	if a.pr == nil {
		return false, false
	}
	if profilingEnabled() {
		doPhase(labelsPrune, func() { bounded, pruned = a.pr.pruneBatch(a.ps, lo, hi) })
		return bounded, pruned
	}
	return a.pr.pruneBatch(a.ps, lo, hi)
}

// addResult scores one candidate; a new best also tightens the
// pruner's shared incumbent.
func (a *argmin) addResult(idx int, res *whatif.Result) {
	if s := a.objective(*res); s < a.score {
		a.score, a.idx = s, idx
		if a.pr != nil {
			a.pr.noteScore(s)
		}
	}
}

// merge keeps the lower score, ties to the lower global index.
func (a *argmin) merge(o accumulator) {
	b := o.(*argmin)
	if b.idx >= 0 && (a.idx < 0 || b.score < a.score || (b.score == a.score && b.idx < a.idx)) {
		a.score, a.idx = b.score, b.idx
	}
}

// MergeShards combines the per-shard Solutions of one sharded exhaustive
// search into the Solution the unsharded search would return: the lowest
// score wins, ties break to the lowest global CandidateIndex. Shards that
// found nothing feasible (or covered an empty slice) contribute nil;
// MergeShards returns ErrNoFeasible only when every entry is nil. The
// merged Solution shares the winning shard's Design and Choices, with
// Evaluations, MemoHits, CandidatesPruned and BoundsComputed summed
// over the non-nil shards.
//
// Shards cover disjoint index slices, so two entries with the same
// CandidateIndex can only be duplicate reports of the same shard —
// speculative re-dispatch (internal/dist) races two workers on a
// straggling shard and both may answer. Duplicates are deduped, not
// treated as distinct tie-break entries: only the first occurrence
// contributes to the merged Evaluations/MemoHits, so the totals match
// the unsharded search no matter how many duplicate reports arrive.
//
// Every non-nil entry must come from exhaustive enumeration: a Solution
// without a valid CandidateIndex (e.g. Tune's, which carries -1) has no
// place in the global index order and would corrupt the deterministic
// tie-break, so MergeShards rejects it with ErrBadShard.
func MergeShards(sols []*Solution) (*Solution, error) {
	var best *Solution
	evals, memo, pruned, bounds := 0, 0, 0, 0
	seen := make(map[int]bool, len(sols))
	for i, s := range sols {
		if s == nil {
			continue
		}
		if s.CandidateIndex < 0 {
			return nil, fmt.Errorf("%w: solution %d has CandidateIndex %d, not from exhaustive enumeration",
				ErrBadShard, i, s.CandidateIndex)
		}
		if seen[s.CandidateIndex] {
			continue
		}
		seen[s.CandidateIndex] = true
		evals += s.Evaluations
		memo += s.MemoHits
		pruned += s.CandidatesPruned
		bounds += s.BoundsComputed
		if best == nil || s.Score < best.Score ||
			(s.Score == best.Score && s.CandidateIndex < best.CandidateIndex) {
			best = s
		}
	}
	if best == nil {
		return nil, ErrNoFeasible
	}
	merged := *best
	merged.Evaluations = evals
	merged.MemoHits = memo
	merged.CandidatesPruned = pruned
	merged.BoundsComputed = bounds
	return &merged, nil
}
