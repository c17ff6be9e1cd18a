package opt

import (
	"fmt"
	"math"
	"sort"
	"time"

	"stordep/internal/core"
	"stordep/internal/failure"
	"stordep/internal/parallel"
	"stordep/internal/units"
	"stordep/internal/whatif"
)

// This file implements the Pareto frontier mode of the knob-space
// search: instead of folding candidates into a scalar argmin, Frontier
// streams the whole space and keeps the full RT/DL/cost non-dominated
// surface. Memory stays O(frontier + workers): each worker maintains a
// streaming non-dominated set over its slice of the enumeration, and
// the sets merge exactly like the argmin accumulators do. Pruning
// against a frontier generalizes pruning against a scalar incumbent —
// a batch is skipped when an already achieved point dominates the
// batch's component floor (bound.go) with strictly lower outlays,
// which proves every candidate in the batch strictly dominated.

// FrontierPoint is one non-dominated candidate on the RT/DL/cost
// surface. RecoveryTime and DataLoss are the candidate's worst case
// across the searched scenarios; Outlays are its scenario-independent
// annual outlays.
type FrontierPoint struct {
	// CandidateIndex is the point's global index in the mixed-radix
	// enumeration — the same index Exhaustive reports, so a frontier
	// point can be re-run or cross-referenced against a Solution.
	CandidateIndex int
	Choices        []Choice
	RecoveryTime   time.Duration
	DataLoss       time.Duration
	Outlays        units.Money
}

// FrontierResult is one Frontier sweep's outcome: the canonical
// non-dominated surface plus the candidate accounting. Every candidate
// of the searched slice is either assessed or pruned, so Evaluations
// plus CandidatesPruned equals the slice size; the split between them
// (and BoundsComputed) depends on scheduling, Points never does.
type FrontierResult struct {
	// Points is sorted by ascending Outlays, then RecoveryTime, then
	// DataLoss, then CandidateIndex. Distinct points never share all
	// three coordinates: exact ties collapse to the lowest candidate
	// index.
	Points           []FrontierPoint
	Evaluations      int
	CandidatesPruned int
	BoundsComputed   int
}

// FrontierOpts configures Frontier. The zero value searches the whole
// space on all CPUs without pruning.
type FrontierOpts struct {
	// Workers caps the evaluation goroutines; anything < 1 means
	// runtime.NumCPU().
	Workers int
	// Budget, when > 0, bounds the total space size (not the shard's
	// slice), as in ExhaustiveOptions.Budget.
	Budget int
	// Shard restricts the sweep to one contiguous slice of the space;
	// disjoint shards' results combine with MergeFrontiers into exactly
	// the unsharded surface.
	Shard Shard
	// BatchSize is the per-batch candidate count on the compiled fast
	// path, as in ExhaustiveOptions.BatchSize. The surface is
	// byte-identical for every batch size.
	BatchSize int
	// Prune enables dominance pruning on the compiled batched path: a
	// batch whose component floor (see SubtreeFloor) is strictly
	// dominated by an already achieved point — or provably loses the
	// whole object under some scenario — is retired wholesale without
	// assessment. Pruning never changes Points, only the
	// Evaluations/CandidatesPruned split. Like ExhaustiveOptions.Prune
	// it forces a compilation attempt and silently runs unpruned when
	// the space cannot be compiled or bounded.
	Prune bool
}

// fpoint is the internal, choices-free frontier coordinate set.
type fpoint struct {
	idx int
	rt  time.Duration
	dl  time.Duration
	out units.Money
}

// frontierSet is a streaming non-dominated set. add keeps the
// invariant that no member dominates another and that exact coordinate
// ties hold only the lowest candidate index; because dominance (with
// the index tie-break) is transitive, the surviving set is exactly
//
//	{q : no inserted p has p ≤ q on all three axes
//	     with a strict inequality somewhere or a lower index}
//
// independent of insertion order — which is what makes worker counts,
// batch sizes and shard splits invisible in the result.
type frontierSet struct {
	pts []fpoint
}

// add folds one achieved point into the set.
func (f *frontierSet) add(q fpoint) {
	for i := range f.pts {
		p := &f.pts[i]
		if p.out <= q.out && p.rt <= q.rt && p.dl <= q.dl {
			if p.out < q.out || p.rt < q.rt || p.dl < q.dl || p.idx <= q.idx {
				return // q dominated, or a duplicate of an earlier index
			}
		}
	}
	keep := f.pts[:0]
	for _, p := range f.pts {
		if q.out <= p.out && q.rt <= p.rt && q.dl <= p.dl {
			if q.out < p.out || q.rt < p.rt || q.dl < p.dl || q.idx < p.idx {
				continue // p now dominated by q (or its lower-index duplicate)
			}
		}
		keep = append(keep, p)
	}
	f.pts = append(keep, q)
}

// addResult folds one evaluated candidate onto the surface: candidates
// that fail to build or lose the whole object under any scenario are
// excluded, everything else contributes its worst-case recovery time
// and data loss plus its outlays.
func (f *frontierSet) addResult(idx int, res *whatif.Result) {
	if res.Err != nil || len(res.Outcomes) == 0 {
		return
	}
	var rt, dl time.Duration
	for i := range res.Outcomes {
		o := &res.Outcomes[i]
		if o.Lost {
			return
		}
		if o.RecoveryTime > rt {
			rt = o.RecoveryTime
		}
		if o.DataLoss > dl {
			dl = o.DataLoss
		}
	}
	f.add(fpoint{idx: idx, rt: rt, dl: dl, out: res.Outlays})
}

// merge folds set b into f.
func (f *frontierSet) merge(b *frontierSet) {
	for _, p := range b.pts {
		f.add(p)
	}
}

// pruneAgainst reports whether the whole batch behind floor fl can be
// retired unassessed: either some scenario floor proves certain
// whole-object loss (no such candidate is ever on the surface), or an
// achieved point dominates the floor with strictly lower outlays —
// then it strictly dominates every candidate in the batch (each is at
// or above the floor on every axis), so none can reach the surface,
// nor tie an existing point's coordinates for the index tie-break. The
// boundSlack guard mirrors the scalar prune test, absorbing float
// non-associativity between the floor's outlay fold order and fill's.
func (f *frontierSet) pruneAgainst(fl *SubtreeFloor) bool {
	var floorRT, floorDL time.Duration
	for si := range fl.Scenarios {
		if fl.Lost[si] {
			return true
		}
		if fl.RecoveryTime[si] > floorRT {
			floorRT = fl.RecoveryTime[si]
		}
		if fl.DataLoss[si] > floorDL {
			floorDL = fl.DataLoss[si]
		}
	}
	cut := float64(fl.Outlays) * (1 - boundSlack)
	for _, p := range f.pts {
		if p.rt <= floorRT && p.dl <= floorDL && float64(p.out) < cut {
			return true
		}
	}
	return false
}

// noFloor is the ObjectiveFloor handed to the pruner when Frontier
// reuses its component-floor machinery: the scalar bound is never used
// for frontier pruning (dominance against ps.fl is), so it pins the
// objective floor at -Inf, which can never scalar-prune anything.
func noFloor(*SubtreeFloor) units.Money { return units.Money(math.Inf(-1)) }

// frontAcc is one worker's frontier accumulator: the streaming set plus
// the reusable enumeration machinery (mirroring batchAcc/exhAcc).
type frontAcc struct {
	set    frontierSet
	evals  int
	pruned int
	bounds int

	choice  []int
	scratch *core.Design
	eval    whatif.Evaluator
	res     whatif.Result

	cols     *core.Cols
	fs       *fillScratch
	slow     []bool
	bscratch core.BatchScratch
	ps       *pruneScratch
}

// Frontier sweeps every knob combination (or one Shard of them) and
// returns the full RT/DL/cost non-dominated surface: the candidates
// not dominated — on worst-case recovery time, worst-case data loss
// and annual outlays together, no axis worse and at least one strictly
// better — by any other candidate of the space. Candidates that fail
// to build or lose the whole object under any scenario are excluded.
// Exact coordinate ties collapse to the lowest global candidate index,
// and Points comes back canonically sorted, so the surface is
// byte-identical for every worker count, batch size and shard split.
//
// Enumeration reuses the exhaustive machinery: the compiled batched
// fast path when the space compiles (with optional dominance pruning,
// see FrontierOpts.Prune), the legacy clone+build fold otherwise. No
// Objective is involved — the frontier is the set a decision-maker
// picks from before committing to one.
func Frontier(base *core.Design, knobs []Knob, scenarios []failure.Scenario, opts FrontierOpts) (*FrontierResult, error) {
	if _, err := validate(knobs, scenarios, nil); err != nil {
		return nil, err
	}
	if err := opts.Shard.Validate(); err != nil {
		return nil, err
	}
	space, err := spaceSize(knobs)
	if err != nil {
		return nil, err
	}
	if opts.Budget > 0 && space > opts.Budget {
		return nil, fmt.Errorf("%w: %d combinations > budget %d; raise the budget or shard the space",
			ErrSpaceTooLarge, space, opts.Budget)
	}
	lo, hi := opts.Shard.bounds(space)
	reuse := allRevertible(knobs)

	exOpts := ExhaustiveOptions{
		Workers:   opts.Workers,
		BatchSize: opts.BatchSize,
		Prune:     opts.Prune,
	}
	if opts.Prune {
		// Forces the compilation attempt in maybeCompile, exactly like a
		// pruned exhaustive search.
		exOpts.Floor = noFloor
	}
	var set frontierSet
	var tally searchTally
	if cs := maybeCompile(base, knobs, scenarios, hi-lo, exOpts); cs != nil {
		batch := opts.BatchSize
		if batch <= 0 {
			batch = defaultBatchSize
		}
		if batch > hi-lo {
			batch = hi - lo
		}
		var pr *pruner
		if opts.Prune {
			pr = newPruner(cs, noFloor, 0)
		}
		set, tally, err = cs.frontier(lo, hi, batch, opts.Workers, reuse, pr)
	} else {
		set, tally.evals, err = frontierFold(base, knobs, scenarios, opts.Workers, lo, hi, reuse)
	}
	if err != nil {
		return nil, err
	}
	return assembleFrontier(&set, knobs, tally), nil
}

// frontier is the compiled batched frontier sweep — cs.search with the
// argmin fold replaced by streaming non-dominated-set accumulation.
// Pruning needs no seed pass and no shared atomic: each worker prunes
// against its own achieved points, so batches are bounded only once a
// local point exists that could dominate them.
func (cs *compiledSpace) frontier(lo, hi, batch, workers int, reuse bool, pr *pruner) (frontierSet, searchTally, error) {
	n := hi - lo
	nb := (n + batch - 1) / batch
	ns := len(cs.scs)

	acc := func() *frontAcc {
		a := &frontAcc{
			choice: make([]int, len(cs.knobs)),
			cols:   cs.kern.NewCols(batch),
			fs:     newFillScratch(cs),
			slow:   make([]bool, batch),
		}
		if pr != nil {
			a.ps = pr.newScratch()
		}
		return a
	}
	fillAndAssess := func(a *frontAcc, blo, m int) {
		for r := 0; r < m; r++ {
			decodeChoice(a.choice, cs.knobs, blo+r)
			a.slow[r] = cs.fill(a.fs, a.cols, r, a.choice)
		}
		cs.kern.AssessBatch(m, a.cols, &a.bscratch)
	}
	fold := func(a *frontAcc, bi int) (*frontAcc, error) {
		blo := lo + bi*batch
		m := batch
		if blo+m > hi {
			m = hi - blo
		}
		if pr != nil && len(a.set.pts) > 0 {
			var computed, pruned bool
			boundBatch := func() {
				if _, ok := pr.bound(a.ps, blo, blo+m); ok {
					computed = true
					pruned = a.set.pruneAgainst(&a.ps.fl)
				}
			}
			if profilingEnabled() {
				doPhase(labelsPrune, boundBatch)
			} else {
				boundBatch()
			}
			if computed {
				a.bounds++
			}
			if pruned {
				a.pruned += m
				return a, nil
			}
		}
		if profilingEnabled() {
			doPhase(labelsBatch, func() { fillAndAssess(a, blo, m) })
		} else {
			fillAndAssess(a, blo, m)
		}
		for r := 0; r < m; r++ {
			global := blo + r
			if a.slow[r] {
				decodeChoice(a.choice, cs.knobs, global)
				d := a.scratch
				if d == nil {
					fresh, err := Clone(cs.base)
					if err != nil {
						return a, err
					}
					d = fresh
					if reuse {
						a.scratch = fresh
					}
				}
				if err := applyChoiceTo(d, cs.knobs, a.choice); err != nil {
					return a, err
				}
				a.eval.EvaluateInto(d, cs.scs, &a.res)
			} else {
				a.res.SetBriefs(cs.base.Name, a.cols.OutlaysTotal[r], cs.scs, a.bscratch.Briefs[r*ns:(r+1)*ns])
			}
			a.set.addResult(global, &a.res)
			a.evals++
		}
		return a, nil
	}
	merge := func(a, b *frontAcc) *frontAcc {
		a.set.merge(&b.set)
		a.evals += b.evals
		a.pruned += b.pruned
		a.bounds += b.bounds
		return a
	}
	mergePhase := merge
	if profilingEnabled() {
		mergePhase = func(a, b *frontAcc) *frontAcc {
			doPhase(labelsReduce, func() { a = merge(a, b) })
			return a
		}
	}
	final, err := parallel.Reduce(workers, nb, acc, fold, mergePhase)
	if err != nil {
		return frontierSet{}, searchTally{}, err
	}
	return final.set, searchTally{evals: final.evals, pruned: final.pruned, bounds: final.bounds}, nil
}

// frontierFold is the legacy per-candidate frontier sweep, used when
// the space does not compile. It mirrors exhaustiveFold.
func frontierFold(base *core.Design, knobs []Knob, scenarios []failure.Scenario, workers, lo, hi int, reuse bool) (frontierSet, int, error) {
	acc := func() *frontAcc {
		return &frontAcc{choice: make([]int, len(knobs))}
	}
	fold := func(a *frontAcc, i int) (*frontAcc, error) {
		global := lo + i
		decodeChoice(a.choice, knobs, global)
		d := a.scratch
		if d == nil {
			fresh, err := Clone(base)
			if err != nil {
				return a, err
			}
			d = fresh
			if reuse {
				a.scratch = fresh
			}
		}
		if err := applyChoiceTo(d, knobs, a.choice); err != nil {
			return a, err
		}
		a.eval.EvaluateInto(d, scenarios, &a.res)
		a.set.addResult(global, &a.res)
		a.evals++
		return a, nil
	}
	merge := func(a, b *frontAcc) *frontAcc {
		a.set.merge(&b.set)
		a.evals += b.evals
		return a
	}
	final, err := parallel.Reduce(workers, hi-lo, acc, fold, merge)
	if err != nil {
		return frontierSet{}, 0, err
	}
	return final.set, final.evals, nil
}

// assembleFrontier decodes each surviving point's choices and sorts
// the surface canonically.
func assembleFrontier(set *frontierSet, knobs []Knob, tally searchTally) *FrontierResult {
	fr := &FrontierResult{
		Evaluations:      tally.evals,
		CandidatesPruned: tally.pruned,
		BoundsComputed:   tally.bounds,
	}
	choice := make([]int, len(knobs))
	for _, p := range set.pts {
		decodeChoice(choice, knobs, p.idx)
		choices := make([]Choice, len(knobs))
		for i, k := range knobs {
			choices[i] = Choice{Knob: k.Name, Option: k.Options[choice[i]]}
		}
		fr.Points = append(fr.Points, FrontierPoint{
			CandidateIndex: p.idx,
			Choices:        choices,
			RecoveryTime:   p.rt,
			DataLoss:       p.dl,
			Outlays:        p.out,
		})
	}
	sort.Slice(fr.Points, func(i, j int) bool {
		a, b := &fr.Points[i], &fr.Points[j]
		if a.Outlays != b.Outlays {
			return a.Outlays < b.Outlays
		}
		if a.RecoveryTime != b.RecoveryTime {
			return a.RecoveryTime < b.RecoveryTime
		}
		if a.DataLoss != b.DataLoss {
			return a.DataLoss < b.DataLoss
		}
		return a.CandidateIndex < b.CandidateIndex
	})
	return fr
}

// MergeFrontiers combines the per-shard results of one sharded
// Frontier sweep over disjoint shards into exactly the unsharded
// surface: points re-filter for dominance across shards, exact
// coordinate ties collapse to the lowest candidate index, and the
// counters sum. Nil entries (shards that returned nothing) are
// skipped; merging zero results yields an empty surface.
func MergeFrontiers(knobs []Knob, frs []*FrontierResult) *FrontierResult {
	var set frontierSet
	var tally searchTally
	for _, fr := range frs {
		if fr == nil {
			continue
		}
		for i := range fr.Points {
			p := &fr.Points[i]
			set.add(fpoint{idx: p.CandidateIndex, rt: p.RecoveryTime, dl: p.DataLoss, out: p.Outlays})
		}
		tally.evals += fr.Evaluations
		tally.pruned += fr.CandidatesPruned
		tally.bounds += fr.BoundsComputed
	}
	return assembleFrontier(&set, knobs, tally)
}
