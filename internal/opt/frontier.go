package opt

import (
	"sort"
	"time"

	"stordep/internal/core"
	"stordep/internal/failure"
	"stordep/internal/units"
	"stordep/internal/whatif"
)

// This file implements the Pareto frontier mode of the knob-space
// search: instead of folding candidates into a scalar argmin, Frontier
// streams the whole space and keeps the full RT/DL/cost non-dominated
// surface. Memory stays O(frontier + workers): each worker maintains a
// streaming non-dominated set over its slice of the enumeration, and
// the sets merge exactly like the argmin accumulators do.

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
// of the searched slice is assessed, so Evaluations equals the slice
// size.
type FrontierResult struct {
	// Points is sorted by ascending Outlays, then RecoveryTime, then
	// DataLoss, then CandidateIndex. Distinct points never share all
	// three coordinates: exact ties collapse to the lowest candidate
	// index.
	Points      []FrontierPoint
	Evaluations int
}

// FrontierOpts configures Frontier. The zero value searches the whole
// space on all CPUs.
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

// frontierAcc is Frontier's sweep accumulator: one worker's streaming
// non-dominated set.
type frontierAcc struct {
	worker
	set frontierSet
}

// prune never retires a batch: the frontier sweep assesses every
// candidate.
func (a *frontierAcc) prune(int, int) (bounded, pruned bool) { return false, false }

func (a *frontierAcc) addResult(idx int, res *whatif.Result) { a.set.addResult(idx, res) }

func (a *frontierAcc) merge(b accumulator) { a.set.merge(&b.(*frontierAcc).set) }

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
// Enumeration is the batched sweep ExhaustiveOpts runs (sweep.go),
// with the compiled tables when the slice compiles and slow rows
// otherwise. No Objective is involved — the frontier is the set a
// decision-maker picks from before committing to one.
func Frontier(base *core.Design, knobs []Knob, scenarios []failure.Scenario, opts FrontierOpts) (*FrontierResult, error) {
	return frontier(base, knobs, scenarios, opts, 0)
}

// frontier is Frontier with newSweep's batch hook for tests.
func frontier(base *core.Design, knobs []Knob, scenarios []failure.Scenario, opts FrontierOpts, batch int) (*FrontierResult, error) {
	if _, err := validate(knobs, scenarios, nil); err != nil {
		return nil, err
	}
	sw, err := newSweep(base, knobs, scenarios, opts.Workers, opts.Budget, opts.Shard, batch)
	if err != nil {
		return nil, err
	}
	defer sw.release()
	acc, tally, err := sw.run(func() accumulator { return &frontierAcc{worker: sw.newWorker()} })
	if err != nil {
		return nil, err
	}
	return assembleFrontier(&acc.(*frontierAcc).set, knobs, tally.Assessed), nil
}

// assembleFrontier decodes each surviving point's choices and sorts
// the surface canonically.
func assembleFrontier(set *frontierSet, knobs []Knob, evals int) *FrontierResult {
	fr := &FrontierResult{Evaluations: evals}
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
// evaluation counts sum. Nil entries (shards that returned nothing) are
// skipped; merging zero results yields an empty surface.
func MergeFrontiers(knobs []Knob, frs []*FrontierResult) *FrontierResult {
	var set frontierSet
	evals := 0
	for _, fr := range frs {
		if fr == nil {
			continue
		}
		for i := range fr.Points {
			p := &fr.Points[i]
			set.add(fpoint{idx: p.CandidateIndex, rt: p.RecoveryTime, dl: p.DataLoss, out: p.Outlays})
		}
		evals += fr.Evaluations
	}
	return assembleFrontier(&set, knobs, evals)
}
