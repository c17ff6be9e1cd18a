package opt

import (
	"fmt"
	"sync/atomic"

	"stordep/internal/core"
	"stordep/internal/failure"
	"stordep/internal/parallel"
	"stordep/internal/whatif"
)

// This file holds the one enumeration loop behind ExhaustiveOpts and
// Frontier: a batched sweep over the candidate slice [lo, hi) that
// folds every retired candidate into a per-worker accumulator — the
// argmin with its bound pruner, or the streaming non-dominated set.
//
// A batch's rows come from the compiled tables (compile.go) through
// core's batch kernel. A row the tables cannot carry is a slow row:
// the worker clones the base (or reuses its scratch design when every
// knob is Revertible), applies the knobs and evaluates the candidate
// with whatif.Evaluator. A slice that was not compiled — too small to
// pay for compilation, or refused by it — runs every candidate as a
// slow row, each its own work item, so small slices keep their split
// across workers.

// accumulator is one sweep worker's fold over the candidates it
// retires. Implementations embed a worker, which carries the sweep's
// own per-worker state.
type accumulator interface {
	state() *worker
	// prune reports whether every candidate of [lo, hi) may be retired
	// unassessed, and whether a bound was computed to decide it.
	prune(lo, hi int) (bounded, pruned bool)
	// addResult folds candidate idx's assessment.
	addResult(idx int, res *whatif.Result)
	// merge folds another worker's accumulator, of the same concrete
	// type, into this one.
	merge(accumulator)
}

// sweep is one search's enumeration plan, decided by newSweep.
type sweep struct {
	base    *core.Design
	knobs   []Knob
	scs     []failure.Scenario
	workers int
	lo, hi  int
	reuse   bool           // every knob is Revertible: one scratch design per worker
	cs      *compiledSpace // nil: no tables, every candidate is a slow row
	batch   int            // candidates per work item; 1 without tables
	// progress, when non-nil, advances by a work item's size once the
	// item is retired.
	progress *atomic.Int64
}

// newSweep is the preamble ExhaustiveOpts and Frontier share: it checks
// the shard, sizes the space against the budget, and compiles the slice
// when it holds more than compileProbes candidates. Compilation's own
// verify assesses up to compileProbes candidates the slow way, so on a
// smaller slice it can only add work. A refused compilation leaves the
// sweep without tables. A compiled sweep holds an arena from the pool
// until release.
//
// batch > 0 is a hook for tests: compile whatever the slice size, and
// assess batch candidates per step instead of defaultBatchSize.
func newSweep(base *core.Design, knobs []Knob, scs []failure.Scenario, workers, budget int, shard Shard, batch int) (*sweep, error) {
	if err := shard.Validate(); err != nil {
		return nil, err
	}
	space, err := spaceSize(knobs)
	if err != nil {
		return nil, err
	}
	if budget > 0 && space > budget {
		return nil, fmt.Errorf("%w: %d combinations > budget %d; raise the budget or shard the space",
			ErrSpaceTooLarge, space, budget)
	}
	lo, hi := shard.bounds(space)
	sw := &sweep{
		base:    base,
		knobs:   knobs,
		scs:     scs,
		workers: workers,
		lo:      lo,
		hi:      hi,
		reuse:   allRevertible(knobs),
		batch:   1,
	}
	n := hi - lo
	if n == 0 || n <= compileProbes && batch <= 0 {
		return sw, nil
	}
	var cs *compiledSpace
	if profilingEnabled() {
		doPhase(labelsCompile, func() { cs, err = compileSpace(base, knobs, scs, workers) })
	} else {
		cs, err = compileSpace(base, knobs, scs, workers)
	}
	if err != nil {
		// Compilation is an accelerator, never a correctness dependency:
		// the error only says why every candidate runs slow.
		return sw, nil
	}
	if batch <= 0 {
		batch = defaultBatchSize
	}
	sw.cs, sw.batch = cs, min(batch, n)
	return sw, nil
}

// release returns a compiled sweep's arena to the pool once the sweep
// has ended; nothing the search returns points into it.
func (sw *sweep) release() {
	if sw.cs != nil {
		sw.cs.release()
	}
}

// worker is the state a sweep keeps per worker inside its accumulator:
// the worker's share of the tally and its reusable row machinery — the
// choice decode buffer, the compiled path's batch scratch (its arena
// slot: columnar block, fill scratch, slow marks), and the slow path's
// scratch design and evaluator with its Result.
type worker struct {
	sw      *sweep
	tally   SearchStats
	choice  []int // nil until the worker's first work item
	sl      *slot // the compiled path's batch scratch; nil without tables
	scratch *core.Design
	eval    whatif.Evaluator
	res     whatif.Result
}

// newWorker returns a worker for sw, holding the next slot dealt when
// the sweep is compiled.
func (sw *sweep) newWorker() worker {
	w := worker{sw: sw}
	if sw.cs != nil {
		w.sl = sw.cs.ar.draw()
	}
	return w
}

func (w *worker) state() *worker { return w }

// run sweeps [lo, hi) in work items of sw.batch candidates on up to
// sw.workers goroutines, each folding into an accumulator from newAcc,
// and returns the merged accumulator and tally. newAcc's accumulators
// must embed a worker for sw from newWorker, which on a compiled sweep
// hands each one its own arena slot. Rows are folded in ascending index
// order within a work item, and work items keep parallel.Reduce's
// lowest-index-first errors, so a failing sweep returns the error of
// its lowest failing candidate.
func (sw *sweep) run(newAcc func() accumulator) (accumulator, SearchStats, error) {
	items := (sw.hi - sw.lo + sw.batch - 1) / sw.batch
	if sw.cs != nil {
		sw.cs.ar.deal(min(parallel.Workers(sw.workers), items), sw.cs)
	}
	merge := mergeWorkers
	if profilingEnabled() {
		merge = func(a, b accumulator) accumulator {
			doPhase(labelsReduce, func() { a = mergeWorkers(a, b) })
			return a
		}
	}
	final, err := parallel.Reduce(sw.workers, items, newAcc, step, merge)
	if err != nil {
		return nil, SearchStats{}, err
	}
	return final, final.state().tally, nil
}

// step retires work item `item`: the batch is pruned wholesale, or each
// of its rows is assessed — from the tables, or as a slow row — and
// folded into a. step and mergeWorkers are plain functions rather than
// closures over the sweep, so handing them to parallel.Reduce allocates
// nothing.
func step(a accumulator, item int) (accumulator, error) {
	w := a.state()
	sw := w.sw
	if w.choice == nil {
		if sl := w.sl; sl != nil {
			sl.batchCols(sw.batch)
			sl.slow = sized(sl.slow, sw.batch)
			w.choice = sl.choice
		} else {
			w.choice = make([]int, len(sw.knobs))
		}
	}
	blo := sw.lo + item*sw.batch
	m := min(sw.batch, sw.hi-blo)
	bounded, pruned := a.prune(blo, blo+m)
	if bounded {
		w.tally.BoundsComputed++
	}
	if pruned {
		w.tally.Pruned += m
	} else {
		if sw.cs != nil {
			// The profiled and unprofiled paths are spelled out
			// separately so the common (disabled) case pays no pprof.Do
			// call per step.
			if profilingEnabled() {
				doPhase(labelsBatch, func() { w.fillAndAssess(blo, m) })
			} else {
				w.fillAndAssess(blo, m)
			}
		}
		ns := len(sw.scs)
		for r := 0; r < m; r++ {
			idx := blo + r
			if sw.cs == nil || w.sl.slow[r] {
				if err := w.slowRow(idx); err != nil {
					return a, err
				}
			} else {
				// Knobs that could rename the design are unrepresentable,
				// so fast-path candidates keep the base name — exactly
				// what a slow row would record.
				w.res.SetBriefs(sw.base.Name, w.sl.cols.OutlaysTotal[r], sw.scs, w.sl.bs.Briefs[r*ns:(r+1)*ns])
			}
			a.addResult(idx, &w.res)
			w.tally.Assessed++
		}
	}
	if sw.progress != nil {
		sw.progress.Add(int64(m))
	}
	return a, nil
}

// mergeWorkers folds worker b's accumulator and tally into a's.
func mergeWorkers(a, b accumulator) accumulator {
	a.merge(b)
	t, u := &a.state().tally, b.state().tally
	t.Assessed += u.Assessed
	t.Pruned += u.Pruned
	t.BoundsComputed += u.BoundsComputed
	return a
}

// fillAndAssess fills rows [blo, blo+m) from the compiled tables,
// marking the ones they cannot carry slow, and assesses the batch.
func (w *worker) fillAndAssess(blo, m int) {
	cs, sl := w.sw.cs, w.sl
	for r := 0; r < m; r++ {
		decodeChoice(w.choice, cs.knobs, blo+r)
		sl.slow[r] = cs.fill(&sl.fs, sl.cols, r, w.choice)
	}
	cs.kern.AssessBatch(m, sl.cols, &sl.bs)
}

// slowRow assesses candidate idx into w.res without tables: build it on
// the worker's scratch design (applyScratch) and evaluate.
func (w *worker) slowRow(idx int) error {
	sw := w.sw
	decodeChoice(w.choice, sw.knobs, idx)
	var d *core.Design
	var err error
	if profilingEnabled() {
		doPhase(labelsBuild, func() { d, err = applyScratch(&w.scratch, sw.base, sw.knobs, sw.reuse, w.choice) })
		if err != nil {
			return err
		}
		doPhase(labelsAssess, func() { w.eval.EvaluateInto(d, sw.scs, &w.res) })
		return nil
	}
	if d, err = applyScratch(&w.scratch, sw.base, sw.knobs, sw.reuse, w.choice); err != nil {
		return err
	}
	w.eval.EvaluateInto(d, sw.scs, &w.res)
	return nil
}
