// Package opt is the automated-design outer loop the paper positions its
// models to serve (§1: "provide the inner-most loop of an automated
// optimization loop to choose the 'best' solution for a given set of
// business requirements"; the companion work is Keeton et al., "Designing
// for disasters", FAST 2004).
//
// The optimizer is deliberately simple: coordinate descent over named
// design knobs. Each knob rewrites one aspect of a candidate design
// (a policy window, a retention count, a technique substitution, a link
// count); the evaluator scores the candidate across the imposed failure
// scenarios; descent keeps the best value per knob and sweeps until a
// full pass yields no improvement. The analytic models evaluate a design
// in tens of microseconds, so even broad grids are interactive.
//
// Candidates on the slow path — coordinate descent's, and the slow rows
// of the exhaustive and frontier sweep (every candidate of a slice too
// small to compile, or whose compilation is refused, plus any a
// compiled space cannot carry) — are built with a structural deep copy
// (core.Design.Clone) instead of a config-JSON round trip, about a 10x
// cut in per-candidate cost, since the clone used to dominate the
// evaluation. A compiled sweep builds no design per candidate, and its
// one-time compile applies every knob option to one copy of the base
// per worker, reset in place between options (compile.go). Every option of the knob
// under sweep is scored concurrently on a bounded worker pool. A memo
// keyed by the knob-choice vector means coordinate descent never
// re-scores an incumbent across sweeps. Parallel and serial searches
// return byte-identical Solutions: ties break to the lowest choice
// index, and the memo makes the evaluation set independent of the
// worker count.
package opt

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"

	"stordep/internal/core"
	"stordep/internal/failure"
	"stordep/internal/parallel"
	"stordep/internal/units"
	"stordep/internal/whatif"
)

// Knob is one tunable aspect of a design. Apply rewrites a fresh clone of
// the design for the given option index; Options names each choice for
// reports.
type Knob struct {
	// Name labels the knob ("vault accW", "WAN links").
	Name string
	// Options are the human-readable values, one per choice.
	Options []string
	// Apply rewrites the design in place for option i. It must tolerate
	// any design produced by the other knobs, and must be safe to call
	// on distinct designs concurrently (rewrite only the design it is
	// given — every built-in knob constructor qualifies). What it writes
	// must belong to the design alone: a pointer it installs as is
	// would be shared by every design picking the option, and compile
	// reuses one design across options (PolicyKnob clones its policies
	// for this reason).
	Apply func(d *core.Design, i int) error
	// Revertible declares that Apply fully overwrites the state it
	// controls without reading anything another application of this
	// knob set may have changed: applying option j to a design that
	// previously had any full choice vector applied (all knobs, in knob
	// order) leaves exactly the state a fresh clone with option j would
	// have. When every knob in a search declares this, the exhaustive
	// enumerator reuses one cloned design per worker, re-applying
	// choices in place, instead of cloning per candidate. Knobs that
	// read-and-adjust current values (e.g. AccWKnob's propagation-window
	// clamp) must leave it false; the enumerator then falls back to a
	// clone per candidate.
	Revertible bool
}

// Objective scores one candidate's evaluation; lower is better. Designs
// that fail to build are scored +Inf automatically. Objectives run
// concurrently on distinct results, so they must not mutate shared
// state.
type Objective func(whatif.Result) units.Money

// WorstTotalObjective scores by the worst-scenario total cost — the
// design-for-the-hypothesized-disaster criterion used in Table 7.
func WorstTotalObjective() Objective {
	return func(r whatif.Result) units.Money { return r.WorstTotal() }
}

// ExpectedObjective scores by frequency-weighted expected annual cost.
func ExpectedObjective(freqs whatif.Frequencies) Objective {
	return func(r whatif.Result) units.Money { return whatif.ExpectedAnnualCost(r, freqs) }
}

// ConstrainedOutlayObjective scores by outlays among designs meeting the
// RTO/RPO objectives under every scenario, +Inf otherwise: "the cheapest
// conforming design".
func ConstrainedOutlayObjective(obj whatif.Objectives) Objective {
	return func(r whatif.Result) units.Money {
		if r.Err != nil || len(r.Outcomes) == 0 {
			return units.Money(math.Inf(1))
		}
		for _, o := range r.Outcomes {
			if !obj.Meets(o) {
				return units.Money(math.Inf(1))
			}
		}
		return r.Outlays
	}
}

// Choice records one knob's selected option in a solution.
type Choice struct {
	Knob   string
	Option string
}

// Solution is the optimizer's result.
type Solution struct {
	// Design is the tuned design (a deep clone; the input is untouched).
	Design *core.Design
	// Score is the objective value of the tuned design.
	Score units.Money
	// Choices records the selected option per knob, in knob order.
	Choices []Choice
	// Evaluations counts design evaluations actually performed (memo
	// hits are counted separately in MemoHits).
	Evaluations int
	// MemoHits counts candidate scores served from the evaluation memo
	// instead of being recomputed.
	MemoHits int
	// Passes counts full knob sweeps until convergence.
	Passes int
	// CandidateIndex is the winning candidate's global index in the
	// exhaustive enumeration order (mixed-radix over the knob options,
	// last knob least significant). It is what makes independently run
	// shards mergeable with a deterministic tie-break (see MergeShards).
	// Coordinate descent (Tune) does not enumerate, so it records -1.
	CandidateIndex int
	// CandidatesPruned counts candidates eliminated wholesale by
	// bound-guided pruning without being assessed. Evaluations plus
	// CandidatesPruned equals the searched slice size. Always 0 for
	// Tune and for unpruned searches.
	CandidatesPruned int
	// BoundsComputed counts subtree lower bounds actually evaluated by
	// the pruner (batches skipped because no incumbent was known yet are
	// not counted).
	BoundsComputed int
}

// Optimizer configuration errors.
var (
	ErrNoKnobs     = errors.New("opt: at least one knob required")
	ErrBadKnob     = errors.New("opt: knob needs a name, options and an Apply function")
	ErrNoScenarios = errors.New("opt: at least one scenario required")
	ErrNoFeasible  = errors.New("opt: no knob combination produced a feasible design")
)

// tuneDeltaProbes is how many incremental AssessDelta results TuneWorkers
// probes against the full Build-and-assess path (core.Probe) before
// trusting the delta path for the rest of the descent (on top of the
// bit-exact base self-check NewDeltaAssessor already performs). Any
// divergence permanently disables incremental scoring for the run.
const tuneDeltaProbes = 2

// maxPasses bounds coordinate descent; with monotone improvement it
// always converges far earlier.
const maxPasses = 16

// Clone deep-copies a design so knobs can mutate candidates freely. The
// copy is a hand-written structural clone (core.Design.Clone) — roughly
// two orders of magnitude cheaper than the config-JSON round trip it
// replaced, which used to dominate the optimizer's per-candidate cost.
// Only designs whose techniques support structural cloning can be
// optimized (all built-in techniques do); a property test validates the
// structural copy against the config round trip on randomized designs.
func Clone(d *core.Design) (*core.Design, error) {
	out, err := d.Clone()
	if err != nil {
		return nil, fmt.Errorf("opt: %w", err)
	}
	return out, nil
}

// validate checks the shared Tune/Exhaustive preconditions and resolves
// the default objective.
func validate(knobs []Knob, scenarios []failure.Scenario, objective Objective) (Objective, error) {
	if len(knobs) == 0 {
		return nil, ErrNoKnobs
	}
	for _, k := range knobs {
		if k.Name == "" || len(k.Options) == 0 || k.Apply == nil {
			return nil, fmt.Errorf("%w: %q", ErrBadKnob, k.Name)
		}
	}
	if len(scenarios) == 0 {
		return nil, ErrNoScenarios
	}
	if objective == nil {
		objective = WorstTotalObjective()
	}
	return objective, nil
}

// applyChoice builds one candidate: a structural clone of the base with
// every knob's selected option applied.
func applyChoice(base *core.Design, knobs []Knob, choice []int) (*core.Design, error) {
	d, err := Clone(base)
	if err != nil {
		return nil, err
	}
	if err := applyChoiceTo(d, knobs, choice); err != nil {
		return nil, err
	}
	return d, nil
}

// applyChoiceTo applies every knob's selected option to d in knob order.
func applyChoiceTo(d *core.Design, knobs []Knob, choice []int) error {
	for i, k := range knobs {
		if err := k.Apply(d, choice[i]); err != nil {
			return fmt.Errorf("opt: knob %q option %d: %w", k.Name, choice[i], err)
		}
	}
	return nil
}

// scoreCandidate is the shared scoring path of Tune and Exhaustive:
// build the choice vector's candidate and score its evaluation directly
// via whatif.EvaluateOne — no per-candidate slice wrapping, no repeated
// error re-wrapping.
func scoreCandidate(base *core.Design, knobs []Knob, scenarios []failure.Scenario, objective Objective, choice []int) (units.Money, error) {
	d, err := applyChoice(base, knobs, choice)
	if err != nil {
		return 0, err
	}
	return objective(whatif.EvaluateOne(d, scenarios)), nil
}

// choiceKey encodes a knob-choice vector as a memo key.
func choiceKey(choice []int) string {
	var b strings.Builder
	for _, c := range choice {
		b.WriteString(strconv.Itoa(c))
		b.WriteByte(',')
	}
	return b.String()
}

// Tune runs coordinate descent from the base design on all CPUs; see
// TuneWorkers.
func Tune(base *core.Design, knobs []Knob, scenarios []failure.Scenario, objective Objective) (*Solution, error) {
	return TuneWorkers(base, knobs, scenarios, objective, 0)
}

// tuneAcc is one worker's reusable scoring machinery for TuneWorkers:
// the optional Revertible scratch design plus the allocation-lean
// evaluator with its Result buffer. Accs are pooled across sweeps so
// the scratch lives for the whole descent, not one chunk of one sweep.
type tuneAcc struct {
	scratch *core.Design
	eval    whatif.Evaluator
	res     whatif.Result
}

// TuneWorkers runs coordinate descent from the base design: each pass
// sweeps the knobs in order, evaluating every option for the current
// knob with the other knobs held at their incumbent values, and keeps
// the best. Descent stops when a full pass improves nothing.
//
// Already-seen choice vectors — the incumbent, and revisited options on
// later passes — are served from a memo. The rest are scored by
// core.DeltaAssessor's incremental path, serially on the calling
// goroutine, while that path is active. Only the options it refuses,
// and every option once it is off (no assessor could be built for the
// base, or a probe disagreed with the full evaluator), are scored
// concurrently on at most workers goroutines (anything < 1 means
// runtime.NumCPU()). When every knob is Revertible, each scoring
// accumulator keeps one cloned scratch design that is reused across
// every sweep of the descent. The result is byte-identical for every
// worker count: ties keep the incumbent, then prefer the lowest option
// index, exactly as the serial scan did.
func TuneWorkers(base *core.Design, knobs []Knob, scenarios []failure.Scenario, objective Objective, workers int) (*Solution, error) {
	objective, err := validate(knobs, scenarios, objective)
	if err != nil {
		return nil, err
	}

	sol := &Solution{CandidateIndex: -1}
	memo := make(map[string]units.Money)
	current := make([]int, len(knobs)) // incumbent option per knob
	reuse := allRevertible(knobs)

	// The acc pool outlives the per-sweep Reduce calls: a sweep checks
	// accs out, its merge returns them, and the next sweep reuses their
	// scratch designs and Result buffers instead of re-cloning.
	var poolMu sync.Mutex
	var pool []*tuneAcc
	checkout := func() *tuneAcc {
		poolMu.Lock()
		defer poolMu.Unlock()
		if n := len(pool); n > 0 {
			a := pool[n-1]
			pool = pool[:n-1]
			return a
		}
		return &tuneAcc{}
	}
	checkin := func(a *tuneAcc) {
		poolMu.Lock()
		pool = append(pool, a)
		poolMu.Unlock()
	}

	// Incremental scoring: most Tune misses differ from the base by a
	// handful of knob values, which core.DeltaAssessor re-assesses
	// without rebuilding the whole system. The first few delta scores
	// are probe-verified against the legacy evaluator; any divergence,
	// or a change outside the delta protocol, falls back to the full
	// Build-and-assess path. Scores are bit-identical either way, so
	// Solutions (Score, Choices, Evaluations, MemoHits) do not change.
	var (
		delta        *core.DeltaAssessor
		deltaScratch *core.Design
		deltaRes     whatif.Result
		deltaProbes  int
		deltaState   int // 0 = untried, 1 = active, 2 = disabled
	)

	// scoreBatch scores choice vectors in input order: memo hits are
	// served immediately, misses are evaluated on the pool and memoized.
	// The set of vectors evaluated is therefore independent of the
	// worker count, keeping Evaluations/MemoHits deterministic. Misses
	// write disjoint missScores slots, so the fold needs no locking.
	scoreBatch := func(trials [][]int) ([]units.Money, error) {
		scores := make([]units.Money, len(trials))
		misses := make([]int, 0, len(trials))
		for i, tr := range trials {
			if s, ok := memo[choiceKey(tr)]; ok {
				scores[i] = s
				sol.MemoHits++
			} else {
				misses = append(misses, i)
			}
		}
		missScores := make([]units.Money, len(misses))
		// legacy collects the positions in misses still needing the full
		// evaluator after the incremental pass.
		legacy := make([]int, 0, len(misses))
		if len(misses) > 0 && deltaState == 0 {
			deltaState = 2
			if da, err := core.NewDeltaAssessor(base, scenarios); err == nil {
				delta, deltaState = da, 1
			}
		}
		if deltaState == 1 {
			for j, mi := range misses {
				if deltaState != 1 { // probe mismatch mid-batch
					legacy = append(legacy, j)
					continue
				}
				d := deltaScratch
				if d == nil {
					fresh, err := Clone(base)
					if err != nil {
						return nil, err
					}
					d = fresh
					if reuse {
						deltaScratch = fresh
					}
				}
				if err := applyChoiceTo(d, knobs, trials[mi]); err != nil {
					return nil, err
				}
				out, briefs, ok := delta.AssessDelta(d)
				if !ok {
					legacy = append(legacy, j)
					continue
				}
				if deltaProbes < tuneDeltaProbes {
					deltaProbes++
					if core.Probe(d, scenarios, out, briefs) != nil {
						deltaState = 2
						legacy = append(legacy, j)
						continue
					}
				}
				deltaRes.SetBriefs(base.Name, out, scenarios, briefs)
				missScores[j] = objective(deltaRes)
			}
		} else {
			for j := range misses {
				legacy = append(legacy, j)
			}
		}
		if len(legacy) > 0 {
			fold := func(a *tuneAcc, i int) (*tuneAcc, error) {
				j := legacy[i]
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
				if err := applyChoiceTo(d, knobs, trials[misses[j]]); err != nil {
					return a, err
				}
				a.eval.EvaluateInto(d, scenarios, &a.res)
				missScores[j] = objective(a.res)
				return a, nil
			}
			merge := func(a, b *tuneAcc) *tuneAcc {
				checkin(b)
				return a
			}
			final, err := parallel.Reduce(workers, len(legacy), checkout, fold, merge)
			if err != nil {
				return nil, err
			}
			checkin(final)
		}
		for j, mi := range misses {
			scores[mi] = missScores[j]
			memo[choiceKey(trials[mi])] = missScores[j]
		}
		sol.Evaluations += len(misses)
		return scores, nil
	}

	first, err := scoreBatch([][]int{current})
	if err != nil {
		return nil, err
	}
	best := first[0]
	for pass := 0; pass < maxPasses; pass++ {
		sol.Passes = pass + 1
		improved := false
		for ki, k := range knobs {
			trials := make([][]int, len(k.Options))
			for oi := range k.Options {
				trial := make([]int, len(current))
				copy(trial, current)
				trial[ki] = oi
				trials[oi] = trial
			}
			scores, err := scoreBatch(trials)
			if err != nil {
				return nil, err
			}
			bestOpt := current[ki]
			for oi, s := range scores {
				if oi == current[ki] {
					continue
				}
				if s < best {
					best, bestOpt = s, oi
					improved = true
				}
			}
			current[ki] = bestOpt
		}
		if !improved {
			break
		}
	}

	if math.IsInf(float64(best), 1) {
		return nil, ErrNoFeasible
	}
	tuned, err := applyChoice(base, knobs, current)
	if err != nil {
		return nil, err
	}
	sol.Design = tuned
	sol.Score = best
	for i, k := range knobs {
		sol.Choices = append(sol.Choices, Choice{Knob: k.Name, Option: k.Options[current[i]]})
	}
	return sol, nil
}
