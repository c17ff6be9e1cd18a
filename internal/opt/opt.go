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
// Candidates on the slow path — the full-evaluation fallback of
// coordinate descent, and the slow rows of the exhaustive and frontier
// sweep (every candidate of a slice too small to compile, or whose
// compilation is refused, plus any a compiled space cannot carry) — are
// built with a structural deep copy (core.Design.Clone) instead of a
// config-JSON round trip, about a 10x cut in per-candidate cost, since
// the clone used to dominate the evaluation. A compiled sweep builds no
// design per candidate, and its one-time compile applies knob options
// to one copy of the base per worker, reset in place between options
// (compile.go). Sweeps spread their candidates over a bounded
// worker pool. Coordinate descent scores each knob's options as one
// batch, mostly through core.DeltaAssessor on the calling goroutine,
// and a memo keyed by the knob-choice vector means it never re-scores a
// vector it has seen. Parallel and serial searches return
// byte-identical Solutions: ties break to the lowest choice index, and
// the memo makes the evaluation set independent of the worker count.
package opt

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

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
	// Revertible declares that Apply writes all of the state it
	// controls, whatever the option and whatever the design holds, and
	// reads only state that the base design or the knobs before it in
	// the choice vector set. Applying a full choice vector (all knobs,
	// in knob order) over a design that had any other vector applied
	// then leaves exactly the state a fresh clone would have, and so
	// does re-applying only the knobs from the first whose option
	// changed: the knobs before it would read and write what they did
	// last time. When every knob in a search declares this, the
	// exhaustive enumerator reuses one cloned design per worker,
	// re-applying choices in place, instead of cloning per candidate,
	// and compile walks a group of such knobs like an odometer.
	// RetCntKnob qualifies: the cycle period it reads comes from primary
	// windows only a knob before it may set. Knobs that read-and-adjust
	// what they themselves write (e.g. AccWKnob's propagation-window
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

// checkKnobs rejects an empty knob list and any knob missing its name,
// options or Apply function.
func checkKnobs(knobs []Knob) error {
	if len(knobs) == 0 {
		return ErrNoKnobs
	}
	for _, k := range knobs {
		if k.Name == "" || len(k.Options) == 0 || k.Apply == nil {
			return fmt.Errorf("%w: %q", ErrBadKnob, k.Name)
		}
	}
	return nil
}

// validate checks the shared Tune/Exhaustive preconditions and resolves
// the default objective.
func validate(knobs []Knob, scenarios []failure.Scenario, objective Objective) (Objective, error) {
	if err := checkKnobs(knobs); err != nil {
		return nil, err
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

// applyScratch builds one candidate on a worker's scratch design, which
// *scratch keeps from candidate to candidate (nil before the first).
// With reuse set (every knob Revertible) the choice is applied over the
// copy of the base made for the worker's first candidate; otherwise the
// base is copied into the scratch design again for each candidate
// (core.Design.CloneInto), which leaves what a fresh clone holds.
func applyScratch(scratch **core.Design, base *core.Design, knobs []Knob, reuse bool, choice []int) (*core.Design, error) {
	d := *scratch
	if d == nil || !reuse {
		if d == nil {
			d = new(core.Design)
		}
		if err := base.CloneInto(d); err != nil {
			return nil, fmt.Errorf("opt: %w", err)
		}
		*scratch = d
	}
	if err := applyChoiceTo(d, knobs, choice); err != nil {
		return nil, err
	}
	return d, nil
}

// scoreCandidate is the reference scoring path the tests hold the fast
// ones to: build the choice vector's candidate on a fresh clone and
// score its evaluation via whatif.EvaluateOne.
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

// descend is the memoized coordinate descent behind TuneWorkers and
// TuneScored. Each pass sweeps the knobs in order and scores every
// option of the knob under sweep as one batch, the other knobs held at
// their incumbents; the best option becomes the incumbent, ties keeping
// the incumbent and then the lowest option index. Descent stops when a
// full pass improves nothing.
//
// A batch looks each choice vector up in a memo keyed by the vector;
// every hit, the incumbent's own included, counts in MemoHits. score
// receives the vectors the memo has not seen, in batch order, and must
// set scores[i] for trials[i]; Evaluations counts them. The set of
// vectors scored therefore depends only on the scores, never on how
// score spreads its work.
func descend(base *core.Design, knobs []Knob, score func(trials [][]int, scores []units.Money) error) (*Solution, error) {
	sol := &Solution{CandidateIndex: -1}
	memo := make(map[string]units.Money)
	scoreBatch := func(trials [][]int) ([]units.Money, error) {
		scores := make([]units.Money, len(trials))
		var misses [][]int
		var at []int // batch position of each miss
		for i, tr := range trials {
			if s, ok := memo[choiceKey(tr)]; ok {
				scores[i] = s
				sol.MemoHits++
			} else {
				misses, at = append(misses, tr), append(at, i)
			}
		}
		missScores := make([]units.Money, len(misses))
		if err := score(misses, missScores); err != nil {
			return nil, err
		}
		for j, i := range at {
			scores[i] = missScores[j]
			memo[choiceKey(misses[j])] = missScores[j]
		}
		sol.Evaluations += len(misses)
		return scores, nil
	}

	current := make([]int, len(knobs)) // incumbent option per knob
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
			for oi := range trials {
				trials[oi] = append([]int(nil), current...)
				trials[oi][ki] = oi
			}
			scores, err := scoreBatch(trials)
			if err != nil {
				return nil, err
			}
			bestOpt := current[ki]
			for oi, s := range scores {
				if oi != current[ki] && s < best {
					best, bestOpt, improved = s, oi, true
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

// Tune runs coordinate descent from the base design on all CPUs; see
// TuneWorkers.
func Tune(base *core.Design, knobs []Knob, scenarios []failure.Scenario, objective Objective) (*Solution, error) {
	return TuneWorkers(base, knobs, scenarios, objective, 0)
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
// base, or a probe disagreed with the full evaluator), are built and
// evaluated in full, concurrently on at most workers goroutines
// (anything < 1 means runtime.NumCPU()). When every knob is Revertible,
// the incremental path re-applies each option to one cloned scratch
// design for the whole descent. The result is byte-identical for every
// worker count: ties keep the incumbent, then prefer the lowest option
// index, exactly as the serial scan did.
func TuneWorkers(base *core.Design, knobs []Knob, scenarios []failure.Scenario, objective Objective, workers int) (*Solution, error) {
	objective, err := validate(knobs, scenarios, objective)
	if err != nil {
		return nil, err
	}
	reuse := allRevertible(knobs)

	// Incremental scoring: most Tune misses differ from the base by a
	// handful of knob values, which core.DeltaAssessor re-assesses
	// without rebuilding the whole system. The first few delta scores
	// are probe-verified against the full evaluator; a divergence turns
	// the path off (delta = nil) for the rest of the descent, as does a
	// base no assessor can be built for. Scores are bit-identical either
	// way, so Solutions do not change.
	delta, err := core.NewDeltaAssessor(base, scenarios)
	if err != nil {
		delta = nil
	}
	var (
		scratch *core.Design
		res     whatif.Result
		probes  int
		// The delta probes' reference builds and assessments.
		probeSys     core.System
		probeScratch core.Scratch
	)
	type fullAcc struct {
		scratch *core.Design
		eval    whatif.Evaluator
		res     whatif.Result
	}
	return descend(base, knobs, func(trials [][]int, scores []units.Money) error {
		var full []int // the trials left to the full evaluator
		for i, tr := range trials {
			if delta == nil {
				full = append(full, i)
				continue
			}
			d, err := applyScratch(&scratch, base, knobs, reuse, tr)
			if err != nil {
				return err
			}
			out, briefs, ok := delta.AssessDelta(d)
			if ok && probes < tuneDeltaProbes {
				probes++
				if core.Probe(&probeSys, &probeScratch, d, scenarios, out, briefs) != nil {
					delta, ok = nil, false
				}
			}
			if !ok {
				full = append(full, i)
				continue
			}
			res.SetBriefs(base.Name, out, scenarios, briefs)
			scores[i] = objective(res)
		}
		if len(full) == 0 {
			return nil
		}
		fold := func(a *fullAcc, j int) (*fullAcc, error) {
			d, err := applyScratch(&a.scratch, base, knobs, reuse, trials[full[j]])
			if err != nil {
				return a, err
			}
			a.eval.EvaluateInto(d, scenarios, &a.res)
			scores[full[j]] = objective(a.res)
			return a, nil
		}
		_, err := parallel.Reduce(workers, len(full), func() *fullAcc { return &fullAcc{} }, fold,
			func(a, _ *fullAcc) *fullAcc { return a })
		return err
	})
}
