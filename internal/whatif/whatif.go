// Package whatif explores the design space around a storage system
// configuration: it evaluates families of candidate designs against
// failure scenarios, ranks them by overall cost, finds Pareto-optimal
// trade-offs between recovery time, data loss and outlays, and searches
// for the cheapest design meeting recovery objectives (RTO/RPO).
//
// This is the inner loop the paper positions its models for: "provide the
// inner-most loop of an automated optimization loop to choose the best
// solution for a given set of business requirements" (§1, building toward
// the automated design work of [13]).
package whatif

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"stordep/internal/core"
	"stordep/internal/failure"
	"stordep/internal/parallel"
	"stordep/internal/units"
)

// Outcome is one design's evaluation under one scenario.
type Outcome struct {
	Scenario     failure.Scenario
	RecoveryTime time.Duration
	DataLoss     time.Duration
	Penalties    units.Money
	Total        units.Money
	Lost         bool
}

// Result is one candidate design's full evaluation.
type Result struct {
	// Design names the candidate.
	Design string
	// Outlays are the annual outlays (scenario-independent).
	Outlays units.Money
	// Outcomes has one entry per scenario, in input order.
	Outcomes []Outcome
	// Err records designs that failed to build (overloaded devices,
	// invalid configurations); such results rank last.
	Err error
}

// SetBriefs overwrites r with an evaluation of the named design: its
// outlay total and one Outcome per Brief, briefs[i] assessed under
// scs[i]. It is the one Brief-to-Outcome conversion, shared by
// EvaluateInto and the optimizer's fast paths; r's Outcomes capacity is
// reused.
func (r *Result) SetBriefs(design string, outlays units.Money, scs []failure.Scenario, briefs []core.Brief) {
	r.Design, r.Outlays, r.Err = design, outlays, nil
	r.Outcomes = r.Outcomes[:0]
	for i, b := range briefs {
		r.Outcomes = append(r.Outcomes, Outcome{
			Scenario:     scs[i],
			RecoveryTime: b.RecoveryTime,
			DataLoss:     b.DataLoss,
			Penalties:    b.Penalties,
			Total:        b.Total,
			Lost:         b.WholeObjectLost,
		})
	}
}

// WorstTotal returns the highest total cost across scenarios — the
// "design for the hypothesized disaster" criterion. Designs that failed
// to build return +Inf.
func (r *Result) WorstTotal() units.Money {
	if r.Err != nil || len(r.Outcomes) == 0 {
		return units.Money(math.Inf(1))
	}
	worst := r.Outcomes[0].Total
	for _, o := range r.Outcomes[1:] {
		if o.Total > worst {
			worst = o.Total
		}
	}
	return worst
}

// ErrNoScenarios is returned when evaluation is requested without
// scenarios.
var ErrNoScenarios = errors.New("whatif: at least one scenario required")

// Evaluate builds every candidate design and assesses it under every
// scenario, fanning the designs out over all CPUs. Designs that fail to
// build are kept in the results with Err set, so a sweep over aggressive
// parameters reports which points are infeasible rather than aborting.
// Results come back in input order; parallel and serial evaluation are
// indistinguishable.
func Evaluate(designs []*core.Design, scenarios []failure.Scenario) ([]Result, error) {
	return EvaluateWorkers(designs, scenarios, 0)
}

// EvaluateWorkers is Evaluate on a bounded worker pool: workers > 0 caps
// the evaluation goroutines, anything else means runtime.NumCPU().
func EvaluateWorkers(designs []*core.Design, scenarios []failure.Scenario, workers int) ([]Result, error) {
	if len(scenarios) == 0 {
		return nil, ErrNoScenarios
	}
	return parallel.Map(workers, len(designs), func(i int) (Result, error) {
		return EvaluateOne(designs[i], scenarios), nil
	})
}

// EvaluateOne builds and assesses a single candidate — the shared inner
// step of Evaluate and the optimizer's per-candidate scoring path (which
// calls it directly rather than paying a one-element slice round trip
// per candidate). It evaluates on an Evaluator drawn from a pool and
// returned, reset, when the call ends, so concurrent calls draw
// distinct ones and the Result owns its Outcomes.
func EvaluateOne(d *core.Design, scenarios []failure.Scenario) Result {
	var res Result
	e := evaluators.Get().(*Evaluator)
	e.EvaluateInto(d, scenarios, &res)
	e.sys.Reset()
	evaluators.Put(e)
	return res
}

// evaluators pools EvaluateOne's Evaluators.
var evaluators = sync.Pool{New: func() any { return new(Evaluator) }}

// Evaluator is the allocation-lean evaluation path for scoring loops
// that assess one candidate after another: it builds each candidate into
// the one core.System it holds (System.Rebuild), reusing its storage,
// and reuses the model's scratch buffers and the Result's Outcomes
// storage across calls. The System holds a candidate's build only until
// the next EvaluateInto; nothing the Result holds points into it. An
// Evaluator must not be shared between concurrent calls; the zero value
// is ready to use.
type Evaluator struct {
	sys     core.System
	scratch core.Scratch
	briefs  []core.Brief
}

// EvaluateInto evaluates d into *res, producing exactly the Result
// EvaluateOne would, while reusing res's Outcomes capacity and the
// evaluator's System and scratch buffers. The filled Result (including
// its Outcomes slice) is valid until the next EvaluateInto call on the
// same res or Evaluator — objectives and reducers must read it, not
// retain it.
func (e *Evaluator) EvaluateInto(d *core.Design, scenarios []failure.Scenario, res *Result) {
	res.Design = d.Name
	res.Outlays = 0
	res.Outcomes = res.Outcomes[:0]
	res.Err = nil
	if err := e.sys.Rebuild(d); err != nil {
		res.Err = err
		return
	}
	res.Outlays = e.sys.Outlays().Total()
	e.briefs = e.briefs[:0]
	for _, sc := range scenarios {
		b, err := e.sys.AssessBrief(sc, &e.scratch)
		if err != nil {
			res.Err = fmt.Errorf("whatif: scenario %s: %w", sc.DisplayName(), err)
			return
		}
		e.briefs = append(e.briefs, b)
	}
	res.SetBriefs(d.Name, res.Outlays, scenarios, e.briefs)
}

// Rank sorts results by ascending worst-scenario total cost (stable on
// names for determinism). Unbuildable designs sink to the bottom.
func Rank(results []Result) []Result {
	out := make([]Result, len(results))
	copy(out, results)
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i].WorstTotal(), out[j].WorstTotal()
		if a != b {
			return a < b
		}
		return out[i].Design < out[j].Design
	})
	return out
}

// Objectives are recovery objectives for one scenario: the recovery time
// objective (RTO) bounds worst-case recovery time, and the recovery point
// objective (RPO) bounds worst-case recent data loss (§1 of the paper).
type Objectives struct {
	RTO time.Duration
	RPO time.Duration
}

// Meets reports whether an outcome satisfies the objectives.
func (o Objectives) Meets(out Outcome) bool {
	return !out.Lost && out.RecoveryTime <= o.RTO && out.DataLoss <= o.RPO
}

// ErrNoFeasible is returned when no candidate meets the objectives under
// every scenario.
var ErrNoFeasible = errors.New("whatif: no design meets the objectives")

// Cheapest returns the lowest-outlay design whose every outcome meets the
// objectives — the automated-design query: "the cheapest system with RTO
// <= x and RPO <= y under the hypothesized failures".
func Cheapest(results []Result, obj Objectives) (Result, error) {
	best := -1
	for i, r := range results {
		if r.Err != nil || len(r.Outcomes) == 0 {
			continue
		}
		ok := true
		for _, out := range r.Outcomes {
			if !obj.Meets(out) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		if best == -1 || r.Outlays < results[best].Outlays {
			best = i
		}
	}
	if best == -1 {
		return Result{}, fmt.Errorf("%w (RTO %v, RPO %v)", ErrNoFeasible, obj.RTO, obj.RPO)
	}
	return results[best], nil
}

// Point is a design's position in the (recovery time, data loss, outlays)
// trade-off space for one scenario.
type Point struct {
	Design       string
	RecoveryTime time.Duration
	DataLoss     time.Duration
	Outlays      units.Money
}

// dominates reports whether a is at least as good as b on every axis and
// strictly better on at least one.
func dominates(a, b Point) bool {
	if a.RecoveryTime > b.RecoveryTime || a.DataLoss > b.DataLoss || a.Outlays > b.Outlays {
		return false
	}
	return a.RecoveryTime < b.RecoveryTime || a.DataLoss < b.DataLoss || a.Outlays < b.Outlays
}

// Pareto returns the non-dominated designs for the scenario at the given
// index, sorted by ascending outlays. Designs that could not recover are
// excluded.
func Pareto(results []Result, scenarioIndex int) []Point {
	var pts []Point
	for _, r := range results {
		if r.Err != nil || scenarioIndex < 0 || scenarioIndex >= len(r.Outcomes) {
			continue
		}
		o := r.Outcomes[scenarioIndex]
		if o.Lost {
			continue
		}
		pts = append(pts, Point{
			Design:       r.Design,
			RecoveryTime: o.RecoveryTime,
			DataLoss:     o.DataLoss,
			Outlays:      r.Outlays,
		})
	}
	var frontier []Point
	for i, p := range pts {
		dominated := false
		for j, q := range pts {
			if i != j && dominates(q, p) {
				dominated = true
				break
			}
		}
		if !dominated {
			frontier = append(frontier, p)
		}
	}
	sort.Slice(frontier, func(i, j int) bool {
		if frontier[i].Outlays != frontier[j].Outlays {
			return frontier[i].Outlays < frontier[j].Outlays
		}
		return frontier[i].Design < frontier[j].Design
	})
	return frontier
}

// Sweep generates a family of designs from a parameterized constructor.
// Each value in values is passed to build; nil results are skipped. It is
// the scaffolding for link-count sweeps, window sweeps and similar
// one-dimensional explorations.
func Sweep[T any](values []T, build func(T) *core.Design) []*core.Design {
	designs := make([]*core.Design, 0, len(values))
	for _, v := range values {
		if d := build(v); d != nil {
			designs = append(designs, d)
		}
	}
	return designs
}
