package dist

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"stordep/internal/config"
	"stordep/internal/core"
	"stordep/internal/failure"
	"stordep/internal/hierarchy"
	"stordep/internal/opt"
	"stordep/internal/units"
	"stordep/internal/whatif"
)

// Knob spec kinds, matching the opt constructors they rebuild.
const (
	KnobPolicy = "policy"
	KnobPiT    = "pit"
	KnobAccW   = "accw"
	KnobRetCnt = "retcnt"
	KnobLinks  = "links"
)

// NewJob assembles an unsharded job from a base design and specs; the
// coordinator (or caller) sets Shard, Budget and Workers afterwards.
func NewJob(base *core.Design, knobs []KnobSpec, scenarios []ScenarioSpec, objective ObjectiveSpec) (*Job, error) {
	design, err := config.Marshal(base)
	if err != nil {
		return nil, fmt.Errorf("%w: design: %v", ErrBadJob, err)
	}
	return &Job{
		Version:   Version,
		Design:    design,
		Knobs:     knobs,
		Scenarios: scenarios,
		Objective: objective,
	}, nil
}

// PolicyKnobSpec wires a complete-policy knob (opt.PolicyKnob): the
// options travel as config-encoded policies.
func PolicyKnobSpec(level string, names []string, policies []hierarchy.Policy) (KnobSpec, error) {
	if len(names) != len(policies) || len(names) == 0 {
		return KnobSpec{}, fmt.Errorf("%w: policy knob %q needs matching names and policies", ErrBadJob, level)
	}
	spec := KnobSpec{Kind: KnobPolicy, Target: level, Names: names}
	for _, p := range policies {
		data, err := config.MarshalPolicy(p)
		if err != nil {
			return KnobSpec{}, fmt.Errorf("%w: policy knob %q: %v", ErrBadJob, level, err)
		}
		spec.Policies = append(spec.Policies, data)
	}
	return spec, nil
}

// PiTKnobSpec wires a point-in-time technique knob (opt.PiTKnob).
func PiTKnobSpec(level string) KnobSpec {
	return KnobSpec{Kind: KnobPiT, Target: level}
}

// AccWKnobSpec wires an accumulation-window knob (opt.AccWKnob).
func AccWKnobSpec(level string, options []time.Duration) KnobSpec {
	spec := KnobSpec{Kind: KnobAccW, Target: level}
	for _, o := range options {
		spec.Durations = append(spec.Durations, units.FormatDuration(o))
	}
	return spec
}

// RetCntKnobSpec wires a retention-count knob (opt.RetCntKnob).
func RetCntKnobSpec(level string, options []int) KnobSpec {
	return KnobSpec{Kind: KnobRetCnt, Target: level, Ints: options}
}

// LinkCountKnobSpec wires a WAN-link-count knob (opt.LinkCountKnob).
func LinkCountKnobSpec(device string, options []int) KnobSpec {
	return KnobSpec{Kind: KnobLinks, Target: device, Ints: options}
}

// BuildKnobs rebuilds search knobs from their wire specs. Both sides of
// the protocol call it — the worker to run its shard, the coordinator to
// size the space — so a coordinator and its workers always agree on the
// candidate enumeration order.
func BuildKnobs(specs []KnobSpec) ([]opt.Knob, error) {
	knobs := make([]opt.Knob, 0, len(specs))
	for i, s := range specs {
		k, err := buildKnob(s)
		if err != nil {
			return nil, fmt.Errorf("knob %d: %w", i, err)
		}
		knobs = append(knobs, k)
	}
	return knobs, nil
}

func buildKnob(s KnobSpec) (opt.Knob, error) {
	switch s.Kind {
	case KnobPolicy:
		if len(s.Names) == 0 || len(s.Names) != len(s.Policies) {
			return opt.Knob{}, fmt.Errorf("%w: policy knob %q needs matching names and policies", ErrBadJob, s.Target)
		}
		pols := make([]hierarchy.Policy, len(s.Policies))
		for i, data := range s.Policies {
			p, err := config.UnmarshalPolicy(data)
			if err != nil {
				return opt.Knob{}, fmt.Errorf("%w: policy knob %q option %d: %v", ErrBadJob, s.Target, i, err)
			}
			pols[i] = p
		}
		return opt.PolicyKnob(s.Target, s.Names, pols), nil
	case KnobPiT:
		return opt.PiTKnob(s.Target), nil
	case KnobAccW:
		if len(s.Durations) == 0 {
			return opt.Knob{}, fmt.Errorf("%w: accW knob %q has no durations", ErrBadJob, s.Target)
		}
		durs := make([]time.Duration, len(s.Durations))
		for i, ds := range s.Durations {
			d, err := units.ParseDuration(ds)
			if err != nil {
				return opt.Knob{}, fmt.Errorf("%w: accW knob %q option %q: %v", ErrBadJob, s.Target, ds, err)
			}
			durs[i] = d
		}
		return opt.AccWKnob(s.Target, durs), nil
	case KnobRetCnt:
		if len(s.Ints) == 0 {
			return opt.Knob{}, fmt.Errorf("%w: retCnt knob %q has no options", ErrBadJob, s.Target)
		}
		return opt.RetCntKnob(s.Target, s.Ints), nil
	case KnobLinks:
		if len(s.Ints) == 0 {
			return opt.Knob{}, fmt.Errorf("%w: link knob %q has no options", ErrBadJob, s.Target)
		}
		return opt.LinkCountKnob(s.Target, s.Ints), nil
	default:
		return opt.Knob{}, fmt.Errorf("%w: unknown knob kind %q", ErrBadJob, s.Kind)
	}
}

// ScenarioSpecs wires failure scenarios for a job.
func ScenarioSpecs(scs []failure.Scenario) []ScenarioSpec {
	specs := make([]ScenarioSpec, len(scs))
	for i, sc := range scs {
		specs[i] = ScenarioSpec{Name: sc.Name, Scope: sc.Scope.String()}
		if sc.TargetAge > 0 {
			specs[i].TargetAge = units.FormatDuration(sc.TargetAge)
		}
		if sc.RecoverSize > 0 {
			specs[i].RecoverSize = fmt.Sprintf("%gB", float64(sc.RecoverSize))
		}
	}
	return specs
}

// BuildScenarios rebuilds failure scenarios from their wire specs.
func BuildScenarios(specs []ScenarioSpec) ([]failure.Scenario, error) {
	scs := make([]failure.Scenario, len(specs))
	for i, s := range specs {
		scope, err := failure.ParseScope(s.Scope)
		if err != nil {
			return nil, fmt.Errorf("%w: scenario %d: %w", ErrBadJob, i, err)
		}
		sc := failure.Scenario{Name: s.Name, Scope: scope}
		if s.TargetAge != "" {
			if sc.TargetAge, err = units.ParseDuration(s.TargetAge); err != nil {
				return nil, fmt.Errorf("%w: scenario %d target age: %v", ErrBadJob, i, err)
			}
		}
		if s.RecoverSize != "" {
			if sc.RecoverSize, err = units.ParseByteSize(s.RecoverSize); err != nil {
				return nil, fmt.Errorf("%w: scenario %d recover size: %v", ErrBadJob, i, err)
			}
		}
		scs[i] = sc
	}
	return scs, nil
}

// BuildObjective rebuilds the scoring rule from its wire spec, paired
// with its admissible pruning floor — every wire objective has one, so
// a pruning worker never has to guess which bound matches which score.
func BuildObjective(spec ObjectiveSpec) (opt.Objective, opt.ObjectiveFloor, error) {
	switch spec.Kind {
	case "", "worst":
		return opt.WorstTotalObjective(), opt.WorstTotalFloor(), nil
	case "expected":
		return opt.ExpectedObjective(whatif.TypicalFrequencies()), opt.ExpectedFloor(whatif.TypicalFrequencies()), nil
	case "constrained":
		obj := whatif.Objectives{RTO: units.Forever, RPO: units.Forever}
		if spec.RTO != "" {
			d, err := units.ParseDuration(spec.RTO)
			if err != nil {
				return nil, nil, fmt.Errorf("%w: objective RTO: %v", ErrBadJob, err)
			}
			obj.RTO = d
		}
		if spec.RPO != "" {
			d, err := units.ParseDuration(spec.RPO)
			if err != nil {
				return nil, nil, fmt.Errorf("%w: objective RPO: %v", ErrBadJob, err)
			}
			obj.RPO = d
		}
		return opt.ConstrainedOutlayObjective(obj), opt.ConstrainedOutlayFloor(obj), nil
	default:
		return nil, nil, fmt.Errorf("%w: unknown objective kind %q", ErrBadJob, spec.Kind)
	}
}

// ExecuteJob runs one shard assignment locally: decode the design and
// knob specs, run the streaming exhaustive search over the job's shard,
// and wrap the outcome for the wire. progress, when non-nil, counts
// evaluated candidates live (for heartbeats). A shard whose slice holds
// no feasible candidate is a normal Result with Feasible false — its
// evaluation count (the slice size: streaming search scores every
// candidate exactly once) still reaches the merged total.
func ExecuteJob(job *Job, progress *atomic.Int64) (*Result, error) {
	if job.MC != nil {
		return executeMC(job, progress)
	}
	base, err := config.Unmarshal(job.Design)
	if err != nil {
		return nil, fmt.Errorf("%w: design: %v", ErrBadJob, err)
	}
	knobs, err := BuildKnobs(job.Knobs)
	if err != nil {
		return nil, err
	}
	scenarios, err := BuildScenarios(job.Scenarios)
	if err != nil {
		return nil, err
	}
	objective, floor, err := BuildObjective(job.Objective)
	if err != nil {
		return nil, err
	}
	var stats opt.SearchStats
	sol, err := opt.ExhaustiveOpts(base, knobs, scenarios, objective, opt.ExhaustiveOptions{
		Workers:   job.Workers,
		Budget:    job.Budget,
		Shard:     job.Shard.Shard(),
		Progress:  progress,
		Prune:     job.Prune,
		Floor:     floor,
		Incumbent: units.Money(job.Incumbent),
		Stats:     &stats,
	})
	if errors.Is(err, opt.ErrNoFeasible) {
		// Stats keep the accounting honest even without a winner: a
		// pruning shard may retire its whole slice without assessing it.
		return &Result{
			Version:        Version,
			Shard:          job.Shard,
			Feasible:       false,
			Evaluations:    stats.Assessed,
			Pruned:         stats.Pruned,
			BoundsComputed: stats.BoundsComputed,
			CandidateIndex: -1,
		}, nil
	}
	if err != nil {
		return nil, err
	}
	return SolutionResult(sol, job.Shard)
}

// MergeResults combines shard results — from a coordinator run or from
// Result files on disk — into the Solution the unsharded search returns.
// Results must share one shard count and cover every shard of that
// partitioning (a missing shard means a missing slice of the space, so
// merging it silently could return the wrong winner); duplicate reports
// of the same shard (speculative re-dispatch, or the same file merged
// twice) are deduped, first occurrence wins. Feasible results merge
// through opt.MergeShards (lowest score, ties to the lowest global
// candidate index); infeasible shards contribute only their evaluation
// and pruning counts, so merged Evaluations+CandidatesPruned equals the
// space size exactly as a single-process search reports it.
func MergeResults(results []*Result) (*opt.Solution, error) {
	if len(results) == 0 {
		return nil, fmt.Errorf("%w: no results to merge", ErrBadResult)
	}
	count := results[0].Shard.Count
	seen := make(map[int]bool, len(results))
	var sols []*opt.Solution
	extraEvals, extraPruned, extraBounds := 0, 0, 0
	for i, r := range results {
		if r == nil {
			return nil, fmt.Errorf("%w: result %d is missing", ErrBadResult, i)
		}
		if r.Shard.Count != count {
			return nil, fmt.Errorf("%w: result %d is shard %d/%d, others have %d shards — results must come from one partitioning",
				ErrBadResult, i, r.Shard.Index, r.Shard.Count, count)
		}
		if seen[r.Shard.Index] {
			continue
		}
		seen[r.Shard.Index] = true
		sol, err := r.Solution()
		if err != nil {
			return nil, fmt.Errorf("result %d (shard %d/%d): %w", i, r.Shard.Index, r.Shard.Count, err)
		}
		if sol == nil {
			extraEvals += r.Evaluations
			extraPruned += r.Pruned
			extraBounds += r.BoundsComputed
			continue
		}
		sols = append(sols, sol)
	}
	// A zero shard count is the whole space as one result; otherwise
	// every shard of the partitioning must be present.
	want := count
	if want == 0 {
		want = 1
	}
	if len(seen) != want {
		for s := 0; s < count; s++ {
			if !seen[s] {
				return nil, fmt.Errorf("%w: missing shard %d/%d", ErrBadResult, s, count)
			}
		}
	}
	merged, err := opt.MergeShards(sols)
	if err != nil {
		return nil, err
	}
	merged.Evaluations += extraEvals
	merged.CandidatesPruned += extraPruned
	merged.BoundsComputed += extraBounds
	return merged, nil
}
