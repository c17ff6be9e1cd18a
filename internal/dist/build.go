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
	"stordep/internal/mc"
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

// Merge folds shard results, from a coordinator run or from Result
// files on disk, into the whole-space Result ExecuteJob returns for the
// unsharded job (zero Shard). The results must share one shard count
// and cover every shard of that partitioning: a missing shard is a
// missing slice of the space, so merging without it could return the
// wrong answer. A shard reported twice (speculative re-dispatch, or the
// same file merged twice) keeps its first report. Search and Monte
// Carlo results do not mix.
//
// Search shards fold by opt.MergeShards's rule: the lowest score wins,
// ties to the lowest global candidate index (shards are folded in index
// order and cover ascending candidate ranges, so the first of equal
// scores is the lowest), and every shard's counts add up, so merged
// Evaluations+Pruned is the space size a single-process search reports. When no shard is feasible the merged
// Result is infeasible with the summed counts, as one infeasible slice
// is. Monte Carlo shards concatenate, in trial order, into one MCResult
// whose range starts at trial 0; each payload must match its digest and
// start where the previous shard's range ended.
func Merge(results []*Result) (*Result, error) {
	if len(results) == 0 || results[0] == nil {
		return nil, fmt.Errorf("%w: no first result to merge", ErrBadResult)
	}
	count := results[0].Shard.Count
	shards := make(map[int]*Result, len(results))
	for i, r := range results {
		switch {
		case r == nil:
			return nil, fmt.Errorf("%w: result %d is missing", ErrBadResult, i)
		case r.Shard.Count != count:
			return nil, fmt.Errorf("%w: result %d is shard %d/%d, others have %d shards — results must come from one partitioning",
				ErrBadResult, i, r.Shard.Index, r.Shard.Count, count)
		case (r.MC == nil) != (results[0].MC == nil):
			return nil, fmt.Errorf("%w: result %d mixes search and Monte Carlo shards", ErrBadResult, i)
		}
		if err := r.Shard.Shard().Validate(); err != nil {
			return nil, fmt.Errorf("%w: result %d: %v", ErrBadResult, i, err)
		}
		if _, dup := shards[r.Shard.Index]; !dup {
			shards[r.Shard.Index] = r
		}
	}
	merged := &Result{Version: Version, CandidateIndex: -1}
	if results[0].MC != nil {
		merged.MC = &MCResult{}
	}
	// A zero count is the whole space as one shard. The loop stops at the
	// first missing shard, so a count the results cannot cover costs no
	// more than they do.
	for s := 0; s < max(count, 1); s++ {
		r, ok := shards[s]
		if !ok {
			return nil, fmt.Errorf("%w: missing shard %d/%d", ErrBadResult, s, count)
		}
		merged.Evaluations += r.Evaluations
		merged.Pruned += r.Pruned
		merged.BoundsComputed += r.BoundsComputed
		merged.MemoHits += r.MemoHits
		if m := merged.MC; m != nil {
			if err := r.MC.Validate(); err != nil {
				return nil, fmt.Errorf("shard %d/%d: %w", s, count, err)
			}
			if r.MC.Lo != m.Hi {
				return nil, fmt.Errorf("%w: shard %d covers trials [%d, %d), expected to start at %d",
					ErrBadResult, s, r.MC.Lo, r.MC.Hi, m.Hi)
			}
			m.Obs, m.Hi = append(m.Obs, r.MC.Obs...), r.MC.Hi
		} else if r.Feasible && (!merged.Feasible || r.Score < merged.Score) {
			merged.Feasible, merged.CandidateIndex, merged.Score = true, r.CandidateIndex, r.Score
			merged.Choices, merged.Design = r.Choices, r.Design
		}
	}
	if merged.MC != nil {
		merged.MC.Digest = mc.Digest(merged.MC.Obs)
	}
	return merged, nil
}
