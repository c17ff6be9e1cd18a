package opt

import (
	"stordep/internal/core"
	"stordep/internal/units"
)

// Scorer scores one candidate design directly; lower is better. It is
// the design-level counterpart of Objective for optimizers whose
// scoring is not a per-scenario analytic evaluation — e.g. a Monte
// Carlo expected-cost campaign (mc.(*Campaign).Scorer), where every
// candidate is scored on the same seeded trial budget so the sampling
// noise is common across candidates and cancels out of the comparison.
type Scorer func(*core.Design) (units.Money, error)

// TuneScored runs TuneWorkers' memoized coordinate descent with an
// arbitrary design-level scorer in place of the analytic evaluation:
// same passes, same memo accounting, same tie-breaks. The options a
// batch has not seen are built on fresh clones and scored serially in
// option order — scorers are expected to parallelize internally (a
// Monte Carlo campaign fans its trials across all CPUs) — so the
// descent is deterministic: same base, knobs and scorer results, same
// Solution.
func TuneScored(base *core.Design, knobs []Knob, score Scorer) (*Solution, error) {
	if score == nil {
		return nil, ErrBadKnob
	}
	if err := checkKnobs(knobs); err != nil {
		return nil, err
	}
	return descend(base, knobs, func(trials [][]int, scores []units.Money) error {
		for i, tr := range trials {
			d, err := applyChoice(base, knobs, tr)
			if err != nil {
				return err
			}
			if scores[i], err = score(d); err != nil {
				return err
			}
		}
		return nil
	})
}
