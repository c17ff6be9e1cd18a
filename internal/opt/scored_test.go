package opt

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"stordep/internal/casestudy"
	"stordep/internal/core"
	"stordep/internal/units"
	"stordep/internal/whatif"
)

// analyticScorer wraps the analytic expected-cost evaluation as a
// Scorer, so TuneScored can be checked against TuneWorkers on the same
// objective: both descents must land on the identical solution.
func analyticScorer(count *int) Scorer {
	freqs := whatif.TypicalFrequencies()
	scs := scenarios()
	return func(d *core.Design) (units.Money, error) {
		*count++
		return whatif.ExpectedAnnualCost(whatif.EvaluateOne(d, scs), freqs), nil
	}
}

// TestTuneScoredMatchesTuneWorkers: with the analytic expected cost as
// its scorer, TuneScored must return exactly Tune's Solution — score,
// choices, evaluations, memo hits, passes, candidate index and design —
// since the two differ only in how a batch's unseen vectors are scored.
func TestTuneScoredMatchesTuneWorkers(t *testing.T) {
	var calls int
	scored, err := TuneScored(casestudy.Baseline(), table7Knobs(), analyticScorer(&calls))
	if err != nil {
		t.Fatal(err)
	}
	want, err := Tune(casestudy.Baseline(), table7Knobs(), scenarios(),
		ExpectedObjective(whatif.TypicalFrequencies()))
	if err != nil {
		t.Fatal(err)
	}
	solutionsIdentical(t, "scored vs objective descent", scored, want)
	if scored.CandidateIndex != want.CandidateIndex {
		t.Errorf("candidate index %d, objective descent has %d", scored.CandidateIndex, want.CandidateIndex)
	}
	// The memo means every distinct choice vector is scored exactly once.
	if calls != scored.Evaluations {
		t.Errorf("scorer called %d times, solution reports %d evaluations", calls, scored.Evaluations)
	}
}

func TestTuneScoredDeterministic(t *testing.T) {
	run := func() *Solution {
		var calls int
		sol, err := TuneScored(casestudy.Baseline(), table7Knobs(), analyticScorer(&calls))
		if err != nil {
			t.Fatal(err)
		}
		sol.Design = nil // compare the decision record, not the pointer graph
		return sol
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Errorf("two identical descents disagree: %+v vs %+v", a, b)
	}
}

func TestTuneScoredErrors(t *testing.T) {
	base := casestudy.Baseline()
	if _, err := TuneScored(base, table7Knobs(), nil); !errors.Is(err, ErrBadKnob) {
		t.Errorf("nil scorer: %v", err)
	}
	if _, err := TuneScored(base, nil, analyticScorer(new(int))); !errors.Is(err, ErrNoKnobs) {
		t.Errorf("no knobs: %v", err)
	}
	if _, err := TuneScored(base, []Knob{{Name: "broken"}}, analyticScorer(new(int))); !errors.Is(err, ErrBadKnob) {
		t.Errorf("malformed knob: %v", err)
	}
	boom := errors.New("scorer boom")
	if _, err := TuneScored(base, table7Knobs(), func(*core.Design) (units.Money, error) {
		return 0, boom
	}); !errors.Is(err, boom) {
		t.Errorf("scorer error swallowed: %v", err)
	}
	if _, err := TuneScored(base, table7Knobs(), func(*core.Design) (units.Money, error) {
		return units.Money(math.Inf(1)), nil
	}); !errors.Is(err, ErrNoFeasible) {
		t.Errorf("all-infeasible: %v", err)
	}
}

// TestTuneFullEvaluatorMatchesScored: a penalty-rate knob changes the
// design's requirements, which core.DeltaAssessor refuses, so every
// candidate that sets it goes to TuneWorkers' full evaluator with a
// finite score. The descent must still match TuneScored's, whose every
// score is a fresh build and evaluation, for any worker count.
func TestTuneFullEvaluatorMatchesScored(t *testing.T) {
	base := casestudy.Baseline()
	rates := []units.PenaltyRate{base.Requirements.LossPenaltyRate, base.Requirements.LossPenaltyRate / 2}
	knobs := append(table7Knobs(), Knob{
		Name:    "loss penalty",
		Options: []string{"case study", "half"},
		Apply: func(d *core.Design, i int) error {
			d.Requirements.LossPenaltyRate = rates[i]
			return nil
		},
		Revertible: true,
	})
	want, err := TuneScored(base, knobs, analyticScorer(new(int)))
	if err != nil {
		t.Fatal(err)
	}
	if got := want.Choices[len(knobs)-1].Option; got != "half" {
		t.Fatalf("descent kept the %q penalty; the full evaluator never scored a tuned candidate", got)
	}
	for _, workers := range []int{1, 4} {
		got, err := TuneWorkers(base, knobs, scenarios(), ExpectedObjective(whatif.TypicalFrequencies()), workers)
		if err != nil {
			t.Fatal(err)
		}
		solutionsIdentical(t, fmt.Sprintf("workers=%d", workers), got, want)
	}
}
