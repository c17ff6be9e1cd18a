package whatif

import (
	"reflect"
	"testing"

	"stordep/internal/casestudy"
	"stordep/internal/core"
)

// TestEvaluatorReuse: repeated EvaluateInto calls on one Evaluator and
// Result produce the same values as fresh EvaluateOne calls — buffer
// reuse must not leak state between candidates, including across a
// build-failure candidate.
func TestEvaluatorReuse(t *testing.T) {
	broken := casestudy.Baseline()
	broken.Workload = nil
	designs := []*core.Design{
		casestudy.Baseline(),
		casestudy.AsyncBMirror(2),
		broken,
		casestudy.AsyncBMirror(8),
	}
	var e Evaluator
	var res Result
	for _, d := range designs {
		want := EvaluateOne(d, scenarios())
		e.EvaluateInto(d, scenarios(), &res)
		if res.Design != want.Design || res.Outlays != want.Outlays ||
			!reflect.DeepEqual(append([]Outcome{}, res.Outcomes...), append([]Outcome{}, want.Outcomes...)) {
			t.Errorf("%s: reused evaluation differs: %+v vs %+v", d.Name, res, want)
		}
		if (res.Err == nil) != (want.Err == nil) {
			t.Errorf("%s: Err = %v, want %v", d.Name, res.Err, want.Err)
		}
	}
}
