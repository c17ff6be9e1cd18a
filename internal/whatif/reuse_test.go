package whatif

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"stordep/internal/casestudy"
	"stordep/internal/chaos"
	"stordep/internal/core"
	"stordep/internal/failure"
)

// reuseDesigns returns n designs drawn from seed: chaos designs (some
// fail their build), case-study designs of other device and level
// counts, and case-study designs overloaded so their build fails.
func reuseDesigns(seed int64, n int) []*core.Design {
	r := rand.New(rand.NewSource(seed))
	out := make([]*core.Design, n)
	for i := range out {
		switch r.Intn(4) {
		case 0, 1:
			out[i] = chaos.RandomDesign(r, i)
		case 2:
			out[i] = casestudy.AsyncBMirror(1 + r.Intn(10))
		default:
			all := casestudy.WhatIfDesigns()
			d := all[r.Intn(len(all))]
			if r.Intn(3) == 0 {
				d.Name += " (overloaded)"
				d.Workload.DataCap *= 1000
			}
			out[i] = d
		}
	}
	return out
}

// freshResult is the reference evaluation: a fresh core.Build and a
// fresh scratch per scenario.
func freshResult(d *core.Design, scs []failure.Scenario) Result {
	res := Result{Design: d.Name}
	sys, err := core.Build(d)
	if err != nil {
		res.Err = err
		return res
	}
	briefs := make([]core.Brief, len(scs))
	for i, sc := range scs {
		if briefs[i], err = sys.AssessBrief(sc, new(core.Scratch)); err != nil {
			res.Err = fmt.Errorf("whatif: scenario %s: %w", sc.DisplayName(), err)
			return res
		}
	}
	res.SetBriefs(d.Name, sys.Outlays().Total(), scs, briefs)
	return res
}

// sameResult reports whether two Results carry the same values.
func sameResult(a, b Result) bool {
	if a.Design != b.Design || a.Outlays != b.Outlays || (a.Err == nil) != (b.Err == nil) ||
		a.Err != nil && a.Err.Error() != b.Err.Error() || len(a.Outcomes) != len(b.Outcomes) {
		return false
	}
	return a.Err != nil || reflect.DeepEqual(a.Outcomes, b.Outcomes)
}

// TestReuseEvaluatorMatchesFresh: one Evaluator builds a stream of
// designs into its one System, and EvaluateOne draws pooled Evaluators.
// Each Result equals a fresh build's, and a Result EvaluateOne returned
// keeps its values while later calls reuse the pooled storage.
func TestReuseEvaluatorMatchesFresh(t *testing.T) {
	scs := failure.CaseStudyScenarios()
	designs := reuseDesigns(1, 300)
	var (
		e     Evaluator
		res   Result
		kept  []Result
		wants []Result
	)
	failed := 0
	for i, d := range designs {
		want := freshResult(d, scs)
		if want.Err != nil {
			failed++
		}
		e.EvaluateInto(d, scs, &res)
		if !sameResult(res, want) {
			t.Fatalf("design %d (%s): reused evaluation %+v, fresh %+v", i, d.Name, res, want)
		}
		kept, wants = append(kept, EvaluateOne(d, scs)), append(wants, want)
	}
	for i := range kept {
		if !sameResult(kept[i], wants[i]) {
			t.Fatalf("design %d (%s): EvaluateOne's result %+v changed from the fresh %+v", i, designs[i].Name, kept[i], wants[i])
		}
	}
	if failed == 0 || failed == len(designs) {
		t.Fatalf("%d of %d designs fail their build: the stream does not mix both", failed, len(designs))
	}
}

// TestReuseEvaluateOneConcurrent: concurrent EvaluateOne calls draw
// distinct pooled Evaluators, so each returns a fresh build's Result;
// under the race detector an Evaluator two calls share shows up as a
// race.
func TestReuseEvaluateOneConcurrent(t *testing.T) {
	scs := failure.CaseStudyScenarios()
	designs := reuseDesigns(2, 64)
	wants := make([]Result, len(designs))
	for i, d := range designs {
		wants[i] = freshResult(d, scs)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range designs {
				i := (k + g*len(designs)/4) % len(designs)
				if got := EvaluateOne(designs[i], scs); !sameResult(got, wants[i]) {
					t.Errorf("goroutine %d, design %d (%s): %+v, fresh %+v", g, i, designs[i].Name, got, wants[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestEvaluatorAllocBudget: an Evaluator that has evaluated a design
// before rebuilds it into its System, assesses it on its scratch and
// fills the Result's Outcomes without allocating.
func TestEvaluatorAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement")
	}
	scs := failure.CaseStudyScenarios()
	for _, d := range []*core.Design{casestudy.Baseline(), casestudy.AsyncBMirror(5)} {
		var (
			e   Evaluator
			res Result
		)
		got := testing.AllocsPerRun(100, func() {
			if e.EvaluateInto(d, scs, &res); res.Err != nil {
				t.Fatal(res.Err)
			}
		})
		t.Logf("%s: allocs per evaluation: %.0f (budget 0)", d.Name, got)
		if got > 0 {
			t.Errorf("%s: EvaluateInto on a warm Evaluator allocates %.0f, budget 0", d.Name, got)
		}
	}
}
