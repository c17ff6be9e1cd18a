package dist

import (
	"bytes"
	"testing"
	"time"

	"stordep/internal/casestudy"
	"stordep/internal/device"
	"stordep/internal/failure"
	"stordep/internal/hierarchy"
	"stordep/internal/opt"
	"stordep/internal/units"
)

// newTestKnobSpecs is the shared search space for dist tests: a
// 24-candidate slice of the Table 7 moves covering every wire knob kind
// that matters — policy options (config-encoded policies), revertible
// int knobs, a device knob, and the non-revertible PiT substitution.
func newTestKnobSpecs() ([]KnobSpec, error) {
	weekly := casestudy.VaultPolicy()
	weekly.Primary.AccW = units.Week
	weekly.Primary.HoldW = 12 * time.Hour
	weekly.RetCnt = 156
	pol, err := PolicyKnobSpec("vaulting",
		[]string{"4-weekly", "weekly"},
		[]hierarchy.Policy{casestudy.VaultPolicy(), weekly})
	if err != nil {
		return nil, err
	}
	return []KnobSpec{
		pol,
		PiTKnobSpec("split-mirror"),
		RetCntKnobSpec("backup", []int{2, 4, 8}),
		LinkCountKnobSpec(device.NameTapeLibrary, []int{8, 16}),
	}, nil
}

func testKnobSpecs(t *testing.T) []KnobSpec {
	t.Helper()
	specs, err := newTestKnobSpecs()
	if err != nil {
		t.Fatal(err)
	}
	return specs
}

func testScenarioSpecs() []ScenarioSpec {
	return ScenarioSpecs([]failure.Scenario{
		{Name: "object", Scope: failure.ScopeObject, TargetAge: 24 * time.Hour, RecoverSize: units.MB},
		{Scope: failure.ScopeArray},
		{Scope: failure.ScopeSite},
	})
}

// newTestJob builds the shared job; the oracle for every distributed
// run is singleProcessOracle on the same specs.
func newTestJob() (*Job, error) {
	specs, err := newTestKnobSpecs()
	if err != nil {
		return nil, err
	}
	return NewJob(casestudy.Baseline(), specs, testScenarioSpecs(), ObjectiveSpec{Kind: "worst"})
}

func testJob(t *testing.T) *Job {
	t.Helper()
	job, err := newTestJob()
	if err != nil {
		t.Fatal(err)
	}
	return job
}

// singleProcessOracle runs the plain in-process exhaustive search the
// distributed answer must be byte-identical to, and returns its
// whole-space wire Result.
func singleProcessOracle(t *testing.T, job *Job) *Result {
	t.Helper()
	knobs, err := BuildKnobs(job.Knobs)
	if err != nil {
		t.Fatal(err)
	}
	scs, err := BuildScenarios(job.Scenarios)
	if err != nil {
		t.Fatal(err)
	}
	obj, _, err := BuildObjective(job.Objective)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := opt.ExhaustiveOpts(casestudy.Baseline(), knobs, scs, obj, opt.ExhaustiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := SolutionResult(sol, ShardSpec{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// requireIdentical asserts two Results have byte-identical wire
// encodings, with field-level diagnostics on mismatch.
func requireIdentical(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if got.Score != want.Score {
		t.Errorf("%s: score %v, want %v", label, got.Score, want.Score)
	}
	if got.CandidateIndex != want.CandidateIndex {
		t.Errorf("%s: candidate index %d, want %d", label, got.CandidateIndex, want.CandidateIndex)
	}
	if got.Evaluations != want.Evaluations {
		t.Errorf("%s: evaluations %d, want %d", label, got.Evaluations, want.Evaluations)
	}
	wantB, err := want.Encode()
	if err != nil {
		t.Fatal(err)
	}
	gotB, err := got.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantB, gotB) {
		t.Errorf("%s: wire encodings differ\nwant %s\ngot  %s", label, wantB, gotB)
	}
}

// requireAnswerIdentical compares the answer fields only — pruning makes
// the assessed/pruned split schedule-dependent, but never the answer —
// by zeroing the counters on copies before the byte-identity check.
func requireAnswerIdentical(t *testing.T, label string, want, got *Result) {
	t.Helper()
	w, g := *want, *got
	w.Evaluations, w.Pruned, w.BoundsComputed, w.MemoHits = 0, 0, 0, 0
	g.Evaluations, g.Pruned, g.BoundsComputed, g.MemoHits = 0, 0, 0, 0
	requireIdentical(t, label, &w, &g)
}
