package core_test

import (
	"testing"
	"time"

	"stordep/internal/casestudy"
	"stordep/internal/core"
	"stordep/internal/failure"
	"stordep/internal/units"
)

// briefScenarios covers the brief path's branches: recoverable failures
// at several scopes, an unrecoverable wide-scope failure, an aged
// recovery target, and a site restore whose transfer at Baseline's
// 240 MB/s ends an hour short of units.Forever, so the media return
// ahead of it must saturate the sum rather than wrap it negative.
func briefScenarios() []failure.Scenario {
	return []failure.Scenario{
		{Scope: failure.ScopeObject},
		{Scope: failure.ScopeArray},
		{Scope: failure.ScopeBuilding},
		{Scope: failure.ScopeSite},
		{Scope: failure.ScopeRegion},
		{Scope: failure.ScopeArray, TargetAge: 36 * time.Hour},
		{Scope: failure.ScopeSite, RecoverSize: (240 * units.MBPerSec).Over(units.Forever - time.Hour)},
	}
}

// TestAssessBriefMatchesAssess: the scoring-grade brief carries exactly
// the full Assessment's output metrics, scenario by scenario, with and
// without a reused Scratch.
func TestAssessBriefMatchesAssess(t *testing.T) {
	for _, d := range append(casestudy.WhatIfDesigns(), casestudy.AsyncBMirror(4)) {
		sys, err := core.Build(d)
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		var scratch core.Scratch
		for _, sc := range briefScenarios() {
			a, err := sys.Assess(sc)
			if err != nil {
				t.Fatalf("%s/%s: assess: %v", d.Name, sc.DisplayName(), err)
			}
			for name, b := range map[string]func() (core.Brief, error){
				"scratch": func() (core.Brief, error) { return sys.AssessBrief(sc, &scratch) },
				"nil":     func() (core.Brief, error) { return sys.AssessBrief(sc, nil) },
			} {
				got, err := b()
				if err != nil {
					t.Fatalf("%s/%s (%s): brief: %v", d.Name, sc.DisplayName(), name, err)
				}
				want := core.Brief{
					RecoveryTime:    a.RecoveryTime,
					DataLoss:        a.DataLoss,
					WholeObjectLost: a.WholeObjectLost,
					Penalties:       a.Cost.Penalties.Total(),
					Total:           a.Cost.Total(),
				}
				if got != want {
					t.Errorf("%s/%s (%s): brief = %+v, want %+v", d.Name, sc.DisplayName(), name, got, want)
				}
			}
		}
	}
}

// TestAssessBriefRejectsInvalidScenario: validation errors surface the
// same way as on the full path.
func TestAssessBriefRejectsInvalidScenario(t *testing.T) {
	sys, err := core.Build(casestudy.Baseline())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.AssessBrief(failure.Scenario{Scope: failure.Scope(99)}, nil); err == nil {
		t.Error("invalid scenario accepted")
	}
}

// TestAssessBriefAllocBudget: with a warmed Scratch, assessing a
// scenario allocates nothing — the contract the streaming optimizer's
// inner loop depends on — including when no level retains a target ten
// years old and the object is lost.
func TestAssessBriefAllocBudget(t *testing.T) {
	sys, err := core.Build(casestudy.Baseline())
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range []failure.Scenario{
		{Scope: failure.ScopeSite},
		{Scope: failure.ScopeArray, TargetAge: 10 * units.Year},
	} {
		var scratch core.Scratch
		if _, err := sys.AssessBrief(sc, &scratch); err != nil { // warm the buffers
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := sys.AssessBrief(sc, &scratch); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 0 {
			t.Errorf("%s: AssessBrief allocates %.1f objects per call with warm scratch, want 0", sc.DisplayName(), allocs)
		}
	}
}
