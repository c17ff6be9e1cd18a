package whatif

import (
	"math"
	"testing"

	"stordep/internal/casestudy"
	"stordep/internal/config"
	"stordep/internal/core"
	"stordep/internal/failure"
	"stordep/internal/units"
)

func TestSensitivityBaseline(t *testing.T) {
	rows, err := Sensitivity(casestudy.Baseline(),
		failure.Scenario{Scope: failure.ScopeSite}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]SensitivityRow{}
	for _, r := range rows {
		byName[r.Parameter] = r
	}
	// The baseline's site total is dominated by loss penalties, so the
	// loss penalty rate must be the widest finite bar, and costs rise
	// with the rate.
	loss := byName["loss penalty rate"]
	if !(loss.High > loss.Low) {
		t.Errorf("loss rate row not increasing: %+v", loss)
	}
	unavail := byName["unavailability penalty rate"]
	if loss.Spread() <= unavail.Spread() {
		t.Errorf("loss penalty (%v) should dwarf unavailability (%v)",
			loss.Spread(), unavail.Spread())
	}
	// The access rate barely matters (it only shaves available recovery
	// bandwidth).
	access := byName["access rate"]
	if access.Spread() >= loss.Spread()/10 {
		t.Errorf("access rate spread %v should be marginal vs %v",
			access.Spread(), loss.Spread())
	}
	// Rows are sorted by descending spread.
	for i := 1; i < len(rows); i++ {
		a, b := float64(rows[i-1].Spread()), float64(rows[i].Spread())
		if !math.IsInf(a, 1) && !math.IsInf(b, 1) && a < b {
			t.Errorf("rows unsorted at %d", i)
		}
	}
}

func TestSensitivityOverloadIsInf(t *testing.T) {
	// +50% data capacity overflows the 87%-full baseline array: the high
	// side of "data capacity" must be infinite, and it must sort first.
	rows, err := Sensitivity(casestudy.Baseline(),
		failure.Scenario{Scope: failure.ScopeArray}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	var capRow SensitivityRow
	for _, r := range rows {
		if r.Parameter == "data capacity" {
			capRow = r
		}
	}
	if !math.IsInf(float64(capRow.High), 1) {
		t.Errorf("capacity high side = %v, want +Inf (overload)", capRow.High)
	}
	if rows[0].Parameter != "data capacity" {
		t.Errorf("infinite bar should sort first, got %q", rows[0].Parameter)
	}
}

func TestSensitivityValidation(t *testing.T) {
	sc := failure.Scenario{Scope: failure.ScopeArray}
	if _, err := Sensitivity(casestudy.Baseline(), sc, 0); err == nil {
		t.Error("zero swing accepted")
	}
	if _, err := Sensitivity(casestudy.Baseline(), sc, 1); err == nil {
		t.Error("unit swing accepted")
	}
}

// TestSensitivityMatchesJSONCopy: Sensitivity perturbs a structural
// copy of the design. Its rows must equal the totals of the config JSON
// round trip it used to copy through, for every what-if case study
// under array and site loss.
func TestSensitivityMatchesJSONCopy(t *testing.T) {
	const swing = 0.5
	totalAt := func(d *core.Design, sc failure.Scenario, p sensitivityParam, f float64) units.Money {
		data, err := config.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		clone, err := config.Unmarshal(data)
		if err != nil {
			t.Fatal(err)
		}
		p.apply(clone, f)
		results, err := Evaluate([]*core.Design{clone}, []failure.Scenario{sc})
		if err != nil {
			t.Fatal(err)
		}
		r := results[0]
		if r.Err != nil || r.Outcomes[0].Lost {
			return units.Money(math.Inf(1))
		}
		return r.Outcomes[0].Total
	}
	for _, d := range casestudy.WhatIfDesigns() {
		for _, sc := range []failure.Scenario{{Scope: failure.ScopeArray}, {Scope: failure.ScopeSite}} {
			rows, err := Sensitivity(d, sc, swing)
			if err != nil {
				t.Fatalf("%s %s: %v", d.Name, sc.Scope, err)
			}
			byName := map[string]SensitivityRow{}
			for _, r := range rows {
				byName[r.Parameter] = r
			}
			for _, p := range sensitivityParams() {
				got := byName[p.name]
				low, high := totalAt(d, sc, p, 1-swing), totalAt(d, sc, p, 1+swing)
				if got.Low != low || got.High != high {
					t.Errorf("%s %s %s: rows (%v, %v), JSON copy (%v, %v)",
						d.Name, sc.Scope, p.name, got.Low, got.High, low, high)
				}
			}
		}
	}
}
