package core_test

import (
	"testing"
	"time"

	"stordep/internal/casestudy"
	"stordep/internal/core"
	"stordep/internal/device"
	"stordep/internal/failure"
	"stordep/internal/protect"
	"stordep/internal/units"
)

func deltaScenarios() []failure.Scenario {
	return []failure.Scenario{
		{Scope: failure.ScopeArray},
		{Scope: failure.ScopeSite},
	}
}

// legacyAssess is the reference path: full Build plus AssessBrief per
// scenario.
func legacyAssess(t *testing.T, d *core.Design, scs []failure.Scenario) (units.Money, []core.Brief) {
	t.Helper()
	sys, err := core.Build(d)
	if err != nil {
		t.Fatalf("Build(%s): %v", d.Name, err)
	}
	var scratch core.Scratch
	briefs := make([]core.Brief, len(scs))
	for i, sc := range scs {
		b, err := sys.AssessBrief(sc, &scratch)
		if err != nil {
			t.Fatalf("AssessBrief: %v", err)
		}
		briefs[i] = b
	}
	return sys.Outlays().Total(), briefs
}

func cloneDesign(t *testing.T, d *core.Design) *core.Design {
	t.Helper()
	c, err := d.Clone()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestDeltaAssessorMatchesLegacy: every representable single- and
// multi-change variant assesses bit-identically to the full
// Build-and-assess path — the property Tune relies on to swap
// AssessDelta scores for legacy scores without changing its descent.
func TestDeltaAssessorMatchesLegacy(t *testing.T) {
	base := casestudy.Baseline()
	scs := deltaScenarios()
	da, err := core.NewDeltaAssessor(base, scs)
	if err != nil {
		t.Fatal(err)
	}

	variants := map[string]func(d *core.Design){
		"identity":     func(d *core.Design) {},
		"vault-retcnt": func(d *core.Design) { d.Levels[2].(*protect.Vaulting).Pol.RetCnt = 13 },
		"vault-weekly": func(d *core.Design) {
			v := d.Levels[2].(*protect.Vaulting)
			v.Pol.Primary.AccW = units.Week
			v.Pol.RetCnt = 156
		},
		"backup-retcnt": func(d *core.Design) {
			bk := d.Levels[1].(*protect.Backup)
			bk.Pol.RetCnt = 28
			bk.Pol.RetW = 28 * bk.Pol.CyclePeriod()
		},
		"mirror-accw": func(d *core.Design) { d.Levels[0].(*protect.SplitMirror).Pol.Primary.AccW = 6 * time.Hour },
		"spec-slots": func(d *core.Design) {
			for i := range d.Devices {
				if d.Devices[i].Spec.Name == device.NameTapeLibrary {
					d.Devices[i].Spec.MaxBWSlots = 8
				}
			}
		},
		"level-and-spec": func(d *core.Design) {
			d.Levels[2].(*protect.Vaulting).Pol.RetCnt = 2
			for i := range d.Devices {
				if d.Devices[i].Spec.Name == device.NameTapeLibrary {
					d.Devices[i].Spec.MaxBWSlots = 12
				}
			}
		},
	}
	for name, mutate := range variants {
		d := cloneDesign(t, base)
		mutate(d)
		gotOut, gotBriefs, ok := da.AssessDelta(d)
		if !ok {
			t.Errorf("%s: AssessDelta refused a representable variant", name)
			continue
		}
		wantOut, wantBriefs := legacyAssess(t, d, scs)
		if gotOut != wantOut {
			t.Errorf("%s: outlays %v, legacy %v", name, gotOut, wantOut)
		}
		for si := range scs {
			if gotBriefs[si] != wantBriefs[si] {
				t.Errorf("%s: scenario %d brief %+v, legacy %+v", name, si, gotBriefs[si], wantBriefs[si])
			}
		}
	}

	// Scratch reuse across calls must not leak state: re-assessing the
	// base after a variant reproduces the construction-time numbers.
	d := cloneDesign(t, base)
	d.Levels[2].(*protect.Vaulting).Pol.RetCnt = 13
	if _, _, ok := da.AssessDelta(d); !ok {
		t.Fatal("variant refused")
	}
	gotOut, gotBriefs, ok := da.AssessDelta(base)
	if !ok {
		t.Fatal("base refused after variant")
	}
	wantOut, wantBriefs := legacyAssess(t, base, scs)
	if gotOut != wantOut {
		t.Errorf("base after variant: outlays %v, legacy %v", gotOut, wantOut)
	}
	for si := range scs {
		if gotBriefs[si] != wantBriefs[si] {
			t.Errorf("base after variant: scenario %d brief differs", si)
		}
	}
}

// TestDeltaAssessorRejectsOutsideProtocol: changes the cached tables
// cannot carry — renames, moved hardware, workload edits, shape changes,
// invalid policies or specs, over-capacity retention — must return
// ok=false so the caller falls back to the legacy path (and its exact
// errors).
func TestDeltaAssessorRejectsOutsideProtocol(t *testing.T) {
	base := casestudy.Baseline()
	da, err := core.NewDeltaAssessor(base, deltaScenarios())
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]func(d *core.Design){
		"renamed":        func(d *core.Design) { d.Name = "other" },
		"moved-device":   func(d *core.Design) { d.Devices[0].Placement.Site = "elsewhere" },
		"workload":       func(d *core.Design) { d.Workload.DataCap *= 2 },
		"dropped-level":  func(d *core.Design) { d.Levels = d.Levels[:2] },
		"invalid-policy": func(d *core.Design) { d.Levels[2].(*protect.Vaulting).Pol.RetCnt = 0 },
		"renamed-spec": func(d *core.Design) {
			d.Devices[0].Spec.Name = "imposter"
		},
		"overloaded": func(d *core.Design) {
			for i := range d.Devices {
				if d.Devices[i].Spec.Name == device.NameTapeLibrary {
					d.Devices[i].Spec.MaxCapSlots = 1
				}
			}
		},
		// Specs Build rejects (device.Spec.Validate) even though their
		// demands would fit: a negative slot count, as a link-count knob
		// can set, and a capacity overhead below one.
		"negative-slots": func(d *core.Design) {
			for i := range d.Devices {
				if d.Devices[i].Spec.Name == device.NameTapeLibrary {
					d.Devices[i].Spec.MaxBWSlots = -1
				}
			}
		},
		"overhead-below-one": func(d *core.Design) {
			for i := range d.Devices {
				if d.Devices[i].Spec.Name == device.NameTapeVault {
					d.Devices[i].Spec.CapOverhead = 0.5
				}
			}
		},
	}
	for name, mutate := range cases {
		d := cloneDesign(t, base)
		mutate(d)
		if _, _, ok := da.AssessDelta(d); ok {
			t.Errorf("%s: AssessDelta accepted a change outside the delta protocol", name)
		}
	}
}
