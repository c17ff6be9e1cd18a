package core_test

import (
	"errors"
	"math"
	"testing"
	"time"

	"stordep/internal/casestudy"
	"stordep/internal/core"
	"stordep/internal/cost"
	"stordep/internal/device"
	"stordep/internal/failure"
	"stordep/internal/hierarchy"
	"stordep/internal/protect"
	"stordep/internal/units"
	"stordep/internal/workload"
)

func build(t *testing.T, d *core.Design) *core.System {
	t.Helper()
	sys, err := core.Build(d)
	if err != nil {
		t.Fatalf("Build(%s): %v", d.Name, err)
	}
	return sys
}

func assess(t *testing.T, sys *core.System, sc failure.Scenario) *core.Assessment {
	t.Helper()
	a, err := sys.Assess(sc)
	if err != nil {
		t.Fatalf("Assess(%s): %v", sc.DisplayName(), err)
	}
	return a
}

func approx(t *testing.T, got, want, tol float64, what string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %.4f, want %.4f (±%.4f)", what, got, want, tol)
	}
}

// TestBaselineUtilizationTable5 reproduces Table 5: per-device,
// per-technique normal-mode utilization of the baseline design.
func TestBaselineUtilizationTable5(t *testing.T) {
	sys := build(t, casestudy.Baseline())
	u := sys.Utilization()

	// Overall: capacity bound by the array at 87.4%, bandwidth by the tape
	// library at 3.4%.
	approx(t, u.Cap, 0.874, 0.001, "system capUtil")
	if u.CapDevice != device.NameDiskArray {
		t.Errorf("capacity-binding device = %s", u.CapDevice)
	}
	approx(t, u.BW, 0.034, 0.001, "system bwUtil")
	if u.BWDevice != device.NameTapeLibrary {
		t.Errorf("bandwidth-binding device = %s", u.BWDevice)
	}

	byName := map[string]core.DeviceUtilization{}
	for _, du := range u.PerDevice {
		byName[du.Device] = du
	}

	arr := byName[device.NameDiskArray]
	approx(t, arr.BWUtil, 0.024, 0.001, "array bwUtil")
	approx(t, arr.CapUtil, 0.874, 0.001, "array capUtil")
	// Table 5 parentheticals: 12.4 MB/s, 8.0 TB.
	approx(t, arr.Bandwidth.MBPS(), 12.3, 0.3, "array total MB/s")
	approx(t, float64(arr.Capacity/units.TB), 8.0, 0.1, "array total TB")

	rows := map[string]float64{}
	for _, r := range arr.Rows {
		rows[r.Technique] = r.CapUtil
	}
	approx(t, rows["foreground"], 0.146, 0.001, "foreground capUtil")
	approx(t, rows["split-mirror"], 0.728, 0.001, "split-mirror capUtil")

	lib := byName[device.NameTapeLibrary]
	approx(t, lib.BWUtil, 0.034, 0.001, "library bwUtil")
	approx(t, lib.CapUtil, 0.034, 0.001, "library capUtil")
	approx(t, float64(lib.Capacity/units.TB), 6.6, 0.1, "library TB")

	vault := byName[device.NameTapeVault]
	approx(t, vault.CapUtil, 0.026, 0.001, "vault capUtil")
	approx(t, float64(vault.Capacity/units.TB), 51.8, 0.1, "vault TB")
}

// TestBaselineDependabilityTable6 reproduces Table 6: recovery source,
// recovery time and recent data loss for the three failure scopes.
func TestBaselineDependabilityTable6(t *testing.T) {
	sys := build(t, casestudy.Baseline())
	scs := failure.CaseStudyScenarios()

	object := assess(t, sys, scs[0])
	if object.Plan.SourceName != "split-mirror" {
		t.Errorf("object recovery source = %s, want split-mirror", object.Plan.SourceName)
	}
	if object.DataLoss != 12*time.Hour {
		t.Errorf("object loss = %v, want 12h", object.DataLoss)
	}
	// Table 6: 0.004 s intra-array copy of the 1 MB object.
	approx(t, object.RecoveryTime.Seconds(), 0.004, 0.0005, "object RT seconds")

	arr := assess(t, sys, scs[1])
	if arr.Plan.SourceName != "backup" {
		t.Errorf("array recovery source = %s, want backup", arr.Plan.SourceName)
	}
	if arr.DataLoss != 217*time.Hour {
		t.Errorf("array loss = %vh, want 217h", arr.DataLoss.Hours())
	}
	// Paper: 2.4 hr, dominated by tape transfer. Our min-bandwidth rule
	// yields 1.7 hr (see EXPERIMENTS.md); assert the modeled value.
	approx(t, arr.RecoveryTime.Hours(), 1.70, 0.05, "array RT hours")

	site := assess(t, sys, scs[2])
	if site.Plan.SourceName != "vaulting" {
		t.Errorf("site recovery source = %s, want vaulting", site.Plan.SourceName)
	}
	if site.DataLoss != 1429*time.Hour {
		t.Errorf("site loss = %vh, want 1429h", site.DataLoss.Hours())
	}
	// Paper: 26.4 hr = shipment (24h) + load + transfer, with the 9h
	// facility provisioning overlapped. Ours: 25.6 hr.
	approx(t, site.RecoveryTime.Hours(), 25.6, 0.1, "site RT hours")
	if len(site.Plan.Steps) != 2 {
		t.Fatalf("site recovery steps = %+v, want shipment + restore", site.Plan.Steps)
	}
	if site.Plan.Steps[0].SerFix != 24*time.Hour {
		t.Errorf("shipment transit = %v, want 24h", site.Plan.Steps[0].SerFix)
	}
	if site.Plan.Steps[1].ParFix != 9*time.Hour {
		t.Errorf("facility provisioning = %v, want 9h", site.Plan.Steps[1].ParFix)
	}
}

// TestBaselineCostsFigure5 checks the Figure 5 structure: penalties
// dominate for array and site failures, and outlays split between
// foreground, split mirroring and backup with negligible vaulting.
func TestBaselineCostsFigure5(t *testing.T) {
	sys := build(t, casestudy.Baseline())
	outlays := sys.Outlays()

	total := float64(outlays.Total())
	// Principled spare accounting gives ~$1.16M/yr (the paper's partially
	// published cost book gives $0.97M; see EXPERIMENTS.md).
	approx(t, total/1e6, 1.161, 0.01, "baseline outlays $M")

	byTech, _ := outlays.ByTechnique()
	if byTech["split-mirror"] <= byTech["foreground"]/2 || byTech["foreground"] <= byTech["backup"]/2 {
		t.Errorf("outlays should split roughly evenly: %v", byTech)
	}
	if byTech["vaulting"] >= byTech["backup"]/2 {
		t.Errorf("vaulting outlay should be negligible: %v", byTech)
	}

	scs := failure.CaseStudyScenarios()
	arr := assess(t, sys, scs[1])
	// Penalties dominate outlays for array failure (Figure 5): ~$10.9M of
	// penalties vs ~$1.2M outlays.
	if arr.Cost.Penalties.Total() < 8*arr.Cost.Outlays.Total() {
		t.Errorf("array penalties %v should dwarf outlays %v",
			arr.Cost.Penalties.Total(), arr.Cost.Outlays.Total())
	}
	approx(t, float64(arr.Cost.Penalties.Total())/1e6, 10.93, 0.05, "array penalties $M")

	site := assess(t, sys, scs[2])
	approx(t, float64(site.Cost.Penalties.Total())/1e6, 72.73, 0.1, "site penalties $M")
	// Loss penalties dominate outage penalties for both.
	if site.Cost.Penalties.Loss < 10*site.Cost.Penalties.Outage {
		t.Error("site loss penalty should dominate outage penalty")
	}
}

// TestWhatIfTable7 verifies the decision-relevant shape of Table 7 across
// the six what-if designs: every loss column exactly, and the orderings /
// crossovers the paper draws conclusions from.
func TestWhatIfTable7(t *testing.T) {
	arrSc := failure.Scenario{Scope: failure.ScopeArray}
	siteSc := failure.Scenario{Scope: failure.ScopeSite}

	type row struct {
		arrLossH, siteLossH float64
	}
	want := map[string]row{
		"Baseline":                        {217, 1429},
		"Weekly vault":                    {217, 253},
		"Weekly vault, F+I":               {73, 253},
		"Weekly vault, daily F":           {37, 217},
		"Weekly vault, daily F, snapshot": {37, 217},
		"AsyncB mirror, 1 link(s)":        {2.0 / 60, 2.0 / 60},
		"AsyncB mirror, 10 link(s)":       {2.0 / 60, 2.0 / 60},
	}

	results := map[string]struct{ arr, site *core.Assessment }{}
	for _, d := range casestudy.WhatIfDesigns() {
		sys := build(t, d)
		results[d.Name] = struct{ arr, site *core.Assessment }{
			arr:  assess(t, sys, arrSc),
			site: assess(t, sys, siteSc),
		}
	}
	if len(results) != len(want) {
		t.Fatalf("got %d designs, want %d", len(results), len(want))
	}
	for name, w := range want {
		r, ok := results[name]
		if !ok {
			t.Errorf("missing design %q", name)
			continue
		}
		approx(t, r.arr.DataLoss.Hours(), w.arrLossH, 0.01, name+" array DL")
		approx(t, r.site.DataLoss.Hours(), w.siteLossH, 0.01, name+" site DL")
	}

	// Paper conclusions that must hold:
	// 1. Weekly vaulting slashes site loss penalties vs baseline.
	if !(results["Weekly vault"].site.Cost.Penalties.Total() <
		results["Baseline"].site.Cost.Penalties.Total()/3) {
		t.Error("weekly vaulting should cut site penalties by more than 3x")
	}
	// 2. F+I trades slightly higher array RT for much lower array loss.
	if !(results["Weekly vault, F+I"].arr.RecoveryTime >
		results["Weekly vault"].arr.RecoveryTime) {
		t.Error("F+I should increase array recovery time")
	}
	// 3. Snapshots cost less than split mirrors, all else equal.
	if !(results["Weekly vault, daily F, snapshot"].arr.Cost.Outlays.Total() <
		results["Weekly vault, daily F"].arr.Cost.Outlays.Total()) {
		t.Error("snapshots should reduce outlays")
	}
	// 4. Mirroring reduces loss to minutes.
	if results["AsyncB mirror, 1 link(s)"].site.DataLoss > 3*time.Minute {
		t.Error("asyncB loss should be ~2 minutes")
	}
	// 5. More links cut mirror recovery time dramatically.
	r1 := results["AsyncB mirror, 1 link(s)"].arr.RecoveryTime
	r10 := results["AsyncB mirror, 10 link(s)"].arr.RecoveryTime
	if !(r1 > 5*r10) {
		t.Errorf("10 links should be >5x faster: 1 link %v, 10 links %v", r1, r10)
	}
	// 6. Site recovery stays slower than array recovery with 10 links
	//    (shared-facility provisioning dominates).
	ten := results["AsyncB mirror, 10 link(s)"]
	if !(ten.site.RecoveryTime > ten.arr.RecoveryTime) {
		t.Error("site recovery should exceed array recovery for 10 links")
	}
	// 7. The single-link mirror has the lowest total cost under a site
	//    disaster despite its long recovery ("ironically...").
	minName := ""
	var minTotal units.Money
	for name, r := range results {
		if minName == "" || r.site.Cost.Total() < minTotal {
			minName, minTotal = name, r.site.Cost.Total()
		}
	}
	if minName != "AsyncB mirror, 1 link(s)" {
		t.Errorf("cheapest site-disaster design = %s, want the 1-link mirror", minName)
	}
}

// TestAsyncBOutlays checks the mirror designs' outlay arithmetic against
// the Table 7 caption's link cost model (b x 23535, b in MB/s).
func TestAsyncBOutlays(t *testing.T) {
	one := build(t, casestudy.AsyncBMirror(1)).Outlays().Total()
	ten := build(t, casestudy.AsyncBMirror(10)).Outlays().Total()
	perLink := float64(ten-one) / 9
	approx(t, perLink, 19.375*23535, 1, "incremental link cost")
	approx(t, float64(one)/1e6, 1.0, 0.05, "1-link outlays $M")
	approx(t, float64(ten)/1e6, 5.1, 0.1, "10-link outlays $M")
}

// TestSurvivingLevels checks failure-scope filtering.
func TestSurvivingLevels(t *testing.T) {
	sys := build(t, casestudy.Baseline())
	tests := []struct {
		scope failure.Scope
		want  []int
	}{
		{failure.ScopeObject, []int{1, 2, 3}},
		{failure.ScopeArray, []int{2, 3}},
		{failure.ScopeBuilding, []int{3}},
		{failure.ScopeSite, []int{3}},
		{failure.ScopeRegion, []int{3}}, // vault is in another region
	}
	for _, tt := range tests {
		got := sys.SurvivingLevels(nil, failure.Scenario{Scope: tt.scope})
		if len(got) != len(tt.want) {
			t.Errorf("%v survivors = %v, want %v", tt.scope, got, tt.want)
			continue
		}
		for i := range got {
			if got[i] != tt.want[i] {
				t.Errorf("%v survivors = %v, want %v", tt.scope, got, tt.want)
				break
			}
		}
	}
}

// TestUnrecoverableScenarios: a design with no facility cannot recover
// from a site disaster that destroys the only readers.
func TestUnrecoverableScenarios(t *testing.T) {
	d := casestudy.Baseline()
	d.Facility = nil
	sys := build(t, d)
	a := assess(t, sys, failure.Scenario{Scope: failure.ScopeSite})
	if !a.WholeObjectLost {
		t.Fatal("site disaster without facility should lose the object")
	}
	if a.RecoveryTime != units.Forever || a.DataLoss != units.Forever {
		t.Error("unrecoverable should report Forever")
	}
	if !math.IsInf(float64(a.Cost.Penalties.Total()), 1) {
		t.Error("unrecoverable penalties should be infinite")
	}
}

func TestTargetTooOldIsWholeObjectLoss(t *testing.T) {
	sys := build(t, casestudy.Baseline())
	a := assess(t, sys, failure.Scenario{
		Scope:     failure.ScopeObject,
		TargetAge: 10 * units.Year,
	})
	if !a.WholeObjectLost {
		t.Error("a ten-year-old target predates all retention")
	}
}

// TestObjectRollbackUsesMirrorNotBackup: a 40-hour-old target is too old
// for the 36-hour mirror window but covered by tape backup.
func TestObjectRollbackDeepTarget(t *testing.T) {
	sys := build(t, casestudy.Baseline())
	a := assess(t, sys, failure.Scenario{
		Scope:       failure.ScopeObject,
		TargetAge:   2 * units.Week,
		RecoverSize: units.MB,
	})
	if a.Plan.SourceName != "backup" {
		t.Errorf("2-week rollback source = %s, want backup", a.Plan.SourceName)
	}
	if a.DataLoss != units.Week {
		t.Errorf("covered backup rollback loss = %v, want 1wk accW", a.DataLoss)
	}
}

func TestDesignValidateErrors(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*core.Design)
		wantErr error
	}{
		{"no workload", func(d *core.Design) { d.Workload = nil }, core.ErrNoWorkload},
		{"bad workload", func(d *core.Design) { d.Workload = &workload.Workload{} }, nil},
		{"no primary", func(d *core.Design) { d.Primary = nil }, core.ErrNoPrimary},
		{"no devices", func(d *core.Design) { d.Devices = nil }, core.ErrNoDevices},
		{"dup device", func(d *core.Design) { d.Devices = append(d.Devices, d.Devices[0]) }, core.ErrDupDevice},
		{"primary unknown array", func(d *core.Design) { d.Primary = &protect.Primary{Array: "ghost"} }, core.ErrUnknownLevel},
		{"level unknown device", func(d *core.Design) {
			d.Levels[0] = &protect.SplitMirror{Array: "ghost", Pol: casestudy.SplitMirrorPolicy()}
		}, core.ErrUnknownLevel},
		{"bad facility", func(d *core.Design) { d.Facility.CostFactor = -1 }, core.ErrBadFacility},
		{"bad requirements", func(d *core.Design) {
			d.Requirements = cost.Requirements{UnavailPenaltyRate: -1}
		}, nil},
		{"bad level policy", func(d *core.Design) {
			d.Levels[0] = &protect.SplitMirror{Array: device.NameDiskArray}
		}, nil},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			d := casestudy.Baseline()
			tt.mutate(d)
			err := d.Validate()
			if err == nil {
				t.Fatal("Validate() = nil, want error")
			}
			if tt.wantErr != nil && !errors.Is(err, tt.wantErr) {
				t.Errorf("Validate() = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

// TestBuildRejectsOverload: scale the workload until the array overflows.
func TestBuildRejectsOverload(t *testing.T) {
	d := casestudy.Baseline()
	big, err := d.Workload.Scale(3)
	if err != nil {
		t.Fatal(err)
	}
	d.Workload = big // 3 x 1360 GB x 6 copies x RAID-1 >> 18688 GB
	if _, err := core.Build(d); !errors.Is(err, device.ErrCapOverload) {
		t.Errorf("Build = %v, want ErrCapOverload", err)
	}
}

func TestAssessRejectsInvalidScenario(t *testing.T) {
	sys := build(t, casestudy.Baseline())
	if _, err := sys.Assess(failure.Scenario{Scope: 0}); err == nil {
		t.Error("invalid scenario accepted")
	}
}

func TestAssessAll(t *testing.T) {
	sys := build(t, casestudy.Baseline())
	as, err := sys.AssessAll(failure.CaseStudyScenarios())
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != 3 {
		t.Fatalf("got %d assessments", len(as))
	}
	// Losses strictly increase with blast radius in the baseline.
	if !(as[0].DataLoss < as[1].DataLoss && as[1].DataLoss < as[2].DataLoss) {
		t.Error("loss should grow with failure scope")
	}
	if _, err := sys.AssessAll([]failure.Scenario{{Scope: 0}}); err == nil {
		t.Error("AssessAll should propagate scenario errors")
	}
}

func TestBaselineWarnings(t *testing.T) {
	sys := build(t, casestudy.Baseline())
	warns := sys.Warnings()
	if len(warns) != 1 {
		t.Errorf("baseline warnings = %v, want the vault holdW warning", warns)
	}
}

func TestSystemAccessors(t *testing.T) {
	d := casestudy.Baseline()
	sys := build(t, d)
	if sys.Design() != d {
		t.Error("Design accessor")
	}
	if got := len(sys.Chain()); got != 3 {
		t.Errorf("chain levels = %d", got)
	}
	if sys.Device(device.NameDiskArray) == nil {
		t.Error("Device accessor")
	}
	if sys.Device("ghost") != nil {
		t.Error("ghost device should be nil")
	}
	if got := len(sys.Devices()); got != 4 {
		t.Errorf("devices = %d, want 4", got)
	}
}

// TestMirrorSiteRecoveryUsesFacility: with the recovery facility at a
// third site, a site disaster provisioning (9h) gates the mirror restore.
func TestMirrorSiteRecoveryUsesFacility(t *testing.T) {
	sys := build(t, casestudy.AsyncBMirror(10))
	a := assess(t, sys, failure.Scenario{Scope: failure.ScopeSite})
	if a.Plan.SourceName != "async-batch-mirror" {
		t.Errorf("source = %s", a.Plan.SourceName)
	}
	// 9h provisioning + ~2h over ten links.
	approx(t, a.RecoveryTime.Hours(), 11.0, 0.2, "10-link site RT")

	arr := assess(t, sys, failure.Scenario{Scope: failure.ScopeArray})
	// Hot spare (72s) + ~2h transfer.
	approx(t, arr.RecoveryTime.Hours(), 2.0, 0.1, "10-link array RT")
}

func TestAssessDegradedCompound(t *testing.T) {
	sys := build(t, casestudy.Baseline())
	sc := failure.Scenario{Scope: failure.ScopeArray}
	healthy := assess(t, sys, sc)

	// A compound outage covering the recovery path shifts the loss by the
	// recovery level's accumulated outage, like AssessDegraded does for a
	// single level.
	chain := sys.Chain()
	backup := chain.Index("backup")
	vault := len(chain)
	a, err := sys.AssessDegradedCompound(sc, []hierarchy.LevelOutage{
		{Level: backup, Outage: 2 * units.Week},
		{Level: vault, Outage: units.Week},
	})
	if err != nil {
		t.Fatal(err)
	}
	if a.WholeObjectLost {
		t.Fatal("compound degraded assessment lost the object")
	}
	if a.DataLoss < healthy.DataLoss {
		t.Errorf("compound degraded loss %v below healthy %v", a.DataLoss, healthy.DataLoss)
	}
	single, err := sys.AssessDegraded(sc, "backup", 2*units.Week)
	if err != nil {
		t.Fatal(err)
	}
	if a.DataLoss < single.DataLoss {
		t.Errorf("compound loss %v below single backup-outage loss %v", a.DataLoss, single.DataLoss)
	}

	// Invalid outage lists surface as errors.
	if _, err := sys.AssessDegradedCompound(sc, []hierarchy.LevelOutage{{Level: 0, Outage: time.Hour}}); err == nil {
		t.Error("level 0 accepted")
	}
	if _, err := sys.AssessDegradedCompound(sc, []hierarchy.LevelOutage{{Level: 1, Outage: -time.Hour}}); err == nil {
		t.Error("negative outage accepted")
	}
}
