package core_test

import (
	"errors"
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

// multiDesign builds a two-object service over the case-study fleet: a
// catalog volume (small, mirrored 4-hourly) and a data volume (the cello
// workload, baseline protection) that depends on the catalog.
func multiDesign(t *testing.T) *core.MultiDesign {
	t.Helper()
	base := casestudy.Baseline()

	catalog := &workload.Workload{
		Name:          "catalog",
		DataCap:       50 * units.GB,
		AvgAccessRate: 200 * units.KBPerSec,
		AvgUpdateRate: 100 * units.KBPerSec,
		BurstMult:     4,
		BatchCurve: []workload.BatchPoint{
			{Window: time.Minute, Rate: 90 * units.KBPerSec},
			{Window: 12 * time.Hour, Rate: 40 * units.KBPerSec},
		},
	}
	catalogMirror := hierarchyPolicy(t, 4*time.Hour, 10) // 36h of 4-hourly mirrors
	return &core.MultiDesign{
		Name:         "retail-service",
		Requirements: cost.CaseStudyRequirements(),
		Devices:      base.Devices,
		Facility:     base.Facility,
		Objects: []core.ObjectSpec{
			{
				Name:     "catalog",
				Workload: catalog,
				Primary:  &protect.Primary{Array: device.NameDiskArray},
				Levels: []protect.Technique{
					&protect.SplitMirror{InstanceName: "catalog-mirror", Array: device.NameDiskArray, Pol: catalogMirror},
					&protect.Backup{InstanceName: "catalog-backup", SourceArray: device.NameDiskArray,
						Target: device.NameTapeLibrary, Pol: casestudy.BackupPolicy()},
				},
			},
			{
				Name:      "orders",
				Workload:  workload.Cello(),
				Primary:   &protect.Primary{Array: device.NameDiskArray},
				DependsOn: []string{"catalog"},
				Levels: []protect.Technique{
					&protect.SplitMirror{InstanceName: "orders-mirror", Array: device.NameDiskArray, Pol: casestudy.SplitMirrorPolicy()},
					&protect.Backup{InstanceName: "orders-backup", SourceArray: device.NameDiskArray,
						Target: device.NameTapeLibrary, Pol: casestudy.BackupPolicy()},
				},
			},
		},
	}
}

func hierarchyPolicy(t *testing.T, accW time.Duration, retCnt int) (pol hierarchy.Policy) {
	t.Helper()
	pol = hierarchy.Policy{
		Primary: hierarchy.WindowSet{AccW: accW, Rep: hierarchy.RepFull},
		RetCnt:  retCnt,
		RetW:    time.Duration(retCnt) * accW,
		CopyRep: hierarchy.RepFull,
	}
	if err := pol.Validate(); err != nil {
		t.Fatal(err)
	}
	return pol
}

func TestMultiBuildAndUtilization(t *testing.T) {
	ms, err := core.BuildMulti(multiDesign(t))
	if err != nil {
		t.Fatal(err)
	}
	if got := ms.Objects(); len(got) != 2 || got[0] != "catalog" || got[1] != "orders" {
		t.Errorf("objects = %v", got)
	}
	// Shared-fleet aggregation: the array carries both objects' demands.
	u := ms.Utilization()
	if u.Cap <= 0.873 {
		t.Errorf("aggregate capUtil = %.4f, want above the single-object 0.873", u.Cap)
	}
	if ms.Outlays().Total() <= 0 {
		t.Error("no outlays")
	}
	// Per-object view exists and shares devices.
	if ms.Object("catalog") == nil || ms.Object("orders") == nil {
		t.Fatal("missing object systems")
	}
	if ms.Object("nope") != nil {
		t.Error("ghost object")
	}
}

func TestMultiAggregateOverload(t *testing.T) {
	md := multiDesign(t)
	// Two 1360 GB objects with five mirrors each fit; four do not.
	big, err := workload.Cello().Scale(1.7)
	if err != nil {
		t.Fatal(err)
	}
	md.Objects[0].Workload = big
	if _, err := core.BuildMulti(md); !errors.Is(err, device.ErrCapOverload) {
		t.Errorf("BuildMulti = %v, want ErrCapOverload", err)
	}
}

func TestMultiValidateErrors(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*core.MultiDesign)
		wantErr error
	}{
		{"no objects", func(md *core.MultiDesign) { md.Objects = nil }, core.ErrNoObjects},
		{"dup object", func(md *core.MultiDesign) { md.Objects[1].Name = "catalog" }, core.ErrDupObject},
		{"empty object name", func(md *core.MultiDesign) { md.Objects[0].Name = "" }, core.ErrDupObject},
		{"dup technique", func(md *core.MultiDesign) {
			md.Objects[1].Levels = md.Objects[0].Levels
		}, core.ErrDupTech},
		{"dup technique within object", func(md *core.MultiDesign) {
			md.Objects[0].Levels = append(md.Objects[0].Levels, md.Objects[0].Levels[0])
		}, core.ErrDupTech},
		{"unknown dep", func(md *core.MultiDesign) {
			md.Objects[1].DependsOn = []string{"ghost"}
		}, core.ErrUnknownDep},
		{"empty dep name", func(md *core.MultiDesign) {
			md.Objects[1].DependsOn = []string{""}
		}, core.ErrUnknownDep},
		{"cycle", func(md *core.MultiDesign) {
			md.Objects[0].DependsOn = []string{"orders"}
		}, core.ErrDependCycle},
		{"self cycle", func(md *core.MultiDesign) {
			md.Objects[0].DependsOn = []string{"catalog"}
		}, core.ErrDependCycle},
		{"three-node cycle", func(md *core.MultiDesign) {
			web := md.Objects[0]
			web.Name = "web"
			web.Workload = web.Workload.Clone()
			web.Workload.Name = "web"
			web.Levels = []protect.Technique{
				&protect.Backup{InstanceName: "web-backup", SourceArray: device.NameDiskArray,
					Target: device.NameTapeLibrary, Pol: casestudy.BackupPolicy()},
			}
			web.DependsOn = []string{"orders"}
			md.Objects = append(md.Objects, web)
			md.Objects[0].DependsOn = []string{"web"}
		}, core.ErrDependCycle},
		{"invalid object design", func(md *core.MultiDesign) {
			md.Objects[0].Workload = nil
		}, core.ErrNoWorkload},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			md := multiDesign(t)
			tt.mutate(md)
			if err := md.Validate(); !errors.Is(err, tt.wantErr) {
				t.Errorf("Validate() = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestMultiAssessDependencies(t *testing.T) {
	ms, err := core.BuildMulti(multiDesign(t))
	if err != nil {
		t.Fatal(err)
	}
	sa, err := ms.Assess(failure.Scenario{Scope: failure.ScopeArray})
	if err != nil {
		t.Fatal(err)
	}
	if len(sa.Objects) != 2 {
		t.Fatalf("objects = %d", len(sa.Objects))
	}
	byName := map[string]core.ObjectAssessment{}
	for _, oa := range sa.Objects {
		byName[oa.Object] = oa
	}
	cat, orders := byName["catalog"], byName["orders"]
	// The catalog recovers on its own schedule; orders serialize behind it.
	if cat.EffectiveRT != cat.RecoveryTime {
		t.Errorf("catalog effective RT = %v, own %v", cat.EffectiveRT, cat.RecoveryTime)
	}
	if orders.EffectiveRT != cat.RecoveryTime+orders.RecoveryTime {
		t.Errorf("orders effective RT = %v, want %v + %v",
			orders.EffectiveRT, cat.RecoveryTime, orders.RecoveryTime)
	}
	// Service metrics take the critical path and the worst loss.
	if sa.RecoveryTime != orders.EffectiveRT {
		t.Errorf("service RT = %v, want %v", sa.RecoveryTime, orders.EffectiveRT)
	}
	if sa.DataLoss < orders.DataLoss || sa.DataLoss < cat.DataLoss {
		t.Errorf("service DL = %v below object losses", sa.DataLoss)
	}
	// Penalties follow the service metrics.
	wantPen := cost.Assess(cost.CaseStudyRequirements(), sa.RecoveryTime, sa.DataLoss)
	if sa.Cost.Penalties != wantPen {
		t.Errorf("penalties = %+v, want %+v", sa.Cost.Penalties, wantPen)
	}
}

func TestMultiAssessObjectScope(t *testing.T) {
	ms, err := core.BuildMulti(multiDesign(t))
	if err != nil {
		t.Fatal(err)
	}
	// Object-scope corruption: both objects roll back from their mirrors;
	// catalog mirrors split 4-hourly so the service-level loss is the
	// orders mirror's 12h window.
	sa, err := ms.Assess(failure.Scenario{Scope: failure.ScopeObject, TargetAge: 24 * time.Hour, RecoverSize: units.MB})
	if err != nil {
		t.Fatal(err)
	}
	if sa.DataLoss != 12*time.Hour {
		t.Errorf("service DL = %v, want the orders mirror's 12h", sa.DataLoss)
	}
}

func TestMultiUnrecoverableObjectPropagates(t *testing.T) {
	md := multiDesign(t)
	md.Facility = nil
	ms, err := core.BuildMulti(md)
	if err != nil {
		t.Fatal(err)
	}
	sa, err := ms.Assess(failure.Scenario{Scope: failure.ScopeSite})
	if err != nil {
		t.Fatal(err)
	}
	if sa.RecoveryTime != units.Forever || sa.DataLoss != units.Forever {
		t.Errorf("service should be unrecoverable: RT %v DL %v", sa.RecoveryTime, sa.DataLoss)
	}
}

// TestMultiSingleObjectMatchesBuild: a one-object MultiDesign over
// Baseline's fleet is Baseline, so its object view must brief exactly as
// Build(Baseline) does under every case-study scenario — dedicated
// spares stand in before the facility, and Total carries the outlays.
func TestMultiSingleObjectMatchesBuild(t *testing.T) {
	d := casestudy.Baseline()
	sys, err := core.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := core.BuildMulti(&core.MultiDesign{
		Name:         d.Name,
		Requirements: d.Requirements,
		Devices:      d.Devices,
		Facility:     d.Facility,
		Objects:      []core.ObjectSpec{{Name: "cello", Workload: d.Workload, Primary: d.Primary, Levels: d.Levels}},
	})
	if err != nil {
		t.Fatal(err)
	}
	view := ms.Object("cello")
	for _, sc := range failure.CaseStudyScenarios() {
		want, err := sys.AssessBrief(sc, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := view.AssessBrief(sc, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: object view %+v, Build %+v", sc.DisplayName(), got, want)
		}
	}
}
