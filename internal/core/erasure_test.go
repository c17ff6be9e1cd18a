package core_test

import (
	"math"
	"testing"
	"time"

	"stordep/internal/core"
	"stordep/internal/cost"
	"stordep/internal/device"
	"stordep/internal/failure"
	"stordep/internal/hierarchy"
	"stordep/internal/protect"
	"stordep/internal/units"
	"stordep/internal/workload"
)

// erasureDesign spreads cello over a 5-of-3 erasure code across arrays in
// five distinct regions, disseminated over WAN links.
func erasureDesign(fragments, threshold int) *core.Design {
	regionNames := []string{"west", "central", "east", "north", "south", "overseas"}
	devices := []core.PlacedDevice{
		{Spec: device.MidrangeArray(), Placement: failure.Placement{Array: "a0", Building: "b0", Site: "hq", Region: "west"}},
		{Spec: device.WANLinks(4)},
	}
	sites := make([]string, 0, fragments)
	for i := 0; i < fragments; i++ {
		spec := device.RemoteMirrorArray()
		spec.Name = spec.Name + string(rune('a'+i))
		region := regionNames[(i+1)%len(regionNames)]
		devices = append(devices, core.PlacedDevice{
			Spec: spec,
			Placement: failure.Placement{
				Array: spec.Name, Building: "b", Site: "frag-" + spec.Name, Region: region,
			},
		})
		sites = append(sites, spec.Name)
	}
	pol := hierarchy.Policy{
		Primary: hierarchy.WindowSet{AccW: time.Hour, PropW: time.Hour, Rep: hierarchy.RepPartial},
		RetCnt:  2,
		RetW:    2 * time.Hour,
		CopyRep: hierarchy.RepFull,
	}
	return &core.Design{
		Name:         "erasure",
		Workload:     workload.Cello(),
		Requirements: cost.CaseStudyRequirements(),
		Devices:      devices,
		Primary:      &protect.Primary{Array: device.NameDiskArray},
		Levels: []protect.Technique{
			&protect.ErasureCode{
				Fragments: fragments,
				Threshold: threshold,
				Sites:     sites,
				Links:     device.NameWANLinks,
				Pol:       pol,
			},
		},
		Facility: &core.Facility{
			Placement:     failure.Placement{Site: "rec-site", Region: "rec-region"},
			ProvisionTime: 9 * time.Hour,
			CostFactor:    0.2,
		},
	}
}

func TestErasureValidate(t *testing.T) {
	if err := erasureDesign(5, 3).Validate(); err != nil {
		t.Fatalf("valid erasure design rejected: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*protect.ErasureCode)
	}{
		{"threshold above fragments", func(e *protect.ErasureCode) { e.Threshold = 9 }},
		{"zero threshold", func(e *protect.ErasureCode) { e.Threshold = 0 }},
		{"site count mismatch", func(e *protect.ErasureCode) { e.Sites = e.Sites[:2] }},
		{"duplicate sites", func(e *protect.ErasureCode) { e.Sites[1] = e.Sites[0] }},
		{"empty site", func(e *protect.ErasureCode) { e.Sites[0] = "" }},
		{"no links", func(e *protect.ErasureCode) { e.Links = "" }},
		{"bad policy", func(e *protect.ErasureCode) { e.Pol = hierarchy.Policy{} }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			d := erasureDesign(5, 3)
			tt.mutate(d.Levels[0].(*protect.ErasureCode))
			if err := d.Validate(); err == nil {
				t.Error("invalid erasure config accepted")
			}
		})
	}
	// A site name not in the fleet is caught at the design level.
	d := erasureDesign(5, 3)
	d.Levels[0].(*protect.ErasureCode).Sites[4] = "ghost"
	if err := d.Validate(); err == nil {
		t.Error("ghost site accepted")
	}
}

func TestErasureDemands(t *testing.T) {
	sys, err := core.Build(erasureDesign(5, 3))
	if err != nil {
		t.Fatal(err)
	}
	w := workload.Cello()
	ec := sys.Design().Levels[0].(*protect.ErasureCode)

	// Links carry batchUpdR(1h) x 5/3.
	links := sys.Device(device.NameWANLinks)
	wantLink := units.Rate(5.0/3.0) * w.BatchUpdateRate(time.Hour)
	var linkDemand units.Rate
	for _, dem := range links.Demands() {
		if dem.Technique == ec.Name() {
			linkDemand += dem.Bandwidth
		}
	}
	if math.Abs(float64(linkDemand-wantLink)) > 1 {
		t.Errorf("link demand = %v, want %v", linkDemand, wantLink)
	}

	// Each fragment site stores retCnt x dataCap/3.
	wantCap := 2 * w.DataCap / 3
	for _, site := range ec.CopyDevices() {
		dev := sys.Device(site)
		if got := dev.TotalCapacity(); math.Abs(float64(got-wantCap)) > 1 {
			t.Errorf("%s capacity = %v, want %v", site, got, wantCap)
		}
	}

	// Total fragment storage is the n/m stretch (5/3 x dataCap per
	// retained cycle), well below 5 full mirrors.
	var total units.ByteSize
	for _, site := range ec.CopyDevices() {
		total += sys.Device(site).TotalCapacity()
	}
	if stretch := float64(total) / float64(2*w.DataCap); math.Abs(stretch-5.0/3.0) > 0.01 {
		t.Errorf("storage stretch = %.3f, want 1.667", stretch)
	}
}

// TestErasureThresholdSurvivability: the level survives any failure that
// leaves at least 3 of 5 fragment sites; a region failure takes out only
// the co-regional fragment.
func TestErasureThresholdSurvivability(t *testing.T) {
	sys, err := core.Build(erasureDesign(5, 3))
	if err != nil {
		t.Fatal(err)
	}
	// Site disaster at hq: all five fragments survive.
	if got := sys.SurvivingLevels(nil, failure.Scenario{Scope: failure.ScopeSite}); len(got) != 1 {
		t.Errorf("site survivors = %v", got)
	}
	// Region failure (west): the hq array dies; fragment "a" sits in
	// central etc. — the design places fragment regions round-robin, so at
	// most one fragment shares the west region. 4 >= 3 survive.
	if got := sys.SurvivingLevels(nil, failure.Scenario{Scope: failure.ScopeRegion}); len(got) != 1 {
		t.Errorf("region survivors = %v", got)
	}
	a, err := sys.Assess(failure.Scenario{Scope: failure.ScopeRegion})
	if err != nil {
		t.Fatal(err)
	}
	if a.WholeObjectLost {
		t.Fatal("erasure coding should survive a region failure")
	}
	if a.Plan.SourceName != "erasure-code" {
		t.Errorf("source = %s", a.Plan.SourceName)
	}
	// Worst-case loss: accW + propW of the dissemination policy.
	if a.DataLoss != 2*time.Hour {
		t.Errorf("loss = %v, want 2h", a.DataLoss)
	}
}

// TestErasureBelowThresholdLost: a 3-of-2 code with all fragments in one
// region dies with that region.
func TestErasureBelowThresholdLost(t *testing.T) {
	d := erasureDesign(3, 2)
	// Collapse every fragment into the primary's region.
	for i := range d.Devices {
		if d.Devices[i].Spec.Kind == device.KindStorage {
			d.Devices[i].Placement.Region = "west"
		}
	}
	d.Facility.Placement.Region = "east"
	sys, err := core.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	a, err := sys.Assess(failure.Scenario{Scope: failure.ScopeRegion})
	if err != nil {
		t.Fatal(err)
	}
	if !a.WholeObjectLost {
		t.Error("co-regional fragments should not survive a region failure")
	}
}

// TestErasureVsMirrorEconomics: at equal protection scope, the 5-of-3
// code stores 1.67x the object where full mirroring to five sites would
// store 5x — the storage argument for erasure codes.
func TestErasureVsMirrorEconomics(t *testing.T) {
	sys, err := core.Build(erasureDesign(5, 3))
	if err != nil {
		t.Fatal(err)
	}
	var fragStorage units.ByteSize
	ec := sys.Design().Levels[0].(*protect.ErasureCode)
	for _, site := range ec.CopyDevices() {
		fragStorage += sys.Device(site).TotalCapacity()
	}
	fullMirrors := 5 * 2 * workload.Cello().DataCap // retCnt 2 at five sites
	if fragStorage*2 >= fullMirrors {
		t.Errorf("erasure storage %v should be well below mirrored %v", fragStorage, fullMirrors)
	}
}
