package cost

import (
	"math"
	"strings"
	"testing"
	"time"

	"stordep/internal/device"
	"stordep/internal/units"
)

func TestRequirementsValidate(t *testing.T) {
	req := CaseStudyRequirements()
	if err := req.Validate(); err != nil {
		t.Errorf("case study requirements invalid: %v", err)
	}
	bad := Requirements{UnavailPenaltyRate: -1}
	if err := bad.Validate(); err == nil {
		t.Error("negative rate accepted")
	}
	bad = Requirements{LossPenaltyRate: -1}
	if err := bad.Validate(); err == nil {
		t.Error("negative loss rate accepted")
	}
}

func TestCaseStudyRates(t *testing.T) {
	req := CaseStudyRequirements()
	if got := req.UnavailPenaltyRate.DollarsPerHour(); math.Abs(got-50_000) > 1e-6 {
		t.Errorf("unavail rate = %v", got)
	}
	if got := req.LossPenaltyRate.DollarsPerHour(); math.Abs(got-50_000) > 1e-6 {
		t.Errorf("loss rate = %v", got)
	}
}

// TestAssessTable6Penalties checks the penalty arithmetic against the
// paper's baseline array failure: RT 2.4h and DL 217h at $50k/hr each give
// $10.97M of penalties (Table 7 "Baseline" row).
func TestAssessTable6Penalties(t *testing.T) {
	req := CaseStudyRequirements()
	p := Assess(req, time.Duration(2.4*float64(time.Hour)), 217*time.Hour)
	if got := float64(p.Outage); math.Abs(got-120_000) > 1 {
		t.Errorf("outage penalty = %v, want $120k", p.Outage)
	}
	if got := float64(p.Loss); math.Abs(got-10_850_000) > 1 {
		t.Errorf("loss penalty = %v, want $10.85M", p.Loss)
	}
	if got := float64(p.Total()); math.Abs(got-10_970_000) > 1 {
		t.Errorf("total penalties = %v, want $10.97M", p.Total())
	}
}

func TestAssessUnrecoverable(t *testing.T) {
	req := CaseStudyRequirements()
	p := Assess(req, units.Forever, units.Forever)
	if !math.IsInf(float64(p.Outage), 1) || !math.IsInf(float64(p.Loss), 1) {
		t.Errorf("unrecoverable penalties = %+v, want +Inf", p)
	}
	if !math.IsInf(float64(p.Total()), 1) {
		t.Error("total should be +Inf")
	}
}

func buildDevices(t *testing.T) []*device.Device {
	t.Helper()
	arr, err := device.New(device.MidrangeArray())
	if err != nil {
		t.Fatal(err)
	}
	arr.AddDemand(device.Demand{Technique: "foreground", Capacity: 1360 * units.GB})
	arr.AddDemand(device.Demand{Technique: "split-mirror", Capacity: 5 * 1360 * units.GB})
	vault, err := device.New(device.TapeVault())
	if err != nil {
		t.Fatal(err)
	}
	vault.AddDemand(device.Demand{Technique: "vaulting", Capacity: 39 * 1360 * units.GB})
	return []*device.Device{arr, vault}
}

func TestCollectOutlays(t *testing.T) {
	out := CollectOutlays(nil, buildDevices(t))
	if len(out.Items) != 3 {
		t.Fatalf("items = %d, want 3", len(out.Items))
	}
	// Array foreground: (123297 + 2720x17.2) x2 for the dedicated spare.
	wantFG := 2 * (123297 + 2*1360*17.2)
	var fg units.Money
	for _, it := range out.Items {
		if it.Technique == "foreground" {
			fg += it.Total()
		}
	}
	if math.Abs(float64(fg)-wantFG) > 1 {
		t.Errorf("foreground outlay = %v, want %v", fg, wantFG)
	}
	// Vault has no spare.
	for _, it := range out.Items {
		if it.Device == device.NameTapeVault && it.Spare != 0 {
			t.Errorf("vault spare = %v, want 0", it.Spare)
		}
	}
}

func TestOutlaysByTechnique(t *testing.T) {
	out := CollectOutlays(nil, buildDevices(t))
	m, names := out.ByTechnique()
	if len(names) != 3 {
		t.Fatalf("techniques = %v", names)
	}
	// Sorted by descending outlay: split-mirror carries five mirrors and
	// dominates.
	if names[0] != "split-mirror" {
		t.Errorf("largest outlay = %q, want split-mirror", names[0])
	}
	var sum units.Money
	for _, v := range m {
		sum += v
	}
	if math.Abs(float64(sum-out.Total())) > 1e-6 {
		t.Errorf("ByTechnique sum %v != Total %v", sum, out.Total())
	}
}

func TestSummary(t *testing.T) {
	out := CollectOutlays(nil, buildDevices(t))
	req := CaseStudyRequirements()
	s := Summary{Outlays: out, Penalties: Assess(req, 2*time.Hour, 10*time.Hour)}
	wantPen := units.Money(12 * 50_000)
	if math.Abs(float64(s.Penalties.Total()-wantPen)) > 1 {
		t.Errorf("penalties = %v, want %v", s.Penalties.Total(), wantPen)
	}
	if s.Total() != s.Outlays.Total()+s.Penalties.Total() {
		t.Error("Total mismatch")
	}
	str := s.String()
	if !strings.Contains(str, "outlays") || !strings.Contains(str, "penalties") {
		t.Errorf("String() = %q", str)
	}
}

func TestEmptyOutlays(t *testing.T) {
	var o Outlays
	if o.Total() != 0 {
		t.Error("empty outlays should be zero")
	}
	m, names := o.ByTechnique()
	if len(m) != 0 || len(names) != 0 {
		t.Error("empty outlays should have no techniques")
	}
}

func TestOutlaysByDevice(t *testing.T) {
	out := CollectOutlays(nil, buildDevices(t))
	m, names := out.ByDevice()
	if len(names) != 2 {
		t.Fatalf("devices = %v", names)
	}
	if names[0] != device.NameDiskArray {
		t.Errorf("largest spender = %q", names[0])
	}
	var sum units.Money
	for _, v := range m {
		sum += v
	}
	if math.Abs(float64(sum-out.Total())) > 1e-6 {
		t.Errorf("ByDevice sum %v != Total %v", sum, out.Total())
	}
}
