package core

import (
	"fmt"
	"slices"
	"time"

	"stordep/internal/cost"
	"stordep/internal/device"
	"stordep/internal/failure"
	"stordep/internal/hierarchy"
	"stordep/internal/protect"
	"stordep/internal/units"
)

// System is a built design: devices carry their normal-mode demands, the
// hierarchy chain is assembled, and outlays are collected. Build once,
// then Assess against any number of failure scenarios. A System reads
// its design in place (levels, placements, requirements, and the device
// specs its devices point at), so the design must not be modified while
// the System is in use.
//
// A System the caller holds can be rebuilt with another design
// (Rebuild), reusing its storage. Everything the System handed out
// before, its chain, outlay items and devices, then belongs to the new
// build: it stays valid only until the next Rebuild or Reset. So a
// reused System suits a private, short-lived use, such as one probe or
// one candidate's evaluation, and must not be shared with code that
// keeps what it returns.
type System struct {
	design  *Design
	devices protect.DeviceMap
	chain   hierarchy.Chain
	outlays cost.Outlays
	// outlaysTotal caches outlays.Total() for the scoring hot path.
	outlaysTotal units.Money
	// spareAt caches each spared device's effective spare placement
	// (scenario-independent), indexed as Design.Devices, so per-scenario
	// resolution never rebuilds the derived placement. Only spared
	// devices' entries are meaningful; it is empty when no device has a
	// spare.
	spareAt []failure.Placement
	// fleet is the devices' storage, which Rebuild refits.
	fleet device.Fleet
}

// Build validates the design, instantiates its devices, applies every
// technique's normal-mode demands, and verifies the configuration can
// carry them (the global half of §3.3.1 — any device over 100% utilization
// is a design error). It is Rebuild into a new System.
func Build(d *Design) (*System, error) {
	sys := new(System)
	if err := sys.Rebuild(d); err != nil {
		return nil, err
	}
	return sys, nil
}

// Rebuild builds d into s as Build does, reusing the storage s holds
// from earlier builds: the device block and demand array, the chain,
// the outlay items and the spare placements, each replaced only when
// it is too small for d. A default spare placement that has not changed
// since the last build is kept. Once s has held a design of d's size,
// a Rebuild allocates nothing. What s returned before is overwritten
// (see System). On error, s must not be assessed until a later Rebuild
// succeeds.
func (s *System) Rebuild(d *Design) error {
	chain, err := d.validate(s.chain)
	if err != nil {
		return err
	}
	s.design, s.chain = d, chain
	// The primary copy and each level register at most one demand per
	// device.
	s.devices = newDevices(&s.fleet, d.Devices, len(d.Levels)+1)
	if err := d.Primary.ApplyDemands(d.Workload, s.devices); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	for i, tech := range d.Levels {
		if err := tech.ApplyDemands(d.Workload, s.devices); err != nil {
			return fmt.Errorf("core: level %d (%s): %w", i+1, tech.Name(), err)
		}
	}
	for _, dev := range s.devices {
		if err := dev.Check(); err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	s.outlays = collectOutlays(s.outlays.Items, d, s.devices)
	s.outlaysTotal = s.outlays.Total()
	s.placeSpares()
	return nil
}

// Reset drops every reference s holds to its design, keeping its
// storage for a later Rebuild, so a pooled System keeps no design
// alive. s must not be assessed until then.
func (s *System) Reset() {
	s.fleet.Clear()
	clear(s.chain[:cap(s.chain)])
	clear(s.outlays.Items[:cap(s.outlays.Items)])
	clear(s.spareAt[:cap(s.spareAt)])
	*s = System{
		chain:   s.chain[:0],
		outlays: cost.Outlays{Items: s.outlays.Items[:0]},
		spareAt: s.spareAt[:0],
		fleet:   s.fleet,
	}
}

// newDevices refits f with the placed devices, demand-free, in design
// order, with room for room demands each before a device's list
// regrows. The specs must have passed validation (Design.Validate).
func newDevices(f *device.Fleet, placed []PlacedDevice, room int) protect.DeviceMap {
	return f.Refit(len(placed), room, func(i int) *device.Spec { return &placed[i].Spec })
}

// newSystem assembles the System view of d, whose chain is given, over
// built devices carrying their demands, with the outlays charged to it.
// BuildMulti constructs each object's view through it.
func newSystem(d *Design, chain hierarchy.Chain, devs protect.DeviceMap, outlays cost.Outlays) *System {
	sys := &System{
		design:       d,
		devices:      devs,
		chain:        chain,
		outlays:      outlays,
		outlaysTotal: outlays.Total(),
	}
	sys.placeSpares()
	return sys
}

// placeSpares derives each spared device's effective spare placement
// into spareAt, keeping what an earlier build derived where it still
// applies.
func (s *System) placeSpares() {
	d := s.design
	s.spareAt = s.spareAt[:0]
	for i := range d.Devices {
		if pd := &d.Devices[i]; pd.Spec.HasSpare() {
			if len(s.spareAt) == 0 {
				s.spareAt = reuse(s.spareAt, len(d.Devices))
			}
			s.spareAt[i] = pd.sparePlacement(s.spareAt[i])
		}
	}
}

// collectOutlays gathers device outlays plus the shared recovery
// facility's retainer (CostFactor x the base outlays of the devices at the
// primary site, which the facility must be able to replace), into items'
// storage when it has room.
func collectOutlays(items []cost.OutlayItem, d *Design, ordered []*device.Device) cost.Outlays {
	out := cost.CollectOutlays(items, ordered)
	if d.Facility == nil || d.Facility.CostFactor == 0 {
		return out
	}
	primarySite := d.PrimaryPlacement().Site
	var covered units.Money
	for _, it := range out.Items {
		if pd := d.placedDevice(it.Device); pd != nil && pd.Placement.Site != "" && pd.Placement.Site == primarySite {
			covered += it.Base
		}
	}
	if covered > 0 {
		out.Items = append(out.Items, cost.OutlayItem{
			Device:    "recovery-facility",
			Technique: "recovery-facility",
			Base:      units.Money(d.Facility.CostFactor) * covered,
		})
	}
	return out
}

// Design returns the built design.
func (s *System) Design() *Design { return s.design }

// Chain returns the assembled hierarchy.
func (s *System) Chain() hierarchy.Chain { return s.chain }

// Outlays returns the design's annualized outlays.
func (s *System) Outlays() cost.Outlays { return s.outlays }

// Device returns the named built device (with demands applied), or nil.
func (s *System) Device(name string) *device.Device {
	dev, _ := s.devices.Get(name)
	return dev
}

// Devices returns the built devices in design order.
func (s *System) Devices() []*device.Device { return slices.Clone(s.devices) }

// Warnings reports the design's soft-convention violations (§3.2.1).
func (s *System) Warnings() []string { return s.chain.Warnings() }

// DeviceUtilization is the per-device, per-technique normal-mode
// utilization (the rows of Table 5).
type DeviceUtilization struct {
	Device string
	Rows   []device.TechUtilization
	// Overall utilization of the device across techniques.
	BWUtil  float64
	CapUtil float64
	// Absolute totals for the Table 5 parentheticals.
	Bandwidth units.Rate
	Capacity  units.ByteSize
}

// Utilization is the global normal-mode utilization: that of the most
// heavily utilized device in each dimension (§3.3.1).
type Utilization struct {
	// BW and Cap are the system utilizations (max over devices).
	BW  float64
	Cap float64
	// BWDevice and CapDevice name the binding devices.
	BWDevice  string
	CapDevice string
	// PerDevice holds the detailed breakdown.
	PerDevice []DeviceUtilization
}

// Utilization computes the normal-mode utilization report.
func (s *System) Utilization() Utilization {
	var u Utilization
	for _, dev := range s.Devices() {
		du := DeviceUtilization{
			Device:    dev.Name(),
			Rows:      dev.Utilizations(),
			BWUtil:    dev.BWUtil(),
			CapUtil:   dev.CapUtil(),
			Bandwidth: dev.TotalBandwidth(),
			Capacity:  dev.TotalCapacity(),
		}
		u.PerDevice = append(u.PerDevice, du)
		if du.BWUtil > u.BW {
			u.BW, u.BWDevice = du.BWUtil, du.Device
		}
		if du.CapUtil > u.Cap {
			u.Cap, u.CapDevice = du.CapUtil, du.Device
		}
	}
	return u
}

// SurvivingLevels appends to out the 1-based indices of hierarchy levels
// whose copy devices outlive the scenario, in level order, and returns
// the extended slice; scoring loops pass one buffer scenario after
// scenario. Multi-sited techniques (protect.MultiSited, e.g. erasure
// coding) survive when at least their threshold of copy devices does.
func (s *System) SurvivingLevels(out []int, sc failure.Scenario) []int {
	at := s.design.PrimaryPlacement()
	for i, tech := range s.design.Levels {
		if ms, ok := tech.(protect.MultiSited); ok {
			if survives, _ := s.multiSurvival(ms, sc.Scope); survives {
				out = append(out, i+1)
			}
			continue
		}
		pd := s.design.placedDevice(tech.CopyDevice())
		if pd == nil {
			continue
		}
		if pd.Placement.Survives(sc.Scope, at) {
			out = append(out, i+1)
		}
	}
	return out
}

// multiSurvival reports whether a multi-sited technique keeps its
// survival threshold of copy devices under the scope, and names the
// first surviving one ("" when none does), from which a restore streams.
func (s *System) multiSurvival(ms protect.MultiSited, scope failure.Scope) (survives bool, first string) {
	at := s.design.PrimaryPlacement()
	n := 0
	for _, name := range ms.CopyDevices() {
		if pd := s.design.placedDevice(name); pd != nil && pd.Placement.Survives(scope, at) {
			if n == 0 {
				first = name
			}
			n++
		}
	}
	return n >= ms.SurvivalThreshold(), first
}

// Device resolution kinds: what serves in a device's role after a
// failure.
const (
	// resNone: the device is gone and nothing replaces it, so no restore
	// can go through it.
	resNone uint8 = iota
	// resIntact: the device itself survives.
	resIntact
	// resReplaced: spare or facility hardware stands in after its
	// provisioning delay.
	resReplaced
)

// resolution is what serves in one device's role under one scope.
type resolution struct {
	kind uint8
	// provision is the stand-in's provisioning delay (zero when intact).
	provision time.Duration
	// site is where the serving hardware sits.
	site string
	// label is the report suffix naming a stand-in ("", " (spare)" or
	// " (facility)").
	label string
}

// resolve determines what serves in the role of device di (its index in
// Design.Devices) under the scope: the device itself, its surviving
// spare, or the surviving facility's replacement hardware, in that order
// of preference.
func (s *System) resolve(di int, scope failure.Scope) resolution {
	pd := &s.design.Devices[di]
	at := s.design.PrimaryPlacement()
	if pd.Placement.Survives(scope, at) {
		return resolution{kind: resIntact, site: pd.Placement.Site}
	}
	if pd.Spec.HasSpare() {
		if sp := &s.spareAt[di]; sp.Survives(scope, at) {
			return resolution{kind: resReplaced, provision: pd.Spec.Spare.ProvisionTime, site: sp.Site, label: " (spare)"}
		}
	}
	if f := s.design.Facility; f != nil && f.Placement.Survives(scope, at) {
		return resolution{kind: resReplaced, provision: f.ProvisionTime, site: f.Placement.Site, label: " (facility)"}
	}
	return resolution{}
}
