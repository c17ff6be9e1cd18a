// Package core composes the framework's components — workload, devices,
// data protection techniques, hierarchy math, recovery and cost models —
// into the paper's top-level evaluation (§3.3): given a storage system
// design, a workload, business requirements and a failure scenario,
// produce the four output metrics of Table 1: normal-mode system
// utilization, worst-case recovery time, worst-case recent data loss, and
// overall cost.
package core

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"stordep/internal/cost"
	"stordep/internal/device"
	"stordep/internal/failure"
	"stordep/internal/hierarchy"
	"stordep/internal/protect"
	"stordep/internal/workload"
)

// PlacedDevice binds a device spec to a physical location. SparePlacement
// locates the device's spare resources; when left zero for a device with a
// dedicated spare, the spare is assumed to sit at the device's own site in
// separate hardware (it survives an array failure but not a site
// disaster).
type PlacedDevice struct {
	Spec           device.Spec
	Placement      failure.Placement
	SparePlacement failure.Placement
}

// sparePlacement returns the effective spare placement: SparePlacement,
// or by default the device's own placement in a separate "-spare"
// array. A rebuild passes as prev the placement it derived last time,
// returned when it still applies, so an unchanged default does not
// concatenate its array name again.
func (p *PlacedDevice) sparePlacement(prev failure.Placement) failure.Placement {
	if p.SparePlacement != (failure.Placement{}) {
		return p.SparePlacement
	}
	const suffix = "-spare"
	sp, array := p.Placement, p.Placement.Array
	if array == "" {
		return sp
	}
	sp.Array = prev.Array
	if sp == prev && len(prev.Array) == len(array)+len(suffix) &&
		strings.HasPrefix(prev.Array, array) && strings.HasSuffix(prev.Array, suffix) {
		return prev
	}
	sp.Array = array + suffix
	return sp
}

// Facility is a shared recovery facility (§4: "a remote shared recovery
// facility"): replacement hardware for failed devices whose own spares are
// also gone, provisioned by draining and scrubbing shared resources.
type Facility struct {
	// Placement locates the facility (it must survive the scenarios it is
	// meant to cover).
	Placement failure.Placement
	// ProvisionTime is the delay before replacement resources are usable
	// (nine hours in the case study).
	ProvisionTime time.Duration
	// CostFactor is the annual retainer as a fraction of the base outlays
	// of the devices covered (20% in the case study: "because the
	// resources are shared, they cost only 20% of the dedicated
	// resources").
	CostFactor float64
}

// Design is a complete storage system design: the workload it serves, the
// business requirements it must meet, the hardware fleet, the primary
// copy, and the ordered data protection levels.
type Design struct {
	// Name labels the design in reports.
	Name string
	// Workload is the foreground workload (Table 2).
	Workload *workload.Workload
	// Requirements are the penalty rates (§3.1.2).
	Requirements cost.Requirements
	// Devices is the hardware fleet with placements (Table 4).
	Devices []PlacedDevice
	// Primary is the level-0 copy.
	Primary *protect.Primary
	// Levels are the secondary techniques, nearest first (level 1..n).
	Levels []protect.Technique
	// Facility, if non-nil, is the shared recovery facility used when a
	// device and its spare both fall inside the failure scope.
	Facility *Facility
}

// Validation errors.
var (
	ErrNoWorkload   = errors.New("core: design needs a workload")
	ErrNoPrimary    = errors.New("core: design needs a primary copy")
	ErrNoDevices    = errors.New("core: design needs devices")
	ErrDupDevice    = errors.New("core: duplicate device name")
	ErrBadFacility  = errors.New("core: facility configuration invalid")
	ErrUnknownLevel = errors.New("core: level references unknown device")
)

// Validate checks the whole design for consistency: every component
// validates individually, device names are unique, and every technique
// references devices that exist.
func (d *Design) Validate() error {
	_, err := d.validate(nil)
	return err
}

// validate is Validate returning the design's chain, which it assembles
// to check, in buf's storage when it has room, so that a build assembles
// it once.
func (d *Design) validate(buf hierarchy.Chain) (hierarchy.Chain, error) {
	if d.Workload == nil {
		return nil, ErrNoWorkload
	}
	if err := d.Workload.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if err := d.Requirements.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if d.Primary == nil {
		return nil, ErrNoPrimary
	}
	if err := d.Primary.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if len(d.Devices) == 0 {
		return nil, ErrNoDevices
	}
	for i := range d.Devices {
		spec := &d.Devices[i].Spec
		if err := spec.Validate(); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		if d.deviceIndex(spec.Name) < i {
			return nil, fmt.Errorf("%w: %q", ErrDupDevice, spec.Name)
		}
	}
	if d.deviceIndex(d.Primary.Array) < 0 {
		return nil, fmt.Errorf("%w: primary array %q", ErrUnknownLevel, d.Primary.Array)
	}
	for i, tech := range d.Levels {
		if err := tech.Validate(); err != nil {
			return nil, fmt.Errorf("core: level %d: %w", i+1, err)
		}
		refs := []string{tech.CopyDevice(), tech.ReadDevice()}
		if ms, ok := tech.(protect.MultiSited); ok {
			refs = append(refs, ms.CopyDevices()...)
		}
		for _, ref := range refs {
			if d.deviceIndex(ref) < 0 {
				return nil, fmt.Errorf("%w: level %d (%s) -> %q", ErrUnknownLevel, i+1, tech.Name(), ref)
			}
		}
		if tr := tech.TransportDevice(); tr != "" && d.deviceIndex(tr) < 0 {
			return nil, fmt.Errorf("%w: level %d (%s) -> transport %q", ErrUnknownLevel, i+1, tech.Name(), tr)
		}
	}
	if d.Facility != nil {
		if d.Facility.ProvisionTime < 0 || d.Facility.CostFactor < 0 {
			return nil, ErrBadFacility
		}
	}
	// The hierarchy chain must also hold together.
	chain := d.appendChain(buf[:0])
	if len(d.Levels) > 0 {
		if err := chain.Validate(); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	return chain, nil
}

// Chain assembles the hierarchy levels from the design's techniques.
func (d *Design) Chain() hierarchy.Chain { return d.appendChain(nil) }

// appendChain assembles the chain into c's storage, emptied, when it
// has room for every level, and into a new chain otherwise.
func (d *Design) appendChain(c hierarchy.Chain) hierarchy.Chain {
	if c == nil || cap(c) < len(d.Levels) {
		c = make(hierarchy.Chain, 0, len(d.Levels))
	}
	c = c[:0]
	for _, tech := range d.Levels {
		c = append(c, tech.Level())
	}
	return c
}

// PrimaryPlacement returns the placement of the primary array, the
// location failures strike in scenarios.
func (d *Design) PrimaryPlacement() failure.Placement {
	if pd := d.placedDevice(d.Primary.Array); pd != nil {
		return pd.Placement
	}
	return failure.Placement{}
}

// deviceIndex returns the index in Devices of the first device of the
// given name, or -1. A design has a handful of devices, so a scan beats
// building a set.
func (d *Design) deviceIndex(name string) int {
	for i := range d.Devices {
		if d.Devices[i].Spec.Name == name {
			return i
		}
	}
	return -1
}

// placedDevice returns the placed device by name, or nil.
func (d *Design) placedDevice(name string) *PlacedDevice {
	if i := d.deviceIndex(name); i >= 0 {
		return &d.Devices[i]
	}
	return nil
}
