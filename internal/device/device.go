// Package device models the physical storage and interconnect devices that
// data protection techniques place workload demands on (§3.2.2 of the
// paper, Table 1 "device configuration" parameters, Table 4 case-study
// values).
//
// Every device has an enclosure with bandwidth components (disks, tape
// drives, links) and capacity components (disks, tape cartridges, vault
// slots). The enclosure limits the number of each and the aggregate
// bandwidth. Each device computes its own utilization and outlay costs so
// that internal architecture details (e.g. a disk array's RAID-1 capacity
// overhead) stay localized in the device model, exactly as §3.3.1 and
// §3.3.5 prescribe.
package device

import (
	"errors"
	"fmt"
	"time"

	"stordep/internal/units"
)

// Kind classifies devices.
type Kind int

// Device kinds.
const (
	// KindStorage is a disk array, tape library or vault.
	KindStorage Kind = iota + 1
	// KindInterconnect is a network path (SAN, WAN links).
	KindInterconnect
	// KindTransport is a physical shipment method (courier, air freight).
	KindTransport
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case KindStorage:
		return "storage"
	case KindInterconnect:
		return "interconnect"
	case KindTransport:
		return "transport"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// SpareKind describes what spare resources back a device (Table 1
// spareType).
type SpareKind int

// Spare kinds.
const (
	// SpareNone means no spare: after a failure the device must be
	// repurchased and reinstalled; recovery cannot be modeled.
	SpareNone SpareKind = iota + 1
	// SpareDedicated is a hot spare owned outright.
	SpareDedicated
	// SpareShared is capacity at a shared recovery facility, cheaper but
	// slower to provision (it must be drained and scrubbed first).
	SpareShared
)

// String returns the spare kind name.
func (k SpareKind) String() string {
	switch k {
	case SpareNone:
		return "none"
	case SpareDedicated:
		return "dedicated"
	case SpareShared:
		return "shared"
	default:
		return fmt.Sprintf("SpareKind(%d)", int(k))
	}
}

// Spare describes the spare resources available to replace a failed device
// (spareType, spareTime, spareDisc in Table 1).
type Spare struct {
	Kind SpareKind
	// ProvisionTime is how long until the spare can take over (parFix in
	// the recovery model).
	ProvisionTime time.Duration
	// Discount is the spare's cost as a fraction of the original resource
	// cost (1.0 for a dedicated duplicate, e.g. 0.2 for a shared facility).
	Discount float64
}

// CostModel computes a device's annualized outlay from fixed,
// per-capacity, per-bandwidth and per-shipment components (§3.3.5; the
// fitted models in Table 4). Capacity is priced per raw GB and bandwidth
// per MB/s, matching the units of the paper's fitted coefficients.
type CostModel struct {
	Fixed       units.Money
	PerGB       float64
	PerMBPerSec float64
	PerShipment float64
}

// Annual returns the annualized outlay for provisioned raw capacity cap,
// bandwidth bw, and shipments per year.
func (c CostModel) Annual(cap units.ByteSize, bw units.Rate, shipmentsPerYear float64) units.Money {
	return c.Fixed +
		units.Money(c.PerGB*cap.GBytes()) +
		units.Money(c.PerMBPerSec*bw.MBPS()) +
		units.Money(c.PerShipment*shipmentsPerYear)
}

// Spec is the static description of a device type (Table 4 row).
type Spec struct {
	Name string
	Kind Kind

	// MaxCapSlots and SlotCap bound storable data: raw capacity =
	// MaxCapSlots x SlotCap. Zero MaxCapSlots means the device stores no
	// data (pure interconnect/transport).
	MaxCapSlots int
	SlotCap     units.ByteSize

	// MaxBWSlots and SlotBW bound aggregate component bandwidth; EnclBW
	// bounds the enclosure (buses and controllers). The effective device
	// bandwidth is the minimum of the non-zero limits. Zero everywhere
	// means the device moves no data online (e.g. a vault).
	MaxBWSlots int
	SlotBW     units.Rate
	EnclBW     units.Rate

	// Delay is the fixed access delay: tape load and seek, interconnect
	// propagation, or shipment transit time (devDelay).
	Delay time.Duration

	// CapOverhead multiplies logical capacity demands into raw slot
	// consumption. A RAID-1 disk array has overhead 2; unprotected media
	// (tape) has overhead 1. Zero is treated as 1.
	CapOverhead float64

	Cost  CostModel
	Spare Spare

	// Reliability is the optional failure/repair rate model used by the
	// Monte Carlo engine. The zero value defers to DefaultReliability.
	Reliability Reliability
}

// Validation errors.
var (
	ErrNoName      = errors.New("device: spec needs a name")
	ErrBadKind     = errors.New("device: unknown kind")
	ErrNegative    = errors.New("device: slot counts, sizes and rates must be non-negative")
	ErrBadOverhead = errors.New("device: capacity overhead must be >= 1 (or 0 for default)")
	ErrBadSpare    = errors.New("device: spare configuration invalid")
)

// Validate checks the spec for consistency.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return ErrNoName
	}
	if s.Kind < KindStorage || s.Kind > KindTransport {
		return fmt.Errorf("%w: %d", ErrBadKind, int(s.Kind))
	}
	// The size and rate comparisons are written to fail on NaN.
	if s.MaxCapSlots < 0 || !(s.SlotCap >= 0) || s.MaxBWSlots < 0 || !(s.SlotBW >= 0) || !(s.EnclBW >= 0) || s.Delay < 0 {
		return fmt.Errorf("%w (%s)", ErrNegative, s.Name)
	}
	if s.CapOverhead != 0 && s.CapOverhead < 1 {
		return fmt.Errorf("%w (%s: %g)", ErrBadOverhead, s.Name, s.CapOverhead)
	}
	switch s.Spare.Kind {
	case 0, SpareNone:
		// No spare; nothing else to check.
	case SpareDedicated, SpareShared:
		if s.Spare.ProvisionTime < 0 || s.Spare.Discount < 0 {
			return fmt.Errorf("%w (%s)", ErrBadSpare, s.Name)
		}
	default:
		return fmt.Errorf("%w (%s: kind %d)", ErrBadSpare, s.Name, int(s.Spare.Kind))
	}
	if err := s.Reliability.Validate(); err != nil {
		return fmt.Errorf("%s: %w", s.Name, err)
	}
	return nil
}

// MaxCapacity returns the raw capacity limit: maxCapSlots x slotCap.
func (s *Spec) MaxCapacity() units.ByteSize {
	return units.ByteSize(s.MaxCapSlots) * s.SlotCap
}

// MaxBandwidth returns the effective device bandwidth: the minimum of the
// configured non-zero limits (enclosure vs. aggregate slot bandwidth).
//
// Note: §3.3.1 of the paper prints this as max(enclBW, maxBWSlots x
// slotBW), but only the minimum reproduces the published case study (the
// array's 512 MB/s enclosure, not 256 x 25 MB/s of disks, limits Table 5's
// percentages) and matches the physical meaning of an enclosure bound.
func (s *Spec) MaxBandwidth() units.Rate {
	slot := units.Rate(s.MaxBWSlots) * s.SlotBW
	switch {
	case slot <= 0:
		return s.EnclBW
	case s.EnclBW <= 0:
		return slot
	case s.EnclBW < slot:
		return s.EnclBW
	default:
		return slot
	}
}

// capOverhead returns the effective capacity overhead factor.
func (s *Spec) capOverhead() float64 {
	if s.CapOverhead == 0 {
		return 1
	}
	return s.CapOverhead
}

// RawCapacityFor converts a logical capacity demand into raw slot
// consumption (applying e.g. RAID-1 doubling).
func (s *Spec) RawCapacityFor(logical units.ByteSize) units.ByteSize {
	return units.ByteSize(s.capOverhead()) * logical
}

// HasSpare reports whether the device has any spare resources.
func (s *Spec) HasSpare() bool {
	return s.Spare.Kind == SpareDedicated || s.Spare.Kind == SpareShared
}

// FixedOutlay is the outlay term the device's primary (first registered)
// technique carries on top of its demands (§3.3.5): the fixed cost, plus
// an interconnect's bandwidth cost, since links are provisioned whole.
func (s *Spec) FixedOutlay() units.Money {
	if s.Kind == KindInterconnect {
		return s.Cost.Fixed + units.Money(s.Cost.PerMBPerSec*s.MaxBandwidth().MBPS())
	}
	return s.Cost.Fixed
}

// DemandOutlay is the marginal annual outlay one demand adds: its
// per-capacity (raw), per-bandwidth and per-shipment costs. An
// interconnect's bandwidth is already charged whole in FixedOutlay.
func (s *Spec) DemandOutlay(dem Demand) units.Money {
	bw := dem.Bandwidth
	if s.Kind == KindInterconnect {
		bw = 0
	}
	return s.Cost.Annual(s.RawCapacityFor(dem.Capacity), bw, dem.ShipmentsPerYear) - s.Cost.Fixed
}

// Demand is a workload placed on a device by one data protection technique
// (§3.2.3): sustained bandwidth, logical capacity, and (for transport
// devices) shipments per year.
type Demand struct {
	// Technique names the data protection technique (or "foreground" for
	// the primary workload) for cost allocation and reporting.
	Technique string
	// Bandwidth is the sustained transfer demand.
	Bandwidth units.Rate
	// Capacity is the logical data retained on the device.
	Capacity units.ByteSize
	// ShipmentsPerYear counts physical shipments (vaulting).
	ShipmentsPerYear float64
}

// Device is a configured device instance accumulating demands from the
// techniques that use it. The zero value is not usable; construct with New.
type Device struct {
	// spec is read, never written: New points it at the device's own
	// copy, Fleet.Refit at the caller's spec.
	spec    *Spec
	demands []Demand
}

// New validates the spec and returns a Device ready to accept demands,
// holding its own copy of the spec.
func New(spec Spec) (*Device, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &Device{spec: &spec}, nil
}

// Fleet is storage for a design's built devices that one build after
// another refits in place: the devices in one block, their demand lists
// in one shared array, and the pointers to them. The zero value is ready
// to use.
type Fleet struct {
	block   []Device
	demands []Demand
	devs    []*Device
}

// Refit returns n demand-free devices, device i of spec(i), in the
// fleet's storage, allocating only what is shorter than n devices or n
// times room demands. Their demand lists share one array that holds room
// demands per device before a list regrows. The devices an earlier Refit
// returned are these same devices, so they are valid only until the
// next Refit. A device points at spec(i) rather than copying it, so the
// spec must not change while the device is in use (a core.System points
// its devices at its design's specs). Unlike New, Refit does not
// validate the specs: the caller must have validated each
// (Spec.Validate).
func (f *Fleet) Refit(n, room int, spec func(i int) *Spec) []*Device {
	if cap(f.block) < n {
		f.block, f.devs = make([]Device, n), make([]*Device, n)
	}
	if cap(f.demands) < n*room {
		f.demands = make([]Demand, n*room)
	}
	f.block, f.devs = f.block[:n], f.devs[:n]
	for i := range f.block {
		f.block[i] = Device{spec: spec(i), demands: f.demands[i*room : i*room : (i+1)*room]}
		f.devs[i] = &f.block[i]
	}
	return f.devs
}

// Clear drops the fleet's references to specs and technique names,
// keeping its storage for the next Refit; the devices it returned must
// not be used afterwards.
func (f *Fleet) Clear() {
	clear(f.block[:cap(f.block)])
	clear(f.demands)
	clear(f.devs[:cap(f.devs)])
	f.block, f.devs = f.block[:0], f.devs[:0]
}

// Spec returns a copy of the device's static description.
func (d *Device) Spec() Spec { return *d.spec }

// Name returns the device name.
func (d *Device) Name() string { return d.spec.Name }

// AddDemand registers a technique's workload demand. The first demand
// registered is treated as the device's primary technique for cost
// allocation (§3.3.5): it carries the fixed costs.
func (d *Device) AddDemand(dem Demand) {
	d.demands = append(d.demands, dem)
}

// ResetDemands removes every registered demand while keeping the backing
// array, so one device can be reused for repeated demand capture without
// reallocating.
func (d *Device) ResetDemands() {
	d.demands = d.demands[:0]
}

// NumDemands returns how many demands are registered.
func (d *Device) NumDemands() int { return len(d.demands) }

// DemandAt returns the i-th registered demand in registration order,
// without the defensive copy Demands makes.
func (d *Device) DemandAt(i int) Demand { return d.demands[i] }

// Demands returns a copy of the registered demands in registration order.
func (d *Device) Demands() []Demand {
	out := make([]Demand, len(d.demands))
	copy(out, d.demands)
	return out
}

// TotalCapacity returns the summed logical capacity demand.
func (d *Device) TotalCapacity() units.ByteSize {
	var sum units.ByteSize
	for _, dem := range d.demands {
		sum += dem.Capacity
	}
	return sum
}

// TotalBandwidth returns the summed bandwidth demand.
func (d *Device) TotalBandwidth() units.Rate {
	var sum units.Rate
	for _, dem := range d.demands {
		sum += dem.Bandwidth
	}
	return sum
}

// CapUtil returns capUtil_d = sum(raw capacity demands) / devCap. Devices
// with no capacity role report 0 utilization (and reject capacity demands
// via Check).
func (d *Device) CapUtil() float64 {
	max := d.spec.MaxCapacity()
	if max <= 0 {
		return 0
	}
	return float64(d.spec.RawCapacityFor(d.TotalCapacity()) / max)
}

// BWUtil returns bwUtil_d = sum(bandwidth demands) / devBW.
func (d *Device) BWUtil() float64 {
	max := d.spec.MaxBandwidth()
	if max <= 0 {
		return 0
	}
	return float64(d.TotalBandwidth() / max)
}

// AvailableBandwidth returns the bandwidth remaining after all normal-mode
// demands are satisfied; recovery transfers are limited to this (§3.3.4).
func (d *Device) AvailableBandwidth() units.Rate {
	avail := d.spec.MaxBandwidth() - d.TotalBandwidth()
	if avail < 0 {
		return 0
	}
	return avail
}

// Overload errors returned by Check.
var (
	ErrCapOverload = errors.New("device: capacity demand exceeds device capacity")
	ErrBWOverload  = errors.New("device: bandwidth demand exceeds device bandwidth")
)

// Check verifies the accumulated demands fit the device (the per-device
// half of the normal-mode utilization model, §3.3.1).
func (d *Device) Check() error {
	if cap := d.TotalCapacity(); cap > 0 {
		if max := d.spec.MaxCapacity(); max <= 0 {
			return fmt.Errorf("%w: %s stores no data but %v demanded",
				ErrCapOverload, d.spec.Name, cap)
		}
		if u := d.CapUtil(); u > 1 {
			return fmt.Errorf("%w: %s at %.1f%%", ErrCapOverload, d.spec.Name, u*100)
		}
	}
	if bw := d.TotalBandwidth(); bw > 0 {
		if max := d.spec.MaxBandwidth(); max <= 0 {
			return fmt.Errorf("%w: %s moves no data but %v demanded",
				ErrBWOverload, d.spec.Name, bw)
		}
		if u := d.BWUtil(); u > 1 {
			return fmt.Errorf("%w: %s at %.1f%%", ErrBWOverload, d.spec.Name, u*100)
		}
	}
	return nil
}

// TechUtilization is one technique's share of a device in normal mode.
type TechUtilization struct {
	Technique string
	Bandwidth units.Rate
	BWUtil    float64
	Capacity  units.ByteSize
	CapUtil   float64
}

// Utilizations returns per-technique utilization rows (Table 5 layout).
// Demands with the same technique name are merged.
func (d *Device) Utilizations() []TechUtilization {
	maxBW := d.spec.MaxBandwidth()
	maxCap := d.spec.MaxCapacity()
	var rows []TechUtilization
	index := make(map[string]int)
	for _, dem := range d.demands {
		i, ok := index[dem.Technique]
		if !ok {
			i = len(rows)
			index[dem.Technique] = i
			rows = append(rows, TechUtilization{Technique: dem.Technique})
		}
		rows[i].Bandwidth += dem.Bandwidth
		rows[i].Capacity += dem.Capacity
	}
	for i := range rows {
		if maxBW > 0 {
			rows[i].BWUtil = float64(rows[i].Bandwidth / maxBW)
		}
		if maxCap > 0 {
			rows[i].CapUtil = float64(d.spec.RawCapacityFor(rows[i].Capacity) / maxCap)
		}
	}
	return rows
}

// TechOutlay is one technique's annualized outlay share on a device.
type TechOutlay struct {
	Technique string
	// Base is the outlay excluding spare resources.
	Base units.Money
	// SpareCost is the allocated share of spare resources.
	SpareCost units.Money
}

// Total returns base plus spare cost.
func (o TechOutlay) Total() units.Money { return o.Base + o.SpareCost }

// EachOutlay allocates the device's annualized outlay across techniques
// per §3.3.5 and calls fn with each technique's row, in the order the
// techniques were first registered: the primary technique (first
// registered) carries the fixed costs plus its own
// per-capacity/per-bandwidth costs; each secondary technique carries only
// its additional per-capacity/per-bandwidth costs. Spare costs are
// allocated proportionally at the spare discount factor. A row's base
// sums the fixed outlay first, on the first row, then each of the
// technique's demands in registration order.
//
// Storage devices are priced on the capacity and bandwidth their demands
// consume (disks and drives are bought as needed). Interconnects are
// provisioned in whole links: their bandwidth cost is MaxBandwidth
// regardless of utilization, carried by the primary technique — an OC-3
// costs the same whether the mirror stream fills it or not.
func (d *Device) EachOutlay(fn func(TechOutlay)) {
	for i := range d.demands {
		// A device serves a handful of techniques: a scan finds each
		// technique's first demand and the rest of its demands.
		if !d.firstOf(i) {
			continue
		}
		row := TechOutlay{Technique: d.demands[i].Technique}
		if i == 0 {
			row.Base += d.spec.FixedOutlay()
		}
		for _, dem := range d.demands[i:] {
			if dem.Technique == row.Technique {
				row.Base += d.spec.DemandOutlay(dem)
			}
		}
		if d.spec.HasSpare() {
			row.SpareCost = units.Money(d.spec.Spare.Discount) * row.Base
		}
		fn(row)
	}
}

// firstOf reports whether demand i is the first of its technique.
func (d *Device) firstOf(i int) bool {
	for _, dem := range d.demands[:i] {
		if dem.Technique == d.demands[i].Technique {
			return false
		}
	}
	return true
}

// TotalOutlay returns the device's total annualized outlay including
// spares.
func (d *Device) TotalOutlay() units.Money {
	var sum units.Money
	d.EachOutlay(func(o TechOutlay) { sum += o.Total() })
	return sum
}
