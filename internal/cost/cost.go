// Package cost implements the overall-cost model of §3.3.5: annualized
// outlays (allocated per data protection technique by each device model)
// plus penalties for data outage and recent data loss under an imposed
// failure scenario.
package cost

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"stordep/internal/device"
	"stordep/internal/units"
)

// Requirements are the business-requirement inputs of §3.1.2.
type Requirements struct {
	// UnavailPenaltyRate accrues while data is unavailable (per unit of
	// recovery time).
	UnavailPenaltyRate units.PenaltyRate
	// LossPenaltyRate accrues per unit of recent updates lost.
	LossPenaltyRate units.PenaltyRate
}

// ErrNegativeRate is returned for negative penalty rates.
var ErrNegativeRate = errors.New("cost: penalty rates must be non-negative")

// Validate checks the requirements.
func (r *Requirements) Validate() error {
	if r.UnavailPenaltyRate < 0 || r.LossPenaltyRate < 0 {
		return ErrNegativeRate
	}
	return nil
}

// CaseStudyRequirements returns the paper's case-study penalty rates:
// $50,000 per hour for both unavailability and loss.
func CaseStudyRequirements() Requirements {
	return Requirements{
		UnavailPenaltyRate: units.PerHour(50_000),
		LossPenaltyRate:    units.PerHour(50_000),
	}
}

// OutlayItem is one device's outlay share for one technique.
type OutlayItem struct {
	Device    string
	Technique string
	Base      units.Money
	Spare     units.Money
}

// Total returns base plus spare cost.
func (o OutlayItem) Total() units.Money { return o.Base + o.Spare }

// Outlays aggregates annualized outlays across a design's devices.
type Outlays struct {
	// Items lists every device/technique outlay share.
	Items []OutlayItem
}

// CollectOutlays gathers the per-technique outlay allocations from every
// device (the device models own the allocation rules; see
// device.Device.EachOutlay), appending each row straight into one list.
// A device has at most one row per demand, and the list has room for one
// more item, a design-wide charge such as a shared recovery facility's
// retainer, so neither the rows nor that charge copy the list. The list
// is items' storage, emptied, when it has that room (a rebuilt system
// passes its previous list), and a new one otherwise.
func CollectOutlays(items []OutlayItem, devices []*device.Device) Outlays {
	n := 1
	for _, d := range devices {
		n += d.NumDemands()
	}
	if cap(items) < n {
		items = make([]OutlayItem, 0, n)
	}
	out := Outlays{Items: items[:0]}
	for _, d := range devices {
		d.EachOutlay(func(row device.TechOutlay) {
			out.Items = append(out.Items, OutlayItem{
				Device:    d.Name(),
				Technique: row.Technique,
				Base:      row.Base,
				Spare:     row.SpareCost,
			})
		})
	}
	return out
}

// Total returns the summed annual outlay.
func (o Outlays) Total() units.Money {
	var sum units.Money
	for _, it := range o.Items {
		sum += it.Total()
	}
	return sum
}

// ByTechnique returns technique -> total outlay, for the Figure 5
// breakdown, along with the technique names sorted by descending outlay.
func (o Outlays) ByTechnique() (map[string]units.Money, []string) {
	m := make(map[string]units.Money)
	for _, it := range o.Items {
		m[it.Technique] += it.Total()
	}
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		if m[names[i]] != m[names[j]] {
			return m[names[i]] > m[names[j]]
		}
		return names[i] < names[j]
	})
	return m, names
}

// ByDevice returns device -> total outlay, with device names sorted by
// descending outlay — where the money physically goes, complementing the
// per-technique allocation of Figure 5.
func (o Outlays) ByDevice() (map[string]units.Money, []string) {
	m := make(map[string]units.Money)
	for _, it := range o.Items {
		m[it.Device] += it.Total()
	}
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		if m[names[i]] != m[names[j]] {
			return m[names[i]] > m[names[j]]
		}
		return names[i] < names[j]
	})
	return m, names
}

// Penalties are the failure-scenario penalties of §3.3.5.
type Penalties struct {
	// Outage is the recovery-time penalty: worst-case RT x unavailability
	// rate.
	Outage units.Money
	// Loss is the recent-data-loss penalty: worst-case loss x loss rate.
	Loss units.Money
}

// Total returns outage plus loss penalties.
func (p Penalties) Total() units.Money { return p.Outage + p.Loss }

// Assess computes the penalties for a failure outcome. A recovery time or
// loss of units.Forever (unrecoverable design) yields infinite penalties,
// which total-cost comparisons propagate naturally.
func Assess(req Requirements, recoveryTime, dataLoss time.Duration) Penalties {
	return Penalties{
		Outage: req.UnavailPenaltyRate.Over(recoveryTime),
		Loss:   req.LossPenaltyRate.Over(dataLoss),
	}
}

// Summary is the overall cost of a design under one failure scenario.
type Summary struct {
	Outlays   Outlays
	Penalties Penalties
}

// Total returns outlays plus penalties — the "overall cost" output metric.
func (s Summary) Total() units.Money {
	return s.Outlays.Total() + s.Penalties.Total()
}

// String renders the summary in the paper's idiom.
func (s Summary) String() string {
	return fmt.Sprintf("outlays %v + penalties %v (outage %v, loss %v) = %v",
		s.Outlays.Total(), s.Penalties.Total(), s.Penalties.Outage, s.Penalties.Loss, s.Total())
}
