package whatif

import (
	"fmt"
	"math"
	"sort"

	"stordep/internal/core"
	"stordep/internal/failure"
	"stordep/internal/units"
)

// Sensitivity quantifies how much each model input moves a design's total
// cost under a scenario — the tornado chart answering "which of my
// estimates matters?". The paper's inputs are estimates (workload
// measurements age, penalty rates are negotiated guesses); a decision
// that flips inside the plausible range of an input deserves a better
// estimate of that input.

// SensitivityRow is one input's effect: the scenario total cost with the
// input scaled down and up by the swing factor.
type SensitivityRow struct {
	Parameter string
	// Low and High are total costs at (1-swing)x and (1+swing)x of the
	// input. +Inf marks a perturbation that made the design infeasible
	// (e.g. capacity overload) or unrecoverable.
	Low  units.Money
	High units.Money
}

// Spread returns |High - Low|, the tornado bar width.
func (r SensitivityRow) Spread() units.Money {
	d := r.High - r.Low
	if d < 0 {
		d = -d
	}
	return d
}

// sensitivityParam mutates one input of a cloned design by factor f.
type sensitivityParam struct {
	name  string
	apply func(d *core.Design, f float64)
}

func sensitivityParams() []sensitivityParam {
	return []sensitivityParam{
		{"data capacity", func(d *core.Design, f float64) {
			d.Workload.DataCap = units.ByteSize(f) * d.Workload.DataCap
		}},
		{"update rate", func(d *core.Design, f float64) {
			d.Workload.AvgUpdateRate = units.Rate(f) * d.Workload.AvgUpdateRate
			for i := range d.Workload.BatchCurve {
				d.Workload.BatchCurve[i].Rate = units.Rate(f) * d.Workload.BatchCurve[i].Rate
			}
		}},
		{"access rate", func(d *core.Design, f float64) {
			d.Workload.AvgAccessRate = units.Rate(f) * d.Workload.AvgAccessRate
		}},
		{"burstiness", func(d *core.Design, f float64) {
			d.Workload.BurstMult = math.Max(1, f*d.Workload.BurstMult)
		}},
		{"unavailability penalty rate", func(d *core.Design, f float64) {
			d.Requirements.UnavailPenaltyRate = units.PenaltyRate(f) * d.Requirements.UnavailPenaltyRate
		}},
		{"loss penalty rate", func(d *core.Design, f float64) {
			d.Requirements.LossPenaltyRate = units.PenaltyRate(f) * d.Requirements.LossPenaltyRate
		}},
	}
}

// Sensitivity evaluates the design's total cost under the scenario with
// each input scaled down and up by swing (e.g. 0.5 for ±50%), returning
// rows sorted by descending spread. Perturbations that break the design
// report +Inf for that side.
func Sensitivity(d *core.Design, sc failure.Scenario, swing float64) ([]SensitivityRow, error) {
	if swing <= 0 || swing >= 1 {
		return nil, fmt.Errorf("whatif: swing must be in (0,1), got %g", swing)
	}
	totalAt := func(p sensitivityParam, f float64) (units.Money, error) {
		clone, err := d.Clone()
		if err != nil {
			return 0, fmt.Errorf("whatif: %w", err)
		}
		p.apply(clone, f)
		results, err := Evaluate([]*core.Design{clone}, []failure.Scenario{sc})
		if err != nil {
			return 0, err
		}
		r := results[0]
		if r.Err != nil || r.Outcomes[0].Lost {
			return units.Money(math.Inf(1)), nil
		}
		return r.Outcomes[0].Total, nil
	}
	var rows []SensitivityRow
	for _, p := range sensitivityParams() {
		low, err := totalAt(p, 1-swing)
		if err != nil {
			return nil, err
		}
		high, err := totalAt(p, 1+swing)
		if err != nil {
			return nil, err
		}
		rows = append(rows, SensitivityRow{Parameter: p.name, Low: low, High: high})
	}
	sort.SliceStable(rows, func(i, j int) bool {
		si, sj := float64(rows[i].Spread()), float64(rows[j].Spread())
		if math.IsInf(si, 1) != math.IsInf(sj, 1) {
			return math.IsInf(si, 1)
		}
		if si != sj {
			return si > sj
		}
		return rows[i].Parameter < rows[j].Parameter
	})
	return rows, nil
}
