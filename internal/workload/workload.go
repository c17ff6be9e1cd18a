// Package workload models the foreground workload applied to the primary
// data copy (§3.1.1 of the paper). A workload is summarized by five
// parameters (Table 1): data capacity, average access rate, average
// (non-unique) update rate, burstiness, and the batch update rate — the
// rate of *unique* updates within a given accumulation window.
//
// The batch update rate is a function of the window length: longer windows
// coalesce more overwrites, so the unique-update rate is non-increasing in
// the window. It is supplied as a set of measured breakpoints (Table 2
// lists five for the cello file-server trace) and interpolated between
// them.
package workload

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"stordep/internal/units"
)

// BatchPoint is one measured point of the batch (unique) update rate curve:
// within windows of length Window, unique updates accrue at Rate.
type BatchPoint struct {
	Window time.Duration
	Rate   units.Rate
}

// Workload summarizes the foreground workload on a data object.
type Workload struct {
	// Name identifies the workload in reports (e.g. "cello").
	Name string
	// DataCap is the size of the data object (primary copy).
	DataCap units.ByteSize
	// AvgAccessRate is the combined read+write access rate.
	AvgAccessRate units.Rate
	// AvgUpdateRate is the non-unique update (write) rate.
	AvgUpdateRate units.Rate
	// BurstMult is the ratio of peak to average update rate.
	BurstMult float64
	// BatchCurve holds measured unique-update-rate breakpoints, any order.
	BatchCurve []BatchPoint
}

// Equal reports whether two workloads are deeply equal, comparing the
// batch curve point by point. It is the allocation-free equivalent of
// reflect.DeepEqual on two workloads.
func (w *Workload) Equal(v *Workload) bool {
	if w == nil || v == nil {
		return w == v
	}
	if w.Name != v.Name || w.DataCap != v.DataCap ||
		w.AvgAccessRate != v.AvgAccessRate || w.AvgUpdateRate != v.AvgUpdateRate ||
		w.BurstMult != v.BurstMult || len(w.BatchCurve) != len(v.BatchCurve) {
		return false
	}
	for i := range w.BatchCurve {
		if w.BatchCurve[i] != v.BatchCurve[i] {
			return false
		}
	}
	return true
}

// Validation errors returned by Workload.Validate.
var (
	ErrNoCapacity     = errors.New("workload: data capacity must be positive")
	ErrNegativeRate   = errors.New("workload: rates must be non-negative")
	ErrBurstBelowOne  = errors.New("workload: burst multiplier must be >= 1")
	ErrEmptyCurve     = errors.New("workload: batch update curve needs at least one point")
	ErrCurveIncrease  = errors.New("workload: batch update rate must be non-increasing in window length")
	ErrCurveBadWindow = errors.New("workload: batch curve windows must be positive and distinct")
	ErrCurveExceeds   = errors.New("workload: batch update rate cannot exceed average update rate")
)

// Validate checks the workload for internal consistency. It must be called
// (directly or via core.Design.Validate) before the workload is used in a
// model evaluation.
func (w *Workload) Validate() error {
	// Comparisons are written to fail on NaN.
	if !(w.DataCap > 0) {
		return fmt.Errorf("%w (got %v)", ErrNoCapacity, w.DataCap)
	}
	if !(w.AvgAccessRate >= 0 && w.AvgUpdateRate >= 0) {
		return ErrNegativeRate
	}
	if w.BurstMult < 1 {
		return fmt.Errorf("%w (got %g)", ErrBurstBelowOne, w.BurstMult)
	}
	if len(w.BatchCurve) == 0 {
		return ErrEmptyCurve
	}
	pts := w.sortedCurve()
	for i, p := range pts {
		if p.Window <= 0 {
			return fmt.Errorf("%w (window %v)", ErrCurveBadWindow, p.Window)
		}
		if i > 0 && pts[i-1].Window == p.Window {
			return fmt.Errorf("%w (duplicate window %v)", ErrCurveBadWindow, p.Window)
		}
		if i > 0 && p.Rate > pts[i-1].Rate {
			return fmt.Errorf("%w (window %v: %v > %v)",
				ErrCurveIncrease, p.Window, p.Rate, pts[i-1].Rate)
		}
		if !(p.Rate <= w.AvgUpdateRate) {
			return fmt.Errorf("%w (window %v: %v > %v)",
				ErrCurveExceeds, p.Window, p.Rate, w.AvgUpdateRate)
		}
	}
	return nil
}

// Clone returns a deep copy of the workload (the batch curve is the only
// reference field).
func (w *Workload) Clone() *Workload {
	out := new(Workload)
	w.CloneInto(out)
	return out
}

// CloneInto makes dst a deep copy of w, reusing dst's batch curve
// storage when it has room. The curve must belong to dst alone, as one
// an earlier Clone or CloneInto made does.
func (w *Workload) CloneInto(dst *Workload) {
	curve := dst.BatchCurve
	if curve == nil || cap(curve) < len(w.BatchCurve) {
		curve = make([]BatchPoint, len(w.BatchCurve))
	}
	*dst = *w
	dst.BatchCurve = curve[:len(w.BatchCurve)]
	copy(dst.BatchCurve, w.BatchCurve)
}

// sortedCurve returns the breakpoints sorted by ascending window without
// mutating the workload. When the curve is already stored sorted — every
// built-in constructor and Merge produce it that way — the stored slice
// is returned directly, keeping BatchUpdateRate allocation-free on the
// model evaluation hot path (it used to copy and re-sort per call, which
// dominated the optimizer's per-candidate allocations).
func (w *Workload) sortedCurve() []BatchPoint {
	if curveSorted(w.BatchCurve) {
		return w.BatchCurve
	}
	pts := make([]BatchPoint, len(w.BatchCurve))
	copy(pts, w.BatchCurve)
	sort.Slice(pts, func(i, j int) bool { return pts[i].Window < pts[j].Window })
	return pts
}

// curveSorted reports whether the breakpoints are in ascending window
// order already.
func curveSorted(pts []BatchPoint) bool {
	for i := 1; i < len(pts); i++ {
		if pts[i].Window < pts[i-1].Window {
			return false
		}
	}
	return true
}

// BatchUpdateRate returns batchUpdR(win): the average rate at which
// *unique* updates accumulate over windows of the given length.
//
// Between breakpoints the rate is interpolated linearly in the window
// length; outside the measured range it is clamped to the nearest
// breakpoint. Clamping is conservative for the models: short windows use
// the highest measured unique rate, long windows the lowest.
func (w *Workload) BatchUpdateRate(win time.Duration) units.Rate {
	pts := w.sortedCurve()
	if len(pts) == 0 {
		return w.AvgUpdateRate
	}
	if win <= pts[0].Window {
		return pts[0].Rate
	}
	last := pts[len(pts)-1]
	if win >= last.Window {
		return last.Rate
	}
	i := sort.Search(len(pts), func(i int) bool { return pts[i].Window >= win })
	lo, hi := pts[i-1], pts[i]
	frac := float64(win-lo.Window) / float64(hi.Window-lo.Window)
	return lo.Rate + units.Rate(frac)*(hi.Rate-lo.Rate)
}

// UniqueBytes returns the volume of unique updates accumulated over a
// window: batchUpdR(win) × win. This is the size of a partial
// (incremental) retrieval point covering the window.
func (w *Workload) UniqueBytes(win time.Duration) units.ByteSize {
	if win <= 0 {
		return 0
	}
	b := w.BatchUpdateRate(win).Over(win)
	if b > w.DataCap {
		// A window can never contain more unique bytes than the object.
		return w.DataCap
	}
	return b
}

// PeakUpdateRate returns the peak (burst) update rate: burstM × avgUpdateR.
// Synchronous mirroring links must be provisioned for this rate.
func (w *Workload) PeakUpdateRate() units.Rate {
	return units.Rate(w.BurstMult) * w.AvgUpdateRate
}

// Cello returns the measured parameters of the cello workgroup file-server
// workload used in the paper's case study (Table 2).
func Cello() *Workload {
	return &Workload{
		Name:          "cello",
		DataCap:       1360 * units.GB,
		AvgAccessRate: 1028 * units.KBPerSec,
		AvgUpdateRate: 799 * units.KBPerSec,
		BurstMult:     10,
		BatchCurve: []BatchPoint{
			{Window: time.Minute, Rate: 727 * units.KBPerSec},
			{Window: 12 * time.Hour, Rate: 350 * units.KBPerSec},
			{Window: 24 * time.Hour, Rate: 317 * units.KBPerSec},
			{Window: 48 * time.Hour, Rate: 317 * units.KBPerSec},
			{Window: units.Week, Rate: 317 * units.KBPerSec},
		},
	}
}

// Scale returns a copy of the workload with capacity and all rates scaled
// by factor, preserving burstiness and the shape of the batch curve. It is
// useful for what-if studies on larger or smaller data objects.
func (w *Workload) Scale(factor float64) (*Workload, error) {
	if factor <= 0 {
		return nil, fmt.Errorf("workload: scale factor must be positive, got %g", factor)
	}
	out := &Workload{
		Name:          fmt.Sprintf("%s x%g", w.Name, factor),
		DataCap:       units.ByteSize(factor) * w.DataCap,
		AvgAccessRate: units.Rate(factor) * w.AvgAccessRate,
		AvgUpdateRate: units.Rate(factor) * w.AvgUpdateRate,
		BurstMult:     w.BurstMult,
		BatchCurve:    make([]BatchPoint, len(w.BatchCurve)),
	}
	for i, p := range w.BatchCurve {
		out.BatchCurve[i] = BatchPoint{Window: p.Window, Rate: units.Rate(factor) * p.Rate}
	}
	return out, nil
}

// String summarizes the workload for reports.
func (w *Workload) String() string {
	return fmt.Sprintf("%s: cap=%v access=%v update=%v burst=%gx (%d batch points)",
		w.Name, w.DataCap, w.AvgAccessRate, w.AvgUpdateRate, w.BurstMult, len(w.BatchCurve))
}

// Merge combines workloads that will share one data object's protection
// (server-consolidation studies): capacities and rates add, the batch
// curve is the pointwise sum over the union of measured windows (a sum of
// non-increasing curves stays non-increasing), and the burst multiplier
// is the conservative ratio of summed peaks to summed averages — bursts
// of independent workloads rarely align, so the true peak is at or below
// this.
func Merge(name string, workloads ...*Workload) (*Workload, error) {
	if len(workloads) == 0 {
		return nil, errors.New("workload: merge needs at least one workload")
	}
	out := &Workload{Name: name, BurstMult: 1}
	windows := make(map[time.Duration]bool)
	var weightedPeak units.Rate
	for _, w := range workloads {
		if err := w.Validate(); err != nil {
			return nil, fmt.Errorf("workload: merge: %w", err)
		}
		out.DataCap += w.DataCap
		out.AvgAccessRate += w.AvgAccessRate
		out.AvgUpdateRate += w.AvgUpdateRate
		weightedPeak += w.PeakUpdateRate()
		for _, p := range w.BatchCurve {
			windows[p.Window] = true
		}
	}
	if out.AvgUpdateRate > 0 {
		out.BurstMult = float64(weightedPeak / out.AvgUpdateRate)
	}
	if out.BurstMult < 1 {
		out.BurstMult = 1
	}
	for win := range windows {
		var rate units.Rate
		for _, w := range workloads {
			rate += w.BatchUpdateRate(win)
		}
		out.BatchCurve = append(out.BatchCurve, BatchPoint{Window: win, Rate: rate})
	}
	sort.Slice(out.BatchCurve, func(i, j int) bool {
		return out.BatchCurve[i].Window < out.BatchCurve[j].Window
	})
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("workload: merge produced invalid workload: %w", err)
	}
	return out, nil
}
