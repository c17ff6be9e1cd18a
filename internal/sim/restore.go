package sim

import (
	"fmt"
	"time"

	"stordep/internal/units"
	"stordep/internal/workload"
)

// This file extends the simulator from loss measurement to restore-volume
// measurement: where the analytic model (protect.Backup.RestoreSize)
// charges every recovery for the worst case — one full plus the largest
// cumulative incremental — the simulator knows exactly which RP serves
// each failure instant and what chain reconstructing it needs, yielding
// the distribution the worst case bounds.

// RestorePlan describes what a recovery from a specific RP must read.
type RestorePlan struct {
	// Serving is the RP that matches the recovery target.
	Serving RP
	// Level is the 1-based hierarchy level serving the restore.
	Level int
	// Loss is the data the restore gives up: the target instant less
	// Serving.Cut.
	Loss time.Duration
	// FullCut is the cut of the base full RP (equals Serving.Cut when the
	// serving RP is itself a full copy).
	FullCut time.Duration
	// Incremental reports that Serving is a partial RP applied on top of
	// the full at FullCut.
	Incremental bool
}

// Volume returns the bytes the restore must move: the full object plus,
// for incremental chains, the unique updates between the full's cut and
// the serving RP's cut (cumulative incrementals need only the last one).
func (p RestorePlan) Volume(w *workload.Workload) units.ByteSize {
	vol := w.DataCap
	if p.Incremental && p.Serving.Cut > p.FullCut {
		vol += w.UniqueBytes(p.Serving.Cut - p.FullCut)
	}
	return vol
}

// Plan resolves the restore a failure at failAt would need with the
// given surviving levels, restoring to the target instant
// failAt-targetAge. The serving RP is the newest usable one (across
// surviving levels) whose cut does not postdate the target. ok is false
// when no usable RP survives (the object is lost), failAt is past the
// run, or the target precedes time zero.
func (h *History) Plan(surviving []int, failAt, targetAge time.Duration) (RestorePlan, bool) {
	target := failAt - targetAge
	if failAt > h.until || target < 0 {
		return RestorePlan{}, false
	}
	level, index := 0, -1
	var cut time.Duration
	for _, j := range surviving {
		if j < 1 || j > len(h.chain) {
			continue
		}
		lo, hi := h.span(j, failAt)
		for i := lo; i < hi; i++ {
			if rp := h.levels[j-1][i]; rp.Cut <= target && (index < 0 || rp.Cut > cut) && h.usableAt(j, i, failAt) {
				level, index, cut = j, i, rp.Cut
			}
		}
	}
	if index < 0 {
		return RestorePlan{}, false
	}
	rp := h.levels[level-1][index]
	p := RestorePlan{Serving: rp, Level: level, Loss: target - rp.Cut, FullCut: rp.Cut, Incremental: rp.Secondary}
	if rp.Secondary {
		// usableAt guaranteed the base full exists and covers failAt.
		base, _ := h.baseFull(level, index)
		p.FullCut = base.Cut
	}
	return p, true
}

// RTStats summarizes restore volumes (and times at a fixed effective
// bandwidth) across failure instants.
type RTStats struct {
	Samples       int
	Unrecoverable int
	MinVolume     units.ByteSize
	MaxVolume     units.ByteSize
	MeanVolume    units.ByteSize
	MaxTime       time.Duration
	MeanTime      time.Duration
}

// RTStudy sweeps failure instants and aggregates the restore volume each
// would move, converting to time at the given effective bandwidth plus a
// fixed serialized overhead (spare provisioning, tape load).
func (h *History) RTStudy(w *workload.Workload, surviving []int, targetAge, from, to, step time.Duration,
	bandwidth units.Rate, fixed time.Duration) (RTStats, error) {
	if step <= 0 || to < from {
		return RTStats{}, fmt.Errorf("sim: bad study window [%v, %v] step %v", from, to, step)
	}
	if bandwidth <= 0 {
		return RTStats{}, fmt.Errorf("sim: bandwidth must be positive, got %v", bandwidth)
	}
	var st RTStats
	var volSum units.ByteSize
	for at := from; at <= to; at += step {
		st.Samples++
		plan, ok := h.Plan(surviving, at, targetAge)
		if !ok {
			st.Unrecoverable++
			continue
		}
		vol := plan.Volume(w)
		if st.MinVolume == 0 || vol < st.MinVolume {
			st.MinVolume = vol
		}
		if vol > st.MaxVolume {
			st.MaxVolume = vol
		}
		volSum += vol
	}
	n := st.Samples - st.Unrecoverable
	if n > 0 {
		st.MeanVolume = volSum / units.ByteSize(n)
		st.MaxTime = fixed + units.Div(st.MaxVolume, bandwidth)
		st.MeanTime = fixed + units.Div(st.MeanVolume, bandwidth)
	}
	return st, nil
}
