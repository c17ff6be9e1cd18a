package mc

import (
	"math/rand"
	"time"

	"stordep/internal/chaos"
	"stordep/internal/cost"
	"stordep/internal/failure"
	"stordep/internal/rng"
	"stordep/internal/sim"
	"stordep/internal/units"
)

// OpRates are annual arrival rates for the operator-fault and
// correlated-failure vocabulary (see internal/failure): each process is
// Poisson over the mission window on its own random stream, so enabling
// one class never perturbs the others' schedules (common random
// numbers across candidate designs and across rate settings).
type OpRates struct {
	// WrongRecovery is the annual rate of restores that land on a stale
	// retrieval point which passes the operator's existing checks.
	WrongRecovery float64 `json:"wrongRecovery,omitempty"`
	// SilentNonWrite is the annual rate of windows in which one
	// protection level reports success but retains nothing.
	SilentNonWrite float64 `json:"silentNonWrite,omitempty"`
	// CommonOutage is the annual rate of correlated events (shared
	// infrastructure, regional) that take every protection level out at
	// once.
	CommonOutage float64 `json:"commonOutage,omitempty"`
}

// enabled reports whether any operator-fault process is switched on.
func (r OpRates) enabled() bool {
	return r.WrongRecovery > 0 || r.SilentNonWrite > 0 || r.CommonOutage > 0
}

// Operator-fault streams live below the disaster-scope streams (which
// occupy -1 .. -len(failure.Scopes())), so adding rates never shifts
// the device or disaster schedules.
const (
	streamCommonOutage   = -6
	streamSilentNonWrite = -7
	streamWrongRecovery  = -8
)

// opArrivals draws Poisson arrival instants over the mission window
// (whole minutes) from one dedicated stream, returning the instants (in
// s.arrivals) and the stream for follow-on shape draws. The stream
// consumes one uniform per arrival attempt plus the shape draws made by
// the caller in arrival order, so schedules are reproducible from
// (seed, trial) alone. A process that is off has no arrivals, so its
// stream is neither seeded nor returned: callers draw shapes only per
// arrival.
func (r *runner) opArrivals(s *scratch, tseed int64, stream int, ratePerYear float64) ([]time.Duration, *rand.Rand) {
	if ratePerYear <= 0 {
		return nil, nil
	}
	s.rand = rng.Reseed(s.rand, tseed, stream)
	er := s.rand
	missionYears := float64(r.mission) / float64(units.Year)
	ats := s.arrivals[:0]
	for t := expGap(er, ratePerYear); t < missionYears; t += expGap(er, ratePerYear) {
		at := chaos.CeilMinute(r.start + time.Duration(t*float64(units.Year)))
		if at >= r.end {
			break
		}
		ats = append(ats, at)
	}
	s.arrivals = ats
	return ats, er
}

// sampleCommonOutages draws correlated common-mode outage windows into
// s.commons: each arrival takes every protection level down for a
// duration on the chain's cycle scale (0.3–2.5 cycles, whole minutes),
// the same window law the chaos generator uses for correlated events.
func (r *runner) sampleCommonOutages(s *scratch, tseed int64) []interval {
	ats, shape := r.opArrivals(s, tseed, streamCommonOutage, r.c.Op.CommonOutage)
	cycle := chaos.MaxCycle(r.chain)
	out := s.commons[:0]
	for _, at := range ats {
		down := chaos.Quantize(time.Duration((0.3 + 2.2*shape.Float64()) * float64(cycle)))
		to := at + down
		if to > r.end {
			to = r.end
		}
		if to > at {
			out = append(out, interval{from: at, to: to})
		}
	}
	s.commons = out
	return out
}

// sampleSilentFaults draws silent non-write windows into s.silents: each
// arrival silences one uniformly chosen level for 0.5–2.5 of its own
// cycle periods — long enough to skip at least one capture.
func (r *runner) sampleSilentFaults(s *scratch, tseed int64) []sim.SilentFault {
	ats, shape := r.opArrivals(s, tseed, streamSilentNonWrite, r.c.Op.SilentNonWrite)
	out := s.silents[:0]
	for _, at := range ats {
		level := 1 + int(shape.Float64()*float64(len(r.chain)))
		if level > len(r.chain) {
			level = len(r.chain)
		}
		cycle := r.chain[level-1].Policy.CyclePeriod()
		win := chaos.Quantize(time.Duration((0.5 + 2.0*shape.Float64()) * float64(cycle)))
		to := at + win
		if to > r.end {
			to = r.end
		}
		if to > at {
			out = append(out, sim.SilentFault{Level: level, From: at, To: to})
		}
	}
	s.silents = out
	return out
}

// wrongRecovery is one sampled wrong-recovery fault: at instant at, an
// operator restores a retrieval point staleBy older than the one the
// plan calls for, and the stale point passes the existing checks.
type wrongRecovery struct {
	at      time.Duration
	staleBy time.Duration
}

// sampleWrongRecoveries draws wrong-recovery arrivals into s.wrongs,
// with staleness on the chain's cycle scale (0.5–3 cycles, whole
// minutes).
func (r *runner) sampleWrongRecoveries(s *scratch, tseed int64) []wrongRecovery {
	ats, shape := r.opArrivals(s, tseed, streamWrongRecovery, r.c.Op.WrongRecovery)
	cycle := chaos.MaxCycle(r.chain)
	out := s.wrongs[:0]
	for _, at := range ats {
		staleBy := chaos.Quantize(time.Duration((0.5 + 2.5*shape.Float64()) * float64(cycle)))
		out = append(out, wrongRecovery{at: at, staleBy: staleBy})
	}
	s.wrongs = out
	return out
}

// classifySilentFault decides whether one silent non-write window is
// detectable — the faulted history's loss at some probe instant exceeds
// the fault-unaware analytic bound, or recovery fails where the clean
// history recovers — and charges its consequences: a detected window is
// caught and re-synced (protection was degraded for the window), an
// escaped window is latent exposure the estimator surfaces only through
// events that happen to land in it.
func (r *runner) classifySilentFault(s *scratch, o *Obs, f sim.SilentFault) error {
	detected := false
	s.probes = r.appendProbes(s.probes[:0], f)
	for _, at := range s.probes {
		h, err := s.hist.at(at)
		if err != nil {
			return err
		}
		floss, _, fok := h.s.Loss(r.all, at, 0)
		closs, _, cok := h.clean.Loss(r.all, at, 0)
		if cok && !fok {
			detected = true // fails where the fault-free history recovers
			break
		}
		if !fok {
			continue
		}
		if bound, ok := s.bound(f.Level, 0); ok && floss > bound {
			detected = true // loss-bound violation surfaces the fault
			break
		}
		if cok && floss > closs {
			detected = true // drill against the fault-free baseline
			break
		}
	}
	o.OpEvents++
	if detected {
		o.OpDetected++
		// Caught and re-synced: protection was degraded for the window.
		win := f.To - f.From
		o.DegTime += win
	} else {
		o.OpEscapes++
	}
	return nil
}

// appendProbes appends the instants at which a silent fault's
// consequences are probed: its window plus two of the level's cycles,
// when the RPs it poisoned are still retained.
func (r *runner) appendProbes(dst []time.Duration, f sim.SilentFault) []time.Duration {
	cycle := r.chain[f.Level-1].Policy.CyclePeriod()
	return appendProbeGrid(dst, f.From, f.To+2*cycle, r.end)
}

// appendProbeGrid appends up to eight whole-minute probe instants
// spanning [from, to], clipped to the mission window.
func appendProbeGrid(dst []time.Duration, from, to, end time.Duration) []time.Duration {
	if to > end {
		to = end
	}
	if to <= from {
		return dst
	}
	step := (to - from) / 7
	if step < time.Minute {
		step = time.Minute
	}
	for at := from; at <= to; at += step {
		dst = append(dst, chaos.CeilMinute(at))
	}
	return dst
}

// applyWrongRecovery classifies and charges one wrong-recovery fault.
// Detection mirrors the chaos invariant: the restore is caught when the
// stale point no longer exists (past retention — the existing checks
// cannot complete) or when the resulting staleness exceeds the analytic
// loss bound the serving level defends for a fresh restore. A detected
// fault is redone — the service is down for one more recovery pass. An
// escaped fault silently rolls the object back: the staleness stands as
// real data loss.
func (r *runner) applyWrongRecovery(s *scratch, o *Obs, clean *sim.History, wr wrongRecovery) {
	o.OpEvents++
	req := r.c.Design.Requirements
	staleLoss, level, ok := clean.Loss(r.all, wr.at, wr.staleBy)
	detected := !ok
	if ok {
		actual := staleLoss + wr.staleBy
		if bound, bok := s.bound(level, 0); bok && actual > bound {
			detected = true
		}
	}
	if detected {
		o.OpDetected++
		// Redo the restore correctly: one recovery pass of downtime at
		// the analytic estimate for a full restore from protection.
		ctx := r.context(s, scenarioFor(failure.ScopeArray))
		rt := ctx.rtBound
		if rt > r.end-wr.at {
			rt = r.end - wr.at
		}
		o.OpDowntime += rt
		o.Downtime += rt
		o.Penalty += float64(cost.Assess(req, rt, 0).Total())
		return
	}
	o.OpEscapes++
	loss := staleLoss + wr.staleBy
	o.OpLossTime += loss
	o.LossTime += loss
	o.Penalty += float64(cost.Assess(req, 0, loss).Total())
}
