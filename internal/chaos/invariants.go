package chaos

import (
	"fmt"
	"math"
	"time"

	"stordep/internal/core"
	"stordep/internal/hierarchy"
	"stordep/internal/sim"
	"stordep/internal/units"
)

// Invariant names reported in summaries and repro files.
const (
	// invLossBound: simulated loss never exceeds the analytic worst-case
	// bound (tight for aligned schedules, conservative otherwise, outage-
	// inflated in degraded mode).
	invLossBound = "loss-bound"
	// invCoverage: the healthy simulation recovers at every steady-state
	// instant whose target age the analytic guaranteed range covers.
	invCoverage = "coverage"
	// invAgeMonotone: analytic worst-case loss is monotone non-increasing
	// in recovery-target age, and recoverability never resumes once the
	// target falls off the end of retention.
	invAgeMonotone = "age-monotone"
	// invRTSane: restore volumes and times are non-negative, at least the
	// data object, ordered (min <= mean <= max), and monotone in volume.
	invRTSane = "rt-sane"
	// invDegDominates: degraded mode is never better than normal mode, in
	// the simulator, the analytic model, and full assessments.
	invDegDominates = "degraded-dominates"
	// invCostSum: reported cost totals equal the sum of their components.
	invCostSum = "cost-sum"
)

func invariantNames() []string {
	return []string{invLossBound, invCoverage, invAgeMonotone, invRTSane, invDegDominates, invCostSum}
}

// runResult is one case's battery outcome.
type runResult struct {
	counts     map[string]int
	skipped    int
	violations []Violation
	digest     string
	// Operator-fault detection ledger (correlated campaigns only):
	// faults whose effect surfaced through the loss-bound machinery vs
	// model-soundness escapes that stayed inside the worst-case envelope.
	opDetected int
	opEscapes  int
}

func (r *runResult) check(name string) { r.counts[name]++ }

func (r *runResult) violate(name, format string, args ...any) {
	r.violations = append(r.violations, Violation{Invariant: name, Detail: fmt.Sprintf(format, args...)})
}

func (cs *Case) check() (*runResult, error) { return checkCase(cs) }

// checkCase runs the full invariant battery on one case.
func checkCase(cs *Case) (*runResult, error) {
	res := &runResult{counts: make(map[string]int)}
	for _, name := range invariantNames() {
		res.counts[name] = 0
	}
	sys, err := core.Build(cs.Design)
	if err != nil {
		return nil, err
	}
	chain := sys.Chain()
	sm, err := sim.New(chain)
	if err != nil {
		return nil, err
	}
	healthy, err := sm.Run(nil, nil, nil, 0, cs.Horizon)
	if err != nil {
		return nil, err
	}
	degraded := healthy
	if len(cs.Outages) > 0 {
		if degraded, err = sm.Run(nil, cs.Outages, nil, 0, cs.Horizon); err != nil {
			return nil, err
		}
	}
	warm := sm.WarmUp()
	from := CeilMinute(warm)
	to := cs.Horizon - MaxCycle(chain)/2
	var samples []time.Duration
	if from < to {
		samples = sampleInstants(degraded, len(chain), from, to)
	}
	surviving := sys.SurvivingLevels(nil, cs.Scenario)

	maxLoss := checkLossBounds(res, cs, chain, healthy, degraded, surviving, samples)
	checkAgeMonotone(res, chain, cs.Outages)
	checkRTSane(res, cs, healthy, surviving, samples, from, to)
	checkDegradedDominates(res, cs, sys, chain, healthy, degraded, surviving, samples)
	checkCostSum(res, cs, sys)

	rpCounts := make([]int, len(chain))
	for j := 1; j <= len(chain); j++ {
		if rps, err := degraded.RPs(j); err == nil {
			rpCounts[j-1] = len(rps)
		}
	}
	res.digest = fmt.Sprintf("design=%s levels=%d outages=%d scope=%s age=%v horizon=%v rps=%v maxloss=%v samples=%d",
		cs.Design.Name, len(chain), len(cs.Outages), cs.Scenario.Scope, cs.Scenario.TargetAge,
		cs.Horizon, rpCounts, maxLoss, len(samples))
	return res, nil
}

// MaxCycle returns the longest cycle period in the chain: the scale of
// the fault windows the generators draw.
func MaxCycle(chain hierarchy.Chain) time.Duration {
	var max time.Duration
	for _, lvl := range chain {
		if c := lvl.Policy.CyclePeriod(); c > max {
			max = c
		}
	}
	return max
}

// sampleInstants builds the failure-instant grid: ~96 uniform steady-state
// instants plus retention-expiry and propagation-completion edges (the
// instant an RP becomes available, the nanosecond before — mid-propagation
// — and the same pair around expiry), strided to a bounded count.
func sampleInstants(s *sim.History, levels int, from, to time.Duration) []time.Duration {
	step := Quantize((to - from) / 96)
	var out []time.Duration
	for t := from; t <= to; t += step {
		out = append(out, t)
	}
	for j := 1; j <= levels; j++ {
		rps, err := s.RPs(j)
		if err != nil {
			continue
		}
		var edges []time.Duration
		for _, rp := range rps {
			for _, e := range []time.Duration{
				rp.AvailableAt - time.Nanosecond, rp.AvailableAt,
				rp.ExpiresAt - time.Nanosecond, rp.ExpiresAt,
			} {
				if e >= from && e <= to {
					edges = append(edges, e)
				}
			}
		}
		stride := len(edges)/64 + 1
		for i := 0; i < len(edges); i += stride {
			out = append(out, edges[i])
		}
	}
	return out
}

// EffectiveOutages converts the simulated fault schedule into analytic
// per-level outage durations. Each outage is inflated by one cycle period
// (an outage shorter than a cycle still suppresses a whole window close,
// and gaps under one cycle between back-to-back outages suppress closes
// too) and, when in-flight transfers abort, by one transfer lag (the RP
// destroyed mid-propagation was up to one lag from landing).
func EffectiveOutages(chain hierarchy.Chain, outs []sim.Outage) []hierarchy.LevelOutage {
	return appendLevelTotals(nil, chain, outs, true)
}

// rawOutages sums the schedule per level without inflation, for
// model-vs-model degraded comparisons.
func rawOutages(chain hierarchy.Chain, outs []sim.Outage) []hierarchy.LevelOutage {
	return appendLevelTotals(nil, chain, outs, false)
}

// appendLevelTotals appends each level's summed outage, in level order,
// omitting levels with none. Outages on a level outside the chain count
// for no level.
func appendLevelTotals(dst []hierarchy.LevelOutage, chain hierarchy.Chain, outs []sim.Outage, inflate bool) []hierarchy.LevelOutage {
	for i := range chain {
		pol := &chain[i].Policy
		var total time.Duration
		for _, o := range outs {
			if o.Level != i+1 {
				continue
			}
			d := o.To - o.From
			if inflate {
				d += pol.CyclePeriod()
				if o.AbortInFlight {
					d += pol.TransferLag()
				}
			}
			total += d
		}
		if total > 0 {
			dst = append(dst, hierarchy.LevelOutage{Level: i + 1, Outage: total})
		}
	}
	return dst
}

// SkipReason names why an analytic bound comparison is skipped rather
// than checked. SkipNone means the bound holds and the comparison runs.
type SkipReason string

const (
	// SkipNone: the bound is defensible; compare against it.
	SkipNone SkipReason = ""
	// SkipPastRetention: the target age is beyond what the (possibly
	// degraded) chain retains, so there is no bound to defend.
	SkipPastRetention SkipReason = "past-retention"
	// SkipDegradedBuild: the degraded compound chain could not be built
	// for this outage schedule.
	SkipDegradedBuild SkipReason = "degraded-build"
	// SkipDegradedEmptyRange: the degraded guaranteed range collapsed to
	// empty — the outage swallowed the level's whole retention window.
	SkipDegradedEmptyRange SkipReason = "degraded-empty-range"
	// SkipDegradedRetentionGap: the target age sits inside the degraded
	// retention band but at or past the conservative lag, where the
	// degraded model's retention accounting is known-optimistic (see
	// ROADMAP) — scoped out rather than defended.
	SkipDegradedRetentionGap SkipReason = "degraded-retention-gap"
	// SkipDegradedStarvedBelow: a level below j lost its entire guaranteed
	// range to an outage, so every RP there can expire mid-outage and j's
	// captures run dry — the model only delays j's lag by the outage
	// duration and is known-optimistic by up to one of j's cycles (see
	// ROADMAP). Scoped out rather than defended.
	SkipDegradedStarvedBelow SkipReason = "degraded-starved-below"
)

// AnalyticBoundReason returns the worst-case loss bound the model is
// prepared to defend for level j at the given target age under the fault
// schedule, or the named reason the comparison is skipped.
func AnalyticBoundReason(chain hierarchy.Chain, outs []sim.Outage, j int, age time.Duration) (time.Duration, SkipReason) {
	var b Bounds
	b.Reset(chain, outs)
	return b.Reason(j, age)
}

// Bounds answers AnalyticBoundReason for one fault schedule at every
// level and target age asked, deriving the schedule's effective outages
// and degraded chain once. Reset reuses the storage of the schedule
// before, so a Monte Carlo trial resolves its bounds without allocating.
// The zero value is ready for Reset.
type Bounds struct {
	chain   hierarchy.Chain
	faulted bool // the schedule has an outage
	eff     []hierarchy.LevelOutage
	deg     hierarchy.Chain
	degErr  error
	storage hierarchy.Degraded
}

// Reset points b at the chain under a new fault schedule. The chain's
// degraded copy lives in b's storage, valid until the next Reset.
func (b *Bounds) Reset(chain hierarchy.Chain, outs []sim.Outage) {
	b.chain, b.faulted = chain, len(outs) > 0
	b.eff = appendLevelTotals(b.eff[:0], chain, outs, true)
	b.deg, b.degErr = nil, nil
	if b.faulted {
		b.deg, b.degErr = b.storage.Compound(chain, b.eff)
	}
}

// Degraded returns the chain degraded by the schedule's effective
// outages (EffectiveOutages), or nil when the schedule has no outage or
// the degraded chain cannot be built.
func (b *Bounds) Degraded() hierarchy.Chain {
	if b.degErr != nil {
		return nil
	}
	return b.deg
}

// Reason is AnalyticBoundReason(chain, outs, j, age) for the chain and
// schedule of the last Reset.
func (b *Bounds) Reason(j int, age time.Duration) (time.Duration, SkipReason) {
	chain := b.chain
	if !b.faulted {
		var loss time.Duration
		var ok bool
		if chain.Aligned() {
			loss, ok = chain.WorstCaseLoss(j, age)
		} else {
			loss, ok = chain.ConservativeWorstCaseLoss(j, age)
		}
		if !ok {
			return 0, SkipPastRetention
		}
		return loss, SkipNone
	}
	if b.degErr != nil {
		return 0, SkipDegradedBuild
	}
	deg := b.deg
	rg := deg.GuaranteedRange(j)
	if rg.Empty() {
		return 0, SkipDegradedEmptyRange
	}
	for _, lo := range b.eff {
		if lo.Level >= j {
			continue
		}
		// An outage that outlives every guaranteed RP at a level below j
		// starves j's captures dry: the model only delays j's lag by the
		// outage duration, not by the capture cycles j loses on top.
		if sub := chain.GuaranteedRange(lo.Level); sub.Empty() || lo.Outage >= sub.Oldest {
			return 0, SkipDegradedStarvedBelow
		}
	}
	lag := deg.ConservativeMaxLag(j)
	if age >= lag {
		if age <= rg.Oldest {
			return 0, SkipDegradedRetentionGap
		}
		return 0, SkipPastRetention
	}
	return lag, SkipNone
}

// Bound is the boolean view of Reason, as AnalyticBound is of
// AnalyticBoundReason.
func (b *Bounds) Bound(j int, age time.Duration) (time.Duration, bool) {
	bound, reason := b.Reason(j, age)
	return bound, reason == SkipNone
}

// AnalyticBound is the boolean view of AnalyticBoundReason: ok=false
// means the comparison is skipped for one of the named reasons. The
// Monte Carlo engine (internal/mc) checks its trials against this same
// function, so the two campaign engines cannot drift on what "the
// bound" means or on which comparisons the documented model-soundness
// gaps skip.
func AnalyticBound(chain hierarchy.Chain, outs []sim.Outage, j int, age time.Duration) (time.Duration, bool) {
	bound, reason := AnalyticBoundReason(chain, outs, j, age)
	return bound, reason == SkipNone
}

// checkLossBounds verifies simulated loss against the analytic worst case
// per surviving level, and that the healthy simulation actually recovers
// wherever the healthy guaranteed range covers the target age. Returns
// the maximum simulated loss observed (for the campaign digest).
func checkLossBounds(res *runResult, cs *Case, chain hierarchy.Chain,
	healthy, degraded *sim.History, surviving []int, samples []time.Duration) time.Duration {
	age := cs.Scenario.TargetAge
	var maxLoss time.Duration
	for _, j := range surviving {
		bound, ok := AnalyticBound(chain, cs.Outages, j, age)
		if !ok {
			res.skipped++
		} else {
			for _, t := range samples {
				loss, _, lok := degraded.Loss([]int{j}, t, age)
				if !lok {
					continue
				}
				if loss > maxLoss {
					maxLoss = loss
				}
				res.check(invLossBound)
				if loss > bound {
					res.violate(invLossBound,
						"level %d at t=%v age=%v: simulated loss %v exceeds analytic bound %v",
						j, t, age, loss, bound)
					break
				}
			}
		}
		rg := chain.GuaranteedRange(j)
		if rg.Empty() || age > rg.Oldest {
			continue
		}
		for _, t := range samples {
			if t < age {
				continue
			}
			res.check(invCoverage)
			if _, _, lok := healthy.Loss([]int{j}, t, age); !lok {
				res.violate(invCoverage,
					"level %d at t=%v: age %v inside guaranteed range %v but simulation cannot recover",
					j, t, age, rg)
				break
			}
		}
	}
	return maxLoss
}

// agesGrid spans the interesting target ages for level j: now, inside the
// too-recent band, both guaranteed-range endpoints, mid-range, and past
// the end of retention.
func agesGrid(chain hierarchy.Chain, j int) []time.Duration {
	rg := chain.GuaranteedRange(j)
	cycle := chain[j-1].Policy.CyclePeriod()
	return []time.Duration{
		0,
		rg.Newest / 2,
		rg.Newest,
		(rg.Newest + rg.Oldest) / 2,
		rg.Oldest,
		rg.Oldest + cycle,
		rg.Oldest + 10*cycle,
	}
}

// checkAgeMonotone verifies the analytic model alone: worst-case loss is
// monotone non-increasing in target age while the target stays
// recoverable, and recoverability never resumes once lost — for both the
// tight and the conservative bounds, healthy and degraded.
func checkAgeMonotone(res *runResult, chain hierarchy.Chain, outs []sim.Outage) {
	chains := []hierarchy.Chain{chain}
	if len(outs) > 0 {
		if deg, err := chain.DegradedCompound(rawOutages(chain, outs)); err == nil {
			chains = append(chains, deg)
		}
	}
	for _, c := range chains {
		for j := 1; j <= len(c); j++ {
			for _, f := range []func(int, time.Duration) (time.Duration, bool){c.WorstCaseLoss, c.ConservativeWorstCaseLoss} {
				prev := units.Forever
				lost := false
				for _, a := range agesGrid(c, j) {
					loss, ok := f(j, a)
					res.check(invAgeMonotone)
					if !ok {
						lost = true
						continue
					}
					if lost {
						res.violate(invAgeMonotone,
							"level %d: age %v recoverable after an older age was not", j, a)
						break
					}
					if loss > prev {
						res.violate(invAgeMonotone,
							"level %d: loss %v at age %v exceeds loss %v at a younger age", j, loss, a, prev)
						break
					}
					prev = loss
				}
			}
		}
	}
}

// checkRTSane verifies restore volumes and times on the healthy
// simulation: every plan moves at least the data object, study aggregates
// are ordered, and time is monotone in volume at fixed bandwidth.
func checkRTSane(res *runResult, cs *Case, healthy *sim.History,
	surviving []int, samples []time.Duration, from, to time.Duration) {
	if len(surviving) == 0 || len(samples) == 0 {
		return
	}
	w := cs.Design.Workload
	age := cs.Scenario.TargetAge
	var minVol, maxVol units.ByteSize
	seen := false
	for _, t := range samples {
		plan, ok := healthy.Plan(surviving, t, age)
		if !ok {
			continue
		}
		vol := plan.Volume(w)
		res.check(invRTSane)
		if vol < w.DataCap {
			res.violate(invRTSane, "restore volume %v at t=%v below data object size %v", vol, t, w.DataCap)
			break
		}
		if plan.FullCut > plan.Serving.Cut {
			res.violate(invRTSane, "restore plan at t=%v: base full cut %v after serving cut %v",
				t, plan.FullCut, plan.Serving.Cut)
			break
		}
		if !seen || vol < minVol {
			minVol = vol
		}
		if vol > maxVol {
			maxVol = vol
		}
		seen = true
	}
	bw := 50 * units.MBPerSec
	fixed := time.Hour
	if seen {
		res.check(invRTSane)
		if units.Div(maxVol, bw) < units.Div(minVol, bw) {
			res.violate(invRTSane, "restore time not monotone in volume: %v < %v",
				units.Div(maxVol, bw), units.Div(minVol, bw))
		}
	}
	step := Quantize((to - from) / 48)
	st, err := healthy.RTStudy(w, surviving, age, from, to, step, bw, fixed)
	if err != nil {
		res.violate(invRTSane, "RTStudy failed: %v", err)
		return
	}
	if st.Samples-st.Unrecoverable <= 0 {
		return
	}
	// ByteSize is floating point; the mean accumulates ulp-level rounding,
	// so the ordering comparisons carry a small relative tolerance.
	res.check(invRTSane)
	if !volLE(st.MinVolume, st.MeanVolume) || !volLE(st.MeanVolume, st.MaxVolume) {
		res.violate(invRTSane, "restore volume aggregates unordered: min %v mean %v max %v",
			st.MinVolume, st.MeanVolume, st.MaxVolume)
	}
	res.check(invRTSane)
	if st.MeanTime < fixed || st.MaxTime < st.MeanTime-time.Microsecond {
		res.violate(invRTSane, "restore time aggregates unordered: fixed %v mean %v max %v",
			fixed, st.MeanTime, st.MaxTime)
	}
}

// checkDegradedDominates verifies degraded mode never beats normal mode:
// pointwise in the simulator (same instant, same age), per level in the
// analytic model, and end-to-end in assessments.
func checkDegradedDominates(res *runResult, cs *Case, sys *core.System, chain hierarchy.Chain,
	healthy, degraded *sim.History, surviving []int, samples []time.Duration) {
	if len(cs.Outages) == 0 {
		return
	}
	// Pointwise simulator dominance only holds for restore-to-now on
	// non-cyclic levels. With a rollback target, an outage-staled RP can
	// land just under the target and legitimately serve it better than
	// the fresher healthy RP would. And on cyclic levels, suppressing a
	// full re-bases later incrementals onto the previous (long-available)
	// full, so degraded mode can genuinely recover where healthy mode's
	// fresh incrementals still wait for their in-flight base full.
	for _, j := range surviving {
		if chain[j-1].Policy.Secondary != nil {
			continue
		}
		for _, t := range samples {
			lossH, _, okH := healthy.Loss([]int{j}, t, 0)
			lossD, _, okD := degraded.Loss([]int{j}, t, 0)
			res.check(invDegDominates)
			if okD && !okH {
				res.violate(invDegDominates,
					"level %d at t=%v: degraded run recovers where healthy run cannot", j, t)
				break
			}
			if okD && okH && lossD < lossH {
				res.violate(invDegDominates,
					"level %d at t=%v: degraded loss %v below healthy loss %v", j, t, lossD, lossH)
				break
			}
		}
	}
	raw := rawOutages(chain, cs.Outages)
	deg, err := chain.DegradedCompound(raw)
	if err != nil {
		return
	}
	for j := 1; j <= len(chain); j++ {
		for _, a := range agesGrid(chain, j) {
			lossH, okH := chain.WorstCaseLoss(j, a)
			if !okH {
				continue
			}
			lossD, okD := deg.WorstCaseLoss(j, a)
			res.check(invDegDominates)
			if !okD {
				res.violate(invDegDominates,
					"level %d age %v: recoverable normally but not in degraded mode", j, a)
				break
			}
			if lossD < lossH {
				res.violate(invDegDominates,
					"level %d age %v: degraded analytic loss %v below normal %v", j, a, lossD, lossH)
				break
			}
		}
	}
	aH, err := sys.Assess(cs.Scenario)
	if err != nil {
		return
	}
	aD, err := sys.AssessDegradedCompound(cs.Scenario, raw)
	if err != nil {
		return
	}
	res.check(invDegDominates)
	if !aH.WholeObjectLost && aD.WholeObjectLost {
		res.violate(invDegDominates, "assessment: object lost in degraded mode but not normally")
		return
	}
	// The end-to-end loss comparison is only sound for restore-to-now:
	// degradation extends each level's guaranteed range at the old end
	// (retention span plus a larger lag), so a rollback target just past
	// healthy retention at a fast level can "resurrect" there in degraded
	// mode and legitimately lower the min-over-levels loss.
	if cs.Scenario.TargetAge == 0 {
		res.check(invDegDominates)
		if !aH.WholeObjectLost && !aD.WholeObjectLost && aD.DataLoss < aH.DataLoss {
			res.violate(invDegDominates, "assessment: degraded loss %v below normal loss %v",
				aD.DataLoss, aH.DataLoss)
		}
	}
}

// volLE reports a <= b up to a relative float tolerance.
func volLE(a, b units.ByteSize) bool {
	return float64(a) <= float64(b)*(1+1e-9)+1
}

// moneyEq compares money with a small relative tolerance. Unrecoverable
// scenarios yield +Inf penalties; equal infinities are equal components
// (Inf-Inf would otherwise poison the comparison with NaN).
func moneyEq(a, b units.Money) bool {
	if math.IsInf(float64(a), 0) || math.IsInf(float64(b), 0) {
		return a == b
	}
	diff := float64(a - b)
	if diff < 0 {
		diff = -diff
	}
	scale := float64(a)
	if scale < 0 {
		scale = -scale
	}
	if s := float64(b); s > scale {
		scale = s
	}
	if scale < 1 {
		scale = 1
	}
	return diff <= 1e-9*scale
}

// checkCostSum verifies an assessment's cost components sum to the
// reported totals, and the basic output-metric sanity (non-negative
// recovery time and loss).
func checkCostSum(res *runResult, cs *Case, sys *core.System) {
	assessments := make([]*core.Assessment, 0, 2)
	if a, err := sys.Assess(cs.Scenario); err == nil {
		assessments = append(assessments, a)
	}
	if len(cs.Outages) > 0 {
		if a, err := sys.AssessDegradedCompound(cs.Scenario, rawOutages(sys.Chain(), cs.Outages)); err == nil {
			assessments = append(assessments, a)
		}
	}
	for _, a := range assessments {
		res.check(invCostSum)
		if a.RecoveryTime < 0 || a.DataLoss < 0 {
			res.violate(invCostSum, "negative output metric: RT %v loss %v", a.RecoveryTime, a.DataLoss)
			continue
		}
		c := a.Cost
		res.check(invCostSum)
		if !moneyEq(c.Total(), c.Outlays.Total()+c.Penalties.Total()) {
			res.violate(invCostSum, "total %v != outlays %v + penalties %v",
				c.Total(), c.Outlays.Total(), c.Penalties.Total())
		}
		res.check(invCostSum)
		if !moneyEq(c.Penalties.Total(), c.Penalties.Outage+c.Penalties.Loss) {
			res.violate(invCostSum, "penalties %v != outage %v + loss %v",
				c.Penalties.Total(), c.Penalties.Outage, c.Penalties.Loss)
		}
		var items units.Money
		for _, it := range c.Outlays.Items {
			items += it.Total()
		}
		res.check(invCostSum)
		if !moneyEq(items, c.Outlays.Total()) {
			res.violate(invCostSum, "outlay items sum %v != outlays total %v", items, c.Outlays.Total())
		}
		byTech, _ := c.Outlays.ByTechnique()
		var techSum units.Money
		for _, m := range byTech {
			techSum += m
		}
		res.check(invCostSum)
		if !moneyEq(techSum, c.Outlays.Total()) {
			res.violate(invCostSum, "per-technique sum %v != outlays total %v", techSum, c.Outlays.Total())
		}
		byDev, _ := c.Outlays.ByDevice()
		var devSum units.Money
		for _, m := range byDev {
			devSum += m
		}
		res.check(invCostSum)
		if !moneyEq(devSum, c.Outlays.Total()) {
			res.violate(invCostSum, "per-device sum %v != outlays total %v", devSum, c.Outlays.Total())
		}
	}
}
