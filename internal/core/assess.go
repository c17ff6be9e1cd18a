package core

import (
	"fmt"
	"time"

	"stordep/internal/cost"
	"stordep/internal/device"
	"stordep/internal/failure"
	"stordep/internal/hierarchy"
	"stordep/internal/protect"
	"stordep/internal/recovery"
	"stordep/internal/units"
)

// Assessment is the full dependability evaluation of a design under one
// failure scenario: the four output metrics of Table 1 plus the resolved
// recovery plan.
type Assessment struct {
	// Scenario is the evaluated failure.
	Scenario failure.Scenario
	// Utilization is the normal-mode system utilization (scenario-
	// independent, repeated here for self-contained reports).
	Utilization Utilization
	// Plan is the resolved recovery path. For an unrecoverable scenario
	// Plan.SourceLevel is 0 and Steps is empty.
	Plan recovery.Plan
	// RecoveryTime is the worst-case time until the application runs
	// again (units.Forever when unrecoverable).
	RecoveryTime time.Duration
	// DataLoss is the worst-case recent data loss (units.Forever when the
	// whole object is lost).
	DataLoss time.Duration
	// WholeObjectLost reports the §3.3.3 third case: no surviving level
	// retained a usable RP.
	WholeObjectLost bool
	// Cost is the overall cost: annual outlays plus scenario penalties.
	Cost cost.Summary
	// Warnings carries the design's soft-convention violations.
	Warnings []string
}

// Assess evaluates the design under a failure scenario. Scenarios the
// design cannot recover from produce an Assessment with WholeObjectLost
// or infinite recovery time rather than an error; errors indicate invalid
// input.
func (s *System) Assess(sc failure.Scenario) (*Assessment, error) {
	return s.assess(sc, nil)
}

// AssessDegraded evaluates the scenario in degraded mode: the named
// protection level has been out of service for the outage duration when
// the failure strikes (§5 future work). RPs downstream of the degraded
// level are correspondingly staler, raising the worst-case loss.
func (s *System) AssessDegraded(sc failure.Scenario, levelName string, outage time.Duration) (*Assessment, error) {
	idx := s.chain.Index(levelName)
	if idx == 0 {
		return nil, fmt.Errorf("%w: %q", ErrUnknownLevel, levelName)
	}
	return s.assess(sc, []hierarchy.LevelOutage{{Level: idx, Outage: outage}})
}

// AssessDegradedCompound evaluates the scenario while several protection
// levels are degraded at once (e.g. the backup service down while the
// vault courier is also unavailable). Each named level has been out of
// service for its outage duration when the failure strikes.
func (s *System) AssessDegradedCompound(sc failure.Scenario, outages []hierarchy.LevelOutage) (*Assessment, error) {
	return s.assess(sc, outages)
}

// PlanDegradedCompound resolves the scenario's recovery plan on deg, the
// system's chain degraded by hierarchy.Chain.DegradedCompound (nil: the
// healthy chain), without the report-only fields an Assessment adds.
// lost reports the §3.3.3 whole-object-lost case; otherwise the plan's
// Time and Loss are the worst-case recovery time and data loss
// AssessDegradedCompound reports for the outages deg was degraded by. A
// caller resolving plan after plan (one per Monte Carlo trial and scope)
// degrades the chain once and passes a scratch: the plan then allocates
// nothing, its steps are unnamed and they alias the scratch until its
// next use. A nil scratch gives named steps in fresh storage.
func (s *System) PlanDegradedCompound(sc failure.Scenario, deg hierarchy.Chain, scratch *Scratch) (plan recovery.Plan, lost bool, err error) {
	if deg == nil {
		deg = s.chain
	}
	if err := sc.Validate(); err != nil {
		return recovery.Plan{}, false, err
	}
	plan, lost = s.resolvePlan(sc, deg, scratch == nil, scratch)
	return plan, lost, nil
}

// assess builds the full report on PlanDegradedCompound's plan.
func (s *System) assess(sc failure.Scenario, outages []hierarchy.LevelOutage) (*Assessment, error) {
	var deg hierarchy.Chain
	if outages != nil {
		var err error
		if deg, err = s.chain.DegradedCompound(outages); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	plan, lost, err := s.PlanDegradedCompound(sc, deg, nil)
	if err != nil {
		return nil, err
	}
	a := &Assessment{
		Scenario:    sc,
		Utilization: s.Utilization(),
		Warnings:    s.Warnings(),
	}
	if lost {
		s.finishLost(a)
		return a, nil
	}
	a.Plan = plan
	a.RecoveryTime = plan.Time()
	a.DataLoss = plan.Loss
	a.Cost = cost.Summary{
		Outlays:   s.outlays,
		Penalties: cost.Assess(s.design.Requirements, a.RecoveryTime, a.DataLoss),
	}
	return a, nil
}

// resolvePlan is the scenario-evaluation core shared by Assess and
// AssessBrief: pick the recovery source and lay out the timed steps.
// lost reports the §3.3.3 whole-object-lost case. named controls the
// report-only step labels; scratch (optional) supplies reusable buffers.
func (s *System) resolvePlan(sc failure.Scenario, chain hierarchy.Chain, named bool, scratch *Scratch) (plan recovery.Plan, lost bool) {
	var surviving []int
	if scratch != nil {
		surviving = s.SurvivingLevels(scratch.surviving[:0], sc)
		scratch.surviving = surviving
	} else {
		surviving = s.SurvivingLevels(nil, sc)
	}
	cand, err := recovery.SelectSource(chain, surviving, sc.TargetAge)
	if err != nil {
		return recovery.Plan{}, true // no surviving level retains a usable RP
	}
	tech := s.design.Levels[cand.Level-1]
	var buf []recovery.Step
	if scratch != nil {
		buf = scratch.steps[:0]
	}
	steps, ok := s.recoverySteps(buf, tech, sc, named)
	if scratch != nil {
		scratch.steps = steps[:0]
	}
	if !ok {
		// The data exists but nothing can read or receive it.
		return recovery.Plan{}, true
	}
	return recovery.Plan{
		SourceLevel: cand.Level,
		SourceName:  tech.Name(),
		Loss:        cand.Loss,
		Steps:       steps,
	}, false
}

// Brief is the scoring-grade subset of an Assessment: the scenario-
// dependent output metrics without the report-only fields (utilization
// breakdown, warnings, named recovery steps). It is what design-space
// search loops need per candidate, computable without a single
// allocation when a Scratch is supplied.
type Brief struct {
	// RecoveryTime is the worst-case time until the application runs
	// again (units.Forever when unrecoverable).
	RecoveryTime time.Duration
	// DataLoss is the worst-case recent data loss (units.Forever when
	// the whole object is lost).
	DataLoss time.Duration
	// WholeObjectLost reports the §3.3.3 third case.
	WholeObjectLost bool
	// Penalties is the total scenario penalty (outage plus loss).
	Penalties units.Money
	// Total is the overall cost: annual outlays plus Penalties.
	Total units.Money
}

// Scratch holds the reusable per-call buffers of AssessBrief, so
// streaming evaluation loops assess scenario after scenario without
// allocating. The zero value is ready to use. A Scratch must not be
// shared between concurrent calls.
type Scratch struct {
	surviving []int
	steps     []recovery.Step
}

// AssessBrief evaluates the design under a failure scenario through the
// same models as Assess, returning only the §3.3 output metrics — it
// skips the utilization breakdown, the soft-convention warnings and the
// recovery-plan step labels, which exist for reports, not scoring. The
// numbers are identical to the corresponding Assess fields. scratch may
// be nil; passing one reuses its buffers across calls.
func (s *System) AssessBrief(sc failure.Scenario, scratch *Scratch) (Brief, error) {
	if err := sc.Validate(); err != nil {
		return Brief{}, err
	}
	plan, lost := s.resolvePlan(sc, s.chain, false, scratch)
	var b Brief
	if lost {
		b.WholeObjectLost = true
		b.RecoveryTime = units.Forever
		b.DataLoss = units.Forever
	} else {
		b.RecoveryTime = plan.Time()
		b.DataLoss = plan.Loss
	}
	b.Penalties = cost.Assess(s.design.Requirements, b.RecoveryTime, b.DataLoss).Total()
	b.Total = s.outlaysTotal + b.Penalties
	return b, nil
}

// finishLost fills an assessment for the whole-object-lost case: both
// recovery time and loss are unbounded, and so are the penalties.
func (s *System) finishLost(a *Assessment) {
	a.WholeObjectLost = true
	a.RecoveryTime = units.Forever
	a.DataLoss = units.Forever
	a.Cost = cost.Summary{
		Outlays:   s.outlays,
		Penalties: cost.Assess(s.design.Requirements, units.Forever, units.Forever),
	}
}

// recoverySteps builds the recovery path from the chosen source level to
// the primary copy, skipping intermediate levels that would only add
// latency (§3.2: the recovery-path optimization): a recovery.Restore
// filled from the resolved devices, laid out as at most two hops. Steps
// are appended to buf (which may be nil); ok is false when the reader or
// the destination resolves to nothing. named controls the report-only
// hop labels — scoring paths skip them, as formatting the labels costs
// more than the timing model itself.
func (s *System) recoverySteps(buf []recovery.Step, tech protect.Technique, sc failure.Scenario, named bool) (steps []recovery.Step, ok bool) {
	d := s.design
	readName := tech.ReadDevice()
	if ms, isMulti := tech.(protect.MultiSited); isMulti {
		// Multi-sited reconstruction streams from a surviving fragment
		// site; source selection already verified the threshold holds.
		if _, first := s.multiSurvival(ms, sc.Scope); first != "" {
			readName = first
		}
	}
	// Build validated every device the design names.
	di, ri := d.deviceIndex(d.Primary.Array), d.deviceIndex(readName)
	dest, read := &d.Devices[di], &d.Devices[ri]
	dr, rr := s.resolve(di, sc.Scope), s.resolve(ri, sc.Scope)
	if dr.kind == resNone || rr.kind == resNone {
		return buf, false
	}
	r := recovery.Restore{
		MediaReturn:   tech.CopyDevice() != tech.ReadDevice(),
		ReadProvision: rr.provision,
		DestProvision: dr.provision,
		AccessDelay:   read.Spec.Delay,
		ReadIntact:    rr.kind == resIntact,
		ReadAvail:     s.Device(readName).AvailableBandwidth(),
		ReadMax:       read.Spec.MaxBandwidth(),
		DestIntact:    dr.kind == resIntact,
		DestAvail:     s.Device(dest.Spec.Name).AvailableBandwidth(),
		DestMax:       dest.Spec.MaxBandwidth(),
		SameDevice:    readName == dest.Spec.Name,
		Size:          tech.RestoreSize(d.Workload),
		RecoverSize:   sc.RecoverSize,
	}
	if t := d.placedDevice(tech.TransportDevice()); t != nil {
		r.Transit = t.Spec.Delay
		if t.Spec.Kind == device.KindInterconnect && rr.site != dr.site {
			r.CrossLink, r.LinkDelay = true, t.Spec.Delay
			r.LinkBW = s.Device(t.Spec.Name).AvailableBandwidth()
		}
	}
	steps = r.Steps(buf)
	if named {
		hops := steps[len(buf):]
		readLabel := readName + rr.label
		if r.MediaReturn {
			hops[0].Name = tech.CopyDevice() + " -> " + readLabel
			hops = hops[1:]
		}
		hops[0].Name = readLabel + " -> " + d.Primary.Array + dr.label
	}
	return steps, true
}

// AssessAll evaluates every scenario, in order.
func (s *System) AssessAll(scs []failure.Scenario) ([]*Assessment, error) {
	out := make([]*Assessment, 0, len(scs))
	for _, sc := range scs {
		a, err := s.Assess(sc)
		if err != nil {
			return nil, fmt.Errorf("core: scenario %s: %w", sc.DisplayName(), err)
		}
		out = append(out, a)
	}
	return out, nil
}
