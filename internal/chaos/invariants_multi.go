package chaos

import (
	"fmt"
	"strings"
	"time"

	"stordep/internal/core"
	"stordep/internal/cost"
	"stordep/internal/failure"
	"stordep/internal/hierarchy"
	"stordep/internal/sim"
	"stordep/internal/units"
)

// Multi-object invariant names.
const (
	// invMultiDepOrder: no object's recovery starts before every one of
	// its dependencies has finished; independent objects start at zero.
	invMultiDepOrder = "multi-dep-order"
	// invMultiCritPath: the service recovery time equals the dependency-
	// graph critical path over per-object recovery times, and service
	// loss equals the worst per-object loss.
	invMultiCritPath = "multi-critical-path"
	// invMultiUtilSum: aggregate per-device demand equals the sum of
	// per-object demands, aggregate utilization dominates every
	// single-object utilization, and never exceeds the single-object
	// bound of 1.
	invMultiUtilSum = "multi-util-sum"
	// invMultiCostSum: service cost components sum to reported totals,
	// penalties follow the service metrics, and every object reports the
	// same shared-fleet outlays.
	invMultiCostSum = "multi-cost-sum"
)

func multiInvariantNames() []string {
	return append(invariantNames(),
		invMultiDepOrder, invMultiCritPath, invMultiUtilSum, invMultiCostSum)
}

func (mcs *MultiCase) check() (*runResult, error) { return checkMultiCase(mcs) }

// checkMultiCase runs the multi-object battery on one case: the full
// single-object battery per object (each object's hierarchy must hold
// its own invariants under its own outage schedule), then the
// service-level invariants over the shared fleet and dependency DAG.
// Correlated cases additionally materialize shared-device, region and
// corruption events into per-object faults, run the correlation-
// consistency check against an independent re-derivation, and classify
// every operator fault through the detection-coverage invariants.
func checkMultiCase(mcs *MultiCase) (*runResult, error) {
	correlated := len(mcs.Events) > 0 || len(mcs.OpFaults) > 0
	res := &runResult{counts: make(map[string]int)}
	names := multiInvariantNames()
	if correlated {
		names = correlatedInvariantNames()
	}
	for _, name := range names {
		res.counts[name] = 0
	}
	ms, err := core.BuildMulti(mcs.Design)
	if err != nil {
		return nil, err
	}

	// Materialize correlated events into per-object hardware outages and
	// silent corruption windows, merged with the independent per-object
	// schedule. Operator silent-non-writes join the silent set: sim-wise
	// they are the same primitive, classified separately below.
	derived, err := deriveEvents(mcs.Design, mcs.Events)
	if err != nil {
		return nil, err
	}
	merged := append(append([]ObjectOutage(nil), mcs.Outages...), derivedOutages(derived)...)
	allSilents := derivedSilents(derived)
	for _, f := range mcs.OpFaults {
		if f.Kind == failure.OpSilentNonWrite {
			allSilents = append(allSilents, ObjectSilent{
				Object:      f.Object,
				SilentFault: sim.SilentFault{Level: f.Level, From: f.From, To: f.To},
			})
		}
	}

	// Per-object batteries. ObjectDesign carries the shared fleet, so the
	// per-object build sees the same devices with only that object's
	// demands — per-object loss bounds must hold under the same schedule
	// regardless of what else shares the fleet.
	var digests []string
	for _, obj := range mcs.Design.Objects {
		cs := &Case{
			Design:   mcs.Design.ObjectDesign(obj),
			Scenario: mcs.Scenario,
			Horizon:  mcs.Horizon,
			Outages:  outagesIn(merged, obj.Name),
		}
		sub, err := checkCase(cs)
		if err != nil {
			return nil, fmt.Errorf("object %s: %w", obj.Name, err)
		}
		for name, n := range sub.counts {
			res.counts[name] += n
		}
		res.skipped += sub.skipped
		for _, v := range sub.violations {
			v.Detail = fmt.Sprintf("object %s: %s", obj.Name, v.Detail)
			res.violations = append(res.violations, v)
		}
		digests = append(digests, sub.digest)
	}

	checkMultiUtilSum(res, mcs, ms)

	sas := serviceAssessments(res, mcs, ms, merged)
	for _, la := range sas {
		checkMultiSchedule(res, mcs, la.label, la.sa)
		checkMultiCostSum(res, mcs, ms, la.label, la.sa)
	}

	if correlated {
		checkCorrConsistency(res, mcs, derived)
		if err := checkOpFaults(res, mcs, ms, merged, allSilents); err != nil {
			return nil, err
		}
	}

	var rt, dl time.Duration = -1, -1
	if len(sas) > 0 {
		rt, dl = sas[0].sa.RecoveryTime, sas[0].sa.DataLoss
	}
	res.digest = fmt.Sprintf("multi design=%s objects=%d edges=%d outages=%d scope=%s age=%v horizon=%v rt=%v loss=%v | %s",
		mcs.Design.Name, len(mcs.Design.Objects), dependencyEdges(mcs.Design), len(mcs.Outages),
		mcs.Scenario.Scope, mcs.Scenario.TargetAge, mcs.Horizon, rt, dl,
		strings.Join(digests, " | "))
	if correlated {
		res.digest += fmt.Sprintf(" events=%d opfaults=%d detected=%d escapes=%d",
			len(mcs.Events), len(mcs.OpFaults), res.opDetected, res.opEscapes)
	}
	return res, nil
}

func dependencyEdges(md *core.MultiDesign) int {
	n := 0
	for _, obj := range md.Objects {
		n += len(obj.DependsOn)
	}
	return n
}

type labeledAssessment struct {
	label string
	sa    *core.ServiceAssessment
}

// serviceAssessments evaluates the scenario healthy and — when outages
// were injected (independent or materialized from correlated events) —
// degraded, with each object's hierarchy weakened by its own raw outage
// totals.
func serviceAssessments(res *runResult, mcs *MultiCase, ms *core.MultiSystem, merged []ObjectOutage) []labeledAssessment {
	var out []labeledAssessment
	sa, err := ms.Assess(mcs.Scenario)
	if err != nil {
		res.violate(invMultiCritPath, "healthy service assessment failed: %v", err)
		return nil
	}
	out = append(out, labeledAssessment{"healthy", sa})
	if len(merged) == 0 {
		return out
	}
	byObject := make(map[string][]hierarchy.LevelOutage)
	for _, obj := range mcs.Design.Objects {
		if outs := outagesIn(merged, obj.Name); len(outs) > 0 {
			chain := ms.Object(obj.Name).Chain()
			if lo := rawOutages(chain, outs); len(lo) > 0 {
				byObject[obj.Name] = lo
			}
		}
	}
	if len(byObject) == 0 {
		return out
	}
	saD, err := ms.AssessDegraded(mcs.Scenario, byObject)
	if err != nil {
		res.violate(invMultiCritPath, "degraded service assessment failed: %v", err)
		return out
	}
	out = append(out, labeledAssessment{"degraded", saD})
	return out
}

// checkMultiSchedule re-derives the dependency-ordered recovery schedule
// from per-object recovery times alone and verifies the service
// assessment against it: start gates (multi-dep-order) and the critical
// path plus worst-loss composition (multi-critical-path).
func checkMultiSchedule(res *runResult, mcs *MultiCase, label string, sa *core.ServiceAssessment) {
	deps := make(map[string][]string, len(mcs.Design.Objects))
	for _, obj := range mcs.Design.Objects {
		deps[obj.Name] = obj.DependsOn
	}
	byName := make(map[string]core.ObjectAssessment, len(sa.Objects))
	for _, oa := range sa.Objects {
		byName[oa.Object] = oa
	}
	// Independent longest-path recomputation, memoized over the DAG.
	finish := make(map[string]time.Duration, len(sa.Objects))
	var walk func(string) time.Duration
	walk = func(name string) time.Duration {
		if f, ok := finish[name]; ok {
			return f
		}
		var gate time.Duration
		for _, dep := range deps[name] {
			if f := walk(dep); f > gate {
				gate = f
			}
		}
		own := byName[name].RecoveryTime
		f := units.Forever
		if own != units.Forever && gate != units.Forever {
			f = gate + own
		}
		finish[name] = f
		return f
	}

	var wantCritical, wantLoss time.Duration
	for _, oa := range sa.Objects {
		var gate time.Duration
		for _, dep := range deps[oa.Object] {
			f := walk(dep)
			res.check(invMultiDepOrder)
			if oa.RecoveryStart < f {
				res.violate(invMultiDepOrder,
					"%s: object %s recovery starts at %v before dependency %s completes at %v",
					label, oa.Object, oa.RecoveryStart, dep, f)
			}
			if f > gate {
				gate = f
			}
		}
		res.check(invMultiDepOrder)
		if oa.RecoveryStart != gate {
			res.violate(invMultiDepOrder,
				"%s: object %s recovery start %v != latest dependency completion %v",
				label, oa.Object, oa.RecoveryStart, gate)
		}
		if len(deps[oa.Object]) == 0 {
			res.check(invMultiDepOrder)
			if oa.RecoveryStart != 0 {
				res.violate(invMultiDepOrder,
					"%s: independent object %s does not start recovery immediately (start %v)",
					label, oa.Object, oa.RecoveryStart)
			}
		}
		res.check(invMultiCritPath)
		if want := walk(oa.Object); oa.EffectiveRT != want {
			res.violate(invMultiCritPath,
				"%s: object %s effective RT %v != dependency-path RT %v",
				label, oa.Object, oa.EffectiveRT, want)
		}
		if f := walk(oa.Object); f > wantCritical {
			wantCritical = f
		}
		if oa.DataLoss > wantLoss {
			wantLoss = oa.DataLoss
		}
	}
	res.check(invMultiCritPath)
	if sa.RecoveryTime != wantCritical {
		res.violate(invMultiCritPath,
			"%s: service RT %v != critical path %v", label, sa.RecoveryTime, wantCritical)
	}
	res.check(invMultiCritPath)
	if sa.DataLoss != wantLoss {
		res.violate(invMultiCritPath,
			"%s: service loss %v != worst per-object loss %v", label, sa.DataLoss, wantLoss)
	}
}

// sumEq compares demand totals with a relative float tolerance (float
// addition across objects is not associative).
func sumEq(a, b float64) bool {
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	scale := a
	if scale < 0 {
		scale = -scale
	}
	if s := b; s < 0 {
		s = -s
		if s > scale {
			scale = s
		}
	} else if s > scale {
		scale = s
	}
	return diff <= 1e-9*scale+1e-12
}

// checkMultiUtilSum verifies shared-fleet demand aggregation: for every
// device, the aggregate bandwidth and capacity demand equals the sum of
// the per-object demands (each object rebuilt alone on a fresh fleet),
// the aggregate utilization dominates every single-object utilization,
// and stays within the same bounds a single-object build enforces.
func checkMultiUtilSum(res *runResult, mcs *MultiCase, ms *core.MultiSystem) {
	agg := make(map[string]core.DeviceUtilization)
	for _, du := range ms.Utilization().PerDevice {
		agg[du.Device] = du
	}
	sumBW := make(map[string]float64, len(agg))
	sumCap := make(map[string]float64, len(agg))
	for _, obj := range mcs.Design.Objects {
		sys, err := core.Build(mcs.Design.ObjectDesign(obj))
		if err != nil {
			res.check(invMultiUtilSum)
			res.violate(invMultiUtilSum,
				"object %s does not build alone on the shared fleet: %v", obj.Name, err)
			return
		}
		for _, du := range sys.Utilization().PerDevice {
			sumBW[du.Device] += float64(du.Bandwidth)
			sumCap[du.Device] += float64(du.Capacity)
			a, ok := agg[du.Device]
			res.check(invMultiUtilSum)
			if !ok {
				res.violate(invMultiUtilSum,
					"object %s uses device %s missing from the aggregate report", obj.Name, du.Device)
				continue
			}
			if du.BWUtil > a.BWUtil*(1+1e-9)+1e-12 || du.CapUtil > a.CapUtil*(1+1e-9)+1e-12 {
				res.violate(invMultiUtilSum,
					"device %s: object %s utilization (bw %.6f cap %.6f) exceeds aggregate (bw %.6f cap %.6f)",
					du.Device, obj.Name, du.BWUtil, du.CapUtil, a.BWUtil, a.CapUtil)
			}
		}
	}
	for name, a := range agg {
		res.check(invMultiUtilSum)
		if !sumEq(float64(a.Bandwidth), sumBW[name]) {
			res.violate(invMultiUtilSum,
				"device %s: aggregate bandwidth demand %v != per-object sum %v",
				name, float64(a.Bandwidth), sumBW[name])
		}
		res.check(invMultiUtilSum)
		if !sumEq(float64(a.Capacity), sumCap[name]) {
			res.violate(invMultiUtilSum,
				"device %s: aggregate capacity demand %v != per-object sum %v",
				name, float64(a.Capacity), sumCap[name])
		}
		res.check(invMultiUtilSum)
		if a.BWUtil > 1+1e-9 || a.CapUtil > 1+1e-9 {
			res.violate(invMultiUtilSum,
				"device %s: aggregate utilization out of bounds (bw %.6f cap %.6f)",
				name, a.BWUtil, a.CapUtil)
		}
	}
}

// checkMultiCostSum verifies the service-level cost composition: totals
// sum, penalties follow the service recovery time and loss, and every
// object reports the same shared-fleet outlays (one fleet, one bill).
func checkMultiCostSum(res *runResult, mcs *MultiCase, ms *core.MultiSystem, label string, sa *core.ServiceAssessment) {
	c := sa.Cost
	res.check(invMultiCostSum)
	if sa.RecoveryTime < 0 || sa.DataLoss < 0 {
		res.violate(invMultiCostSum, "%s: negative service metric: RT %v loss %v",
			label, sa.RecoveryTime, sa.DataLoss)
		return
	}
	res.check(invMultiCostSum)
	if !moneyEq(c.Total(), c.Outlays.Total()+c.Penalties.Total()) {
		res.violate(invMultiCostSum, "%s: total %v != outlays %v + penalties %v",
			label, c.Total(), c.Outlays.Total(), c.Penalties.Total())
	}
	res.check(invMultiCostSum)
	if !moneyEq(c.Penalties.Total(), c.Penalties.Outage+c.Penalties.Loss) {
		res.violate(invMultiCostSum, "%s: penalties %v != outage %v + loss %v",
			label, c.Penalties.Total(), c.Penalties.Outage, c.Penalties.Loss)
	}
	want := cost.Assess(mcs.Design.Requirements, sa.RecoveryTime, sa.DataLoss)
	res.check(invMultiCostSum)
	if !moneyEq(c.Penalties.Outage, want.Outage) || !moneyEq(c.Penalties.Loss, want.Loss) {
		res.violate(invMultiCostSum,
			"%s: penalties %+v do not follow service metrics (want %+v)", label, c.Penalties, want)
	}
	res.check(invMultiCostSum)
	if !moneyEq(c.Outlays.Total(), ms.Outlays().Total()) {
		res.violate(invMultiCostSum, "%s: service outlays %v != fleet outlays %v",
			label, c.Outlays.Total(), ms.Outlays().Total())
	}
	for _, oa := range sa.Objects {
		res.check(invMultiCostSum)
		if !moneyEq(oa.Cost.Outlays.Total(), ms.Outlays().Total()) {
			res.violate(invMultiCostSum,
				"%s: object %s outlays %v != shared fleet outlays %v",
				label, oa.Object, oa.Cost.Outlays.Total(), ms.Outlays().Total())
		}
	}
}
