package chaos

import (
	"fmt"
	"time"

	"stordep/internal/core"
	"stordep/internal/failure"
	"stordep/internal/hierarchy"
	"stordep/internal/protect"
	"stordep/internal/recovery"
	"stordep/internal/sim"
	"stordep/internal/units"
)

// The correlation engine gives the failure-package scenario vocabulary
// (correlated events, operator faults) its semantics: one trigger is
// materialized against a MultiDesign into per-object observations — the
// same window, the same cause, every dependent object at once — and the
// battery gains three invariants defending the materialization and the
// detection story:
//
//   - corr-consistency: a correlated event's per-object observations
//     agree on timing and scope, and the affected set matches an
//     independent device-first re-derivation.
//   - op-detection: every injected operator fault is classified — either
//     detected (the faulted observation exceeds the fault-unaware
//     analytic bound, or fails where the clean run must succeed) or
//     counted as a model-soundness escape. Nothing passes silently.
//   - op-dominates: an injected fault never improves any observation —
//     faulted loss dominates clean loss pointwise, a stale restore never
//     loses less than the intended one, and a misdirected restore
//     poisons the dependency-ordered service schedule, never shortens it.

// Correlated invariant names.
const (
	invCorrConsistency = "corr-consistency"
	invOpDetection     = "op-detection"
	invOpDominates     = "op-dominates"
)

func correlatedInvariantNames() []string {
	return append(multiInvariantNames(), invCorrConsistency, invOpDetection, invOpDominates)
}

// ObjectSilent targets one protection level of one object with a silent
// capture fault (correlated corruption, operator silent non-write).
type ObjectSilent struct {
	Object string
	sim.SilentFault
}

// derivedEvent is one correlated event materialized against a design:
// the per-object outages (hardware kinds) or silent faults (corruption)
// it induces, in deterministic design order.
type derivedEvent struct {
	event   failure.CorrEvent
	outages []ObjectOutage
	silents []ObjectSilent
}

// deriveEvents materializes correlated events against the design. Every
// event must affect at least one object level — an event that touches
// nothing cannot be correlated with anything and signals a stale repro
// or an over-shrunk case.
func deriveEvents(md *core.MultiDesign, events []failure.CorrEvent) ([]derivedEvent, error) {
	out := make([]derivedEvent, 0, len(events))
	for i, e := range events {
		if err := e.Validate(); err != nil {
			return nil, fmt.Errorf("chaos: correlated event %d: %w", i, err)
		}
		de := derivedEvent{event: e}
		switch e.Kind {
		case failure.CorrSharedDevice, failure.CorrRegion:
			for _, obj := range md.Objects {
				for j, tech := range obj.Levels {
					if eventHitsLevel(md, e, tech) {
						de.outages = append(de.outages, ObjectOutage{
							Object: obj.Name,
							Outage: sim.Outage{Level: j + 1, From: e.From, To: e.To, AbortInFlight: e.AbortInFlight},
						})
					}
				}
			}
		case failure.CorrCorruption:
			for _, obj := range md.Objects {
				if len(obj.Levels) == 0 || !e.Corrupts(obj.Name) {
					continue
				}
				de.silents = append(de.silents, ObjectSilent{
					Object:      obj.Name,
					SilentFault: sim.SilentFault{Level: 1, From: e.From, To: e.To},
				})
			}
		}
		if len(de.outages)+len(de.silents) == 0 {
			return nil, fmt.Errorf("chaos: correlated event %d (%s) affects nothing in design %s", i, e.Kind, md.Name)
		}
		out = append(out, de)
	}
	return out, nil
}

// eventHitsLevel reports whether a hardware event takes the level's
// propagation devices out of service.
func eventHitsLevel(md *core.MultiDesign, e failure.CorrEvent, tech protect.Technique) bool {
	for _, name := range core.LevelDeviceNames(nil, tech) {
		switch e.Kind {
		case failure.CorrSharedDevice:
			if name == e.Device {
				return true
			}
		case failure.CorrRegion:
			if p, ok := md.DevicePlacement(name); ok && p.Region == e.Region {
				return true
			}
		}
	}
	return false
}

// derivedOutages flattens every event's hardware outages, event order
// then design order.
func derivedOutages(derived []derivedEvent) []ObjectOutage {
	var out []ObjectOutage
	for _, de := range derived {
		out = append(out, de.outages...)
	}
	return out
}

// derivedSilents flattens every corruption event's silent faults.
func derivedSilents(derived []derivedEvent) []ObjectSilent {
	var out []ObjectSilent
	for _, de := range derived {
		out = append(out, de.silents...)
	}
	return out
}

// outagesIn selects the schedule entries for one object.
func outagesIn(list []ObjectOutage, name string) []sim.Outage {
	var out []sim.Outage
	for _, o := range list {
		if o.Object == name {
			out = append(out, o.Outage)
		}
	}
	return out
}

type affectedKey struct {
	Object string
	Level  int
}

// checkCorrConsistency verifies each materialized event against its
// trigger: every per-object observation carries exactly the event's
// window and abort flag (timing agreement), and the affected set equals
// an independent device-first re-derivation (scope agreement). The
// re-derivation walks the fleet before the levels — the reverse of
// deriveEvents's level-first walk — so a drift in either direction of
// the device-to-level attribution surfaces here.
func checkCorrConsistency(res *runResult, mcs *MultiCase, derived []derivedEvent) {
	for i, de := range derived {
		e := de.event
		res.check(invCorrConsistency)
		agreed := true
		for _, o := range de.outages {
			if o.From != e.From || o.To != e.To || o.AbortInFlight != e.AbortInFlight {
				res.violate(invCorrConsistency,
					"event %d (%s): object %s level %d observes [%v,%v) abort=%v, event says [%v,%v) abort=%v",
					i, e.Kind, o.Object, o.Level, o.From, o.To, o.AbortInFlight, e.From, e.To, e.AbortInFlight)
				agreed = false
				break
			}
		}
		for _, sf := range de.silents {
			if !agreed {
				break
			}
			if sf.From != e.From || sf.To != e.To || sf.Level != 1 {
				res.violate(invCorrConsistency,
					"event %d (%s): object %s silent fault [%v,%v) level %d disagrees with event [%v,%v) level 1",
					i, e.Kind, sf.Object, sf.From, sf.To, sf.Level, e.From, e.To)
				agreed = false
			}
		}

		res.check(invCorrConsistency)
		want := independentAffected(mcs.Design, e)
		got := make(map[affectedKey]bool, len(de.outages)+len(de.silents))
		for _, o := range de.outages {
			got[affectedKey{o.Object, o.Level}] = true
		}
		for _, sf := range de.silents {
			got[affectedKey{sf.Object, sf.Level}] = true
		}
		if len(got) != len(want) {
			res.violate(invCorrConsistency,
				"event %d (%s): %d affected pairs materialized, independent derivation finds %d",
				i, e.Kind, len(got), len(want))
			continue
		}
		for k := range want {
			if !got[k] {
				res.violate(invCorrConsistency,
					"event %d (%s): independent derivation affects %s level %d but the event did not materialize there",
					i, e.Kind, k.Object, k.Level)
				break
			}
		}
	}
}

// independentAffected recomputes an event's affected (object, level)
// pairs device-first: collect the fleet devices in the event's scope,
// then test each level's propagation devices against that set via the
// raw protect interface (not core.LevelDeviceNames).
func independentAffected(md *core.MultiDesign, e failure.CorrEvent) map[affectedKey]bool {
	want := make(map[affectedKey]bool)
	if e.Kind == failure.CorrCorruption {
		for _, obj := range md.Objects {
			if len(obj.Levels) > 0 && e.Corrupts(obj.Name) {
				want[affectedKey{obj.Name, 1}] = true
			}
		}
		return want
	}
	scoped := make(map[string]bool)
	switch e.Kind {
	case failure.CorrSharedDevice:
		scoped[e.Device] = true
	case failure.CorrRegion:
		for _, pd := range md.Devices {
			if pd.Placement.Region == e.Region {
				scoped[pd.Spec.Name] = true
			}
		}
	}
	for _, obj := range md.Objects {
		for j, tech := range obj.Levels {
			var names []string
			if multi, ok := tech.(interface{ CopyDevices() []string }); ok {
				names = append(names, multi.CopyDevices()...)
			} else {
				names = append(names, tech.CopyDevice())
			}
			names = append(names, tech.TransportDevice())
			for _, n := range names {
				if n != "" && scoped[n] {
					want[affectedKey{obj.Name, j + 1}] = true
					break
				}
			}
		}
	}
	return want
}

// objSims holds the pair of simulations the detection pass compares for
// one object: clean carries the full hardware schedule (independent plus
// event-derived outages) and nothing else; faulted additionally carries
// every silent capture fault aimed at the object.
type objSims struct {
	chain          hierarchy.Chain
	clean, faulted *sim.History
	surv           []int
	outs           []sim.Outage
}

func buildObjSims(ms *core.MultiSystem, mcs *MultiCase, merged []ObjectOutage, silents []ObjectSilent, name string) (*objSims, error) {
	sys := ms.Object(name)
	chain := sys.Chain()
	outs := outagesIn(merged, name)
	var own []sim.SilentFault
	for _, sf := range silents {
		if sf.Object == name {
			own = append(own, sf.SilentFault)
		}
	}
	sm, err := sim.New(chain)
	if err != nil {
		return nil, err
	}
	clean, err := sm.Run(nil, outs, nil, 0, mcs.Horizon)
	if err != nil {
		return nil, err
	}
	faulted := clean
	if len(own) > 0 {
		if faulted, err = sm.Run(nil, outs, own, 0, mcs.Horizon); err != nil {
			return nil, err
		}
	}
	return &objSims{
		chain:   chain,
		clean:   clean,
		faulted: faulted,
		surv:    sys.SurvivingLevels(nil, mcs.Scenario),
		outs:    outs,
	}, nil
}

// checkOpFaults runs the detection pass: every silent capture window
// (correlated corruption and operator silent non-writes) and every
// restore-time operator fault is classified as detected or escaped, and
// the op-dominates comparisons run alongside. The per-object loss-bound
// battery never sees the silent faults — they are invisible by
// definition — so this pass is where they must surface.
func checkOpFaults(res *runResult, mcs *MultiCase, ms *core.MultiSystem, merged []ObjectOutage, silents []ObjectSilent) error {
	sims := make(map[string]*objSims)
	get := func(name string) (*objSims, error) {
		if os, ok := sims[name]; ok {
			return os, nil
		}
		os, err := buildObjSims(ms, mcs, merged, silents, name)
		if err != nil {
			return nil, fmt.Errorf("object %s: %w", name, err)
		}
		sims[name] = os
		return os, nil
	}

	// Silent capture windows, in materialization order. Operator silent
	// non-writes are already folded into `silents` by checkMultiCase.
	for _, sf := range silents {
		os, err := get(sf.Object)
		if err != nil {
			return err
		}
		classifySilentWindow(res, mcs, os, sf)
	}
	for _, f := range mcs.OpFaults {
		os, err := get(f.Object)
		if err != nil {
			return err
		}
		switch f.Kind {
		case failure.OpWrongRecovery:
			classifyWrongRecovery(res, mcs, os, f)
		case failure.OpMisdirectedRestore:
			classifyMisdirected(res, mcs, ms, os, f)
		}
	}
	return nil
}

// probeInstants builds the post-window failure-instant grid a silent
// fault is probed on: from the window start through two cycles past its
// end, clipped to the steady sampling region.
func probeInstants(from, to, horizon, maxCycle time.Duration) []time.Duration {
	end := to + 2*maxCycle
	if m := horizon - maxCycle/2; end > m {
		end = m
	}
	start := CeilMinute(from)
	if start >= end {
		return nil
	}
	step := Quantize((end - start) / 24)
	var out []time.Duration
	for t := start; t <= end; t += step {
		out = append(out, t)
	}
	return out
}

// classifySilentWindow probes one silent capture window. Detected means
// the faulted run visibly diverges from the model's promise at some
// probed instant: its loss exceeds the fault-unaware analytic bound, or
// it fails to recover where the clean run recovers. Anything else is an
// escape — the phantoms stayed inside the worst-case envelope, which the
// model tolerates but the summary counts. Dominance is checked at every
// probe: a run with fewer usable RPs can never do better.
func classifySilentWindow(res *runResult, mcs *MultiCase, os *objSims, sf ObjectSilent) {
	age := mcs.Scenario.TargetAge
	cycle := MaxCycle(os.chain)
	probes := probeInstants(sf.From, sf.To, mcs.Horizon, cycle)
	res.check(invOpDetection)
	detected := false
	for _, t := range probes {
		lossF, jF, okF := os.faulted.Loss(os.surv, t, age)
		lossC, _, okC := os.clean.Loss(os.surv, t, age)
		res.check(invOpDominates)
		if okF && !okC {
			res.violate(invOpDominates,
				"object %s: silent fault [%v,%v): faulted run recovers at t=%v where clean run cannot",
				sf.Object, sf.From, sf.To, t)
			break
		}
		if okF && okC && lossF < lossC {
			res.violate(invOpDominates,
				"object %s: silent fault [%v,%v): faulted loss %v at t=%v below clean loss %v",
				sf.Object, sf.From, sf.To, lossF, t, lossC)
			break
		}
		if detected {
			continue
		}
		if okC && !okF {
			detected = true
			continue
		}
		if okF {
			if bound, ok := AnalyticBound(os.chain, os.outs, jF, age); ok && lossF > bound {
				detected = true
			}
		}
	}
	if detected {
		res.opDetected++
	} else {
		res.opEscapes++
	}
}

// classifyWrongRecovery models an operator restoring a recovery point
// StaleBy older than the intended target at instant At. The restored
// point passes every existing check — it is valid, covering, retained —
// so detection rests on the loss it implies: relative to the intended
// target the recovery loses lossStale+StaleBy, and if that exceeds the
// fault-unaware analytic bound the drill flags it. A stale restore that
// stays inside the worst-case envelope is an escape, counted.
func classifyWrongRecovery(res *runResult, mcs *MultiCase, os *objSims, f failure.OpFault) {
	age := mcs.Scenario.TargetAge
	res.check(invOpDetection)
	lossStale, jServe, ok := os.clean.Loss(os.surv, f.At, age+f.StaleBy)
	if !ok {
		// No retained RP is that stale: the wrong restore fails visibly.
		res.opDetected++
		return
	}
	lossActual := lossStale + f.StaleBy
	if lossC, _, okC := os.clean.Loss(os.surv, f.At, age); okC {
		res.check(invOpDominates)
		if lossActual < lossC {
			res.violate(invOpDominates,
				"object %s: wrong recovery at %v staleBy %v loses %v, less than the intended restore's %v",
				f.Object, f.At, f.StaleBy, lossActual, lossC)
		}
	}
	if bound, ok := AnalyticBound(os.chain, os.outs, jServe, age); ok && lossActual > bound {
		res.opDetected++
		return
	}
	res.opEscapes++
}

// classifyMisdirected models a recovery landing on the wrong object: the
// intended object believes itself restored but holds another object's
// data. Detected means correct data was recoverable at the instant — a
// verification pass against any surviving RP exposes the mismatch; when
// nothing survives to compare against, the wrong data is
// indistinguishable and the fault escapes. The dominance check drives
// the service model: voiding the object's recovery in the
// dependency-ordered schedule must poison every transitive dependent and
// can never shorten the critical path.
func classifyMisdirected(res *runResult, mcs *MultiCase, ms *core.MultiSystem, os *objSims, f failure.OpFault) {
	age := mcs.Scenario.TargetAge
	res.check(invOpDetection)
	if _, _, ok := os.clean.Loss(os.surv, f.At, age); ok {
		res.opDetected++
	} else {
		res.opEscapes++
	}

	sa, err := ms.Assess(mcs.Scenario)
	if err != nil {
		return
	}
	objects := make([]recovery.ObjectRT, len(sa.Objects))
	deps := make(map[string][]string, len(mcs.Design.Objects))
	for i, oa := range sa.Objects {
		objects[i] = recovery.ObjectRT{Name: oa.Object, RT: oa.RecoveryTime}
	}
	for _, obj := range mcs.Design.Objects {
		deps[obj.Name] = obj.DependsOn
	}
	cleanSched, cleanCritical, err := recovery.Schedule(objects, deps)
	if err != nil {
		return
	}
	poisonedSched, poisonedCritical, err := recovery.Schedule(recovery.Poison(objects, f.Object), deps)
	if err != nil {
		res.violate(invOpDominates,
			"object %s: poisoned schedule failed where clean schedule succeeded: %v", f.Object, err)
		return
	}
	res.check(invOpDominates)
	if poisonedCritical < cleanCritical {
		res.violate(invOpDominates,
			"object %s: misdirected restore shortens the service critical path (%v < %v)",
			f.Object, poisonedCritical, cleanCritical)
	}
	// Independent transitive-dependents walk over the design DAG; every
	// object downstream of the poisoned one must be stalled forever.
	downstream := map[string]bool{f.Object: true}
	for changed := true; changed; {
		changed = false
		for _, obj := range mcs.Design.Objects {
			if downstream[obj.Name] {
				continue
			}
			for _, d := range obj.DependsOn {
				if downstream[d] {
					downstream[obj.Name] = true
					changed = true
					break
				}
			}
		}
	}
	cleanFinish := make(map[string]time.Duration, len(cleanSched))
	for _, s := range cleanSched {
		cleanFinish[s.Name] = s.Finish
	}
	for _, s := range poisonedSched {
		res.check(invOpDominates)
		if downstream[s.Name] {
			if s.Finish != units.Forever {
				res.violate(invOpDominates,
					"object %s: %s depends (transitively) on the misdirected object yet finishes at %v",
					f.Object, s.Name, s.Finish)
			}
		} else if s.Finish != cleanFinish[s.Name] {
			res.violate(invOpDominates,
				"object %s: independent object %s moved from finish %v to %v under the poisoned schedule",
				f.Object, s.Name, cleanFinish[s.Name], s.Finish)
		}
	}
}
