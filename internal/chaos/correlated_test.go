package chaos

import (
	"bytes"
	"testing"
	"time"

	"stordep/internal/core"
	"stordep/internal/device"
	"stordep/internal/failure"
	"stordep/internal/hierarchy"
	"stordep/internal/protect"
	"stordep/internal/sim"
	"stordep/internal/units"
)

// TestCorrelatedCampaignClean is the acceptance gate for the correlated
// engine: a seeded 500-run campaign completes with zero violations while
// every correlated invariant fires and the detection machinery catches
// at least one operator fault.
func TestCorrelatedCampaignClean(t *testing.T) {
	if testing.Short() {
		t.Skip("500-run campaign in -short mode")
	}
	sum, err := (&Campaign{Seed: 7, Runs: 500, Multi: true, Correlated: true}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Violations) != 0 {
		t.Fatalf("violations in clean correlated campaign:\n%s", sum.String())
	}
	for _, name := range correlatedInvariantNames() {
		if sum.Checks[name] == 0 {
			t.Errorf("invariant %q never checked", name)
		}
	}
	if sum.OpDetected == 0 {
		t.Error("no operator fault was ever detected across 500 runs")
	}
	if sum.OpEscapes == 0 {
		t.Error("no operator fault ever escaped across 500 runs (suspiciously perfect detection)")
	}
}

// TestCorrelatedCampaignWorkersDeterminism: the same correlated campaign
// merged from 1, 2 and 8 workers renders the same summary bit for bit —
// events, operator faults, detection counters and digest included.
func TestCorrelatedCampaignWorkersDeterminism(t *testing.T) {
	var digests []uint64
	var outs []string
	for _, workers := range []int{1, 2, 8} {
		sum, err := (&Campaign{Seed: 31, Runs: 12, Workers: workers, Multi: true, Correlated: true}).Run()
		if err != nil {
			t.Fatal(err)
		}
		digests = append(digests, sum.Digest)
		outs = append(outs, sum.String())
	}
	for i := 1; i < len(digests); i++ {
		if digests[i] != digests[0] {
			t.Errorf("digest differs between worker counts: %#x vs %#x", digests[i], digests[0])
		}
		if outs[i] != outs[0] {
			t.Errorf("summary differs between worker counts:\n%s\n---\n%s", outs[0], outs[i])
		}
	}
}

// genCorrelatedCase scans seeded runs for a generated case carrying at
// least one correlated event and one operator fault.
func genCorrelatedCase(t *testing.T, seed int64) *MultiCase {
	t.Helper()
	for run := 0; run < 60; run++ {
		c, _ := genMultiCase(runRNG(seed, run), run, true)
		if len(c.Events) >= 1 && len(c.OpFaults) >= 1 {
			return c
		}
	}
	t.Fatal("no generated correlated case with events and operator faults")
	return nil
}

// TestCorrelatedReproRoundTrip: a correlated case's repro JSON is a
// fixed point of encode∘decode — events and operator faults included —
// and replays without violations.
func TestCorrelatedReproRoundTrip(t *testing.T) {
	mcs := genCorrelatedCase(t, 17)
	meta := ReproMeta{Invariant: invOpDetection, Detail: "round trip", Seed: 17, Run: 1}
	enc, err := encodeRepro(mcs, meta)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(enc, []byte(`"faultScenario"`)) {
		t.Fatal("correlated repro omits the fault scenario")
	}
	decoded, gotMeta, err := DecodeRepro(enc)
	if err != nil {
		t.Fatal(err)
	}
	dec, ok := decoded.(*MultiCase)
	if !ok {
		t.Fatalf("correlated repro decoded as %T", decoded)
	}
	if gotMeta != meta {
		t.Errorf("meta changed in round trip: %+v != %+v", gotMeta, meta)
	}
	if len(dec.Events) != len(mcs.Events) || len(dec.OpFaults) != len(mcs.OpFaults) {
		t.Fatalf("round trip lost scenario entries: %d/%d events, %d/%d faults",
			len(dec.Events), len(mcs.Events), len(dec.OpFaults), len(mcs.OpFaults))
	}
	enc2, err := encodeRepro(dec, gotMeta)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Fatalf("repro encoding is not a fixed point:\n%s\n---\n%s", enc, enc2)
	}
	violations, err := Replay(dec)
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) != 0 {
		t.Fatalf("replayed correlated case violates: %+v", violations)
	}
}

// TestDeriveEventsScope pins the materialization semantics: a
// shared-device event hits exactly the levels using that device on every
// object, a region event hits every level with a device placed there,
// and a corruption event silences level 1 of each corrupted object.
func TestDeriveEventsScope(t *testing.T) {
	md := fallbackMultiDesign(0)
	ev := failure.CorrEvent{
		Kind:   failure.CorrSharedDevice,
		Device: device.NameTapeLibrary,
		From:   100 * time.Hour,
		To:     120 * time.Hour,
	}
	derived, err := deriveEvents(md, []failure.CorrEvent{ev})
	if err != nil {
		t.Fatal(err)
	}
	// catalog has splitmirror (level 1, disk array) + backup (level 2,
	// tape library); orders has backup only (level 1). The tape-library
	// event must hit catalog level 2 and orders level 1, nothing else.
	want := map[affectedKey]bool{
		{Object: "catalog", Level: 2}: true,
		{Object: "orders", Level: 1}:  true,
	}
	if len(derived[0].outages) != len(want) {
		t.Fatalf("shared-device event hit %d pairs, want %d: %+v", len(derived[0].outages), len(want), derived[0].outages)
	}
	for _, o := range derived[0].outages {
		if !want[affectedKey{o.Object, o.Level}] {
			t.Errorf("unexpected hit: %s level %d", o.Object, o.Level)
		}
		if o.From != ev.From || o.To != ev.To {
			t.Errorf("window drifted: [%v,%v) != [%v,%v)", o.From, o.To, ev.From, ev.To)
		}
	}

	// An event on a device no object uses must be rejected.
	if _, err := deriveEvents(md, []failure.CorrEvent{{
		Kind: failure.CorrSharedDevice, Device: "unused-array",
		From: time.Hour, To: 2 * time.Hour,
	}}); err == nil {
		t.Error("event affecting nothing was accepted")
	}

	// A region event on the library's region takes out the same pairs.
	regionEv := failure.CorrEvent{
		Kind:   failure.CorrRegion,
		Region: genLibraryAt.Region,
		From:   100 * time.Hour,
		To:     120 * time.Hour,
	}
	derived, err = deriveEvents(md, []failure.CorrEvent{regionEv})
	if err != nil {
		t.Fatal(err)
	}
	hits := make(map[affectedKey]bool)
	for _, o := range derived[0].outages {
		hits[affectedKey{o.Object, o.Level}] = true
	}
	// genLibraryAt and genPrimaryAt share the region, so every level
	// propagating on either device is hit — including the disk-array
	// splitmirror.
	if !hits[affectedKey{"catalog", 1}] || !hits[affectedKey{"catalog", 2}] || !hits[affectedKey{"orders", 1}] {
		t.Errorf("region event missed expected pairs: %+v", hits)
	}
}

// TestCorrConsistencyCatchesTampering: a materialized observation whose
// window drifts from its trigger event must violate corr-consistency in
// both directions (timing drift, scope drift).
func TestCorrConsistencyCatchesTampering(t *testing.T) {
	md := fallbackMultiDesign(1)
	mcs := &MultiCase{Design: md, Horizon: 20 * units.Week}
	ev := failure.CorrEvent{
		Kind:   failure.CorrSharedDevice,
		Device: device.NameTapeLibrary,
		From:   100 * time.Hour,
		To:     120 * time.Hour,
	}
	mcs.Events = []failure.CorrEvent{ev}
	derived, err := deriveEvents(md, mcs.Events)
	if err != nil {
		t.Fatal(err)
	}

	res := &runResult{counts: make(map[string]int)}
	checkCorrConsistency(res, mcs, derived)
	if len(res.violations) != 0 {
		t.Fatalf("untampered derivation violates: %+v", res.violations)
	}

	// Timing drift: one object's observed window slides.
	tampered := make([]derivedEvent, len(derived))
	copy(tampered, derived)
	tampered[0].outages = append([]ObjectOutage(nil), derived[0].outages...)
	tampered[0].outages[0].From += time.Minute
	res = &runResult{counts: make(map[string]int)}
	checkCorrConsistency(res, mcs, tampered)
	if len(res.violations) == 0 {
		t.Error("timing drift not caught by corr-consistency")
	}

	// Scope drift: one affected pair silently dropped.
	tampered[0].outages = derived[0].outages[:1]
	res = &runResult{counts: make(map[string]int)}
	checkCorrConsistency(res, mcs, tampered)
	if len(res.violations) == 0 {
		t.Error("scope drift not caught by corr-consistency")
	}
}

// TestWrongRecoveryDetected is the injected-fault acceptance check: a
// deliberately planted wrong recovery — an operator restoring a point
// five weeks staler than intended — must be caught by the
// detection-coverage invariant, not merely counted.
func TestWrongRecoveryDetected(t *testing.T) {
	md := fallbackMultiDesign(2)
	mcs := &MultiCase{
		Design:   md,
		Scenario: failure.Scenario{Scope: failure.ScopeArray},
		Horizon:  20 * units.Week,
		OpFaults: []failure.OpFault{{
			Kind:    failure.OpWrongRecovery,
			Object:  "catalog",
			At:      10 * units.Week,
			StaleBy: 5 * units.Week,
		}},
	}
	res, err := checkMultiCase(mcs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.violations) != 0 {
		t.Fatalf("planted wrong recovery broke invariants: %+v", res.violations)
	}
	if res.counts[invOpDetection] == 0 {
		t.Fatal("op-detection never checked")
	}
	if res.opDetected != 1 || res.opEscapes != 0 {
		t.Fatalf("wrong recovery with 5wk staleness: %d detected, %d escapes; want 1 detected",
			res.opDetected, res.opEscapes)
	}
}

// TestSilentNonWriteClassified: a planted silent non-write window is
// classified exactly once and never breaks dominance.
func TestSilentNonWriteClassified(t *testing.T) {
	md := fallbackMultiDesign(3)
	mcs := &MultiCase{
		Design:   md,
		Scenario: failure.Scenario{Scope: failure.ScopeArray},
		Horizon:  20 * units.Week,
		OpFaults: []failure.OpFault{{
			Kind:   failure.OpSilentNonWrite,
			Object: "catalog",
			Level:  1,
			From:   6 * units.Week,
			To:     7 * units.Week,
		}},
	}
	res, err := checkMultiCase(mcs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.violations) != 0 {
		t.Fatalf("planted silent non-write broke invariants: %+v", res.violations)
	}
	if got := res.opDetected + res.opEscapes; got != 1 {
		t.Fatalf("silent non-write classified %d times, want exactly 1", got)
	}
	if res.counts[invOpDominates] == 0 {
		t.Error("op-dominates never compared the faulted run against the clean run")
	}
}

// TestMisdirectedRestorePoisonsSchedule: a misdirected restore on the
// catalog (which orders depends on) is classified, and the dominance
// pass verifies the poisoned dependency schedule stalls the dependent
// without moving independents.
func TestMisdirectedRestoreClassified(t *testing.T) {
	md := fallbackMultiDesign(4)
	mcs := &MultiCase{
		Design:   md,
		Scenario: failure.Scenario{Scope: failure.ScopeArray},
		Horizon:  20 * units.Week,
		OpFaults: []failure.OpFault{{
			Kind:        failure.OpMisdirectedRestore,
			Object:      "catalog",
			WrongObject: "orders",
			At:          10 * units.Week,
		}},
	}
	res, err := checkMultiCase(mcs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.violations) != 0 {
		t.Fatalf("planted misdirected restore broke invariants: %+v", res.violations)
	}
	if got := res.opDetected + res.opEscapes; got != 1 {
		t.Fatalf("misdirected restore classified %d times, want exactly 1", got)
	}
	// The steady-state restore drill has data to verify against, so the
	// mismatch is detectable.
	if res.opDetected != 1 {
		t.Error("misdirected restore at a recoverable instant was not detected")
	}
	if res.counts[invOpDominates] == 0 {
		t.Error("op-dominates never checked the poisoned schedule")
	}
}

// TestShrinkCorrelatedMinimality: the shrinker reduces a correlated case
// to 1-minimality without decorrelating — the shrunken case keeps its
// correlated structure, and dropping any remaining event or operator
// fault breaks the predicate.
func TestShrinkCorrelatedMinimality(t *testing.T) {
	mcs := genCorrelatedCase(t, 41)
	fails := func(c *MultiCase) bool {
		res, err := checkMultiCase(c)
		if err != nil {
			return false
		}
		return len(c.Events) >= 1 && res.opDetected+res.opEscapes >= 1
	}
	if !fails(mcs) {
		t.Fatal("starting correlated case does not satisfy the predicate")
	}
	shrunk := shrinkWith(mcs, 400, fails)
	if !fails(shrunk) {
		t.Fatal("shrunken case no longer satisfies the predicate")
	}
	if len(shrunk.Events) != 1 {
		t.Fatalf("shrinker kept %d events, want exactly 1", len(shrunk.Events))
	}
	// 1-minimality over the correlated structure: dropping the remaining
	// event, any remaining operator fault, or any remaining object must
	// break the predicate (otherwise the shrinker would have dropped it).
	for i := range shrunk.Events {
		c, err := copyTrial(shrunk)
		if err != nil {
			t.Fatal(err)
		}
		c.Events = append(c.Events[:i:i], c.Events[i+1:]...)
		if c.viable() && fails(c) {
			t.Errorf("dropping event %d keeps the predicate: not 1-minimal", i)
		}
	}
	for i := range shrunk.OpFaults {
		c, err := copyTrial(shrunk)
		if err != nil {
			t.Fatal(err)
		}
		c.OpFaults = append(c.OpFaults[:i:i], c.OpFaults[i+1:]...)
		if c.viable() && fails(c) {
			t.Errorf("dropping op fault %d keeps the predicate: not 1-minimal", i)
		}
	}
	if len(shrunk.Design.Objects) > 1 {
		for i := range shrunk.Design.Objects {
			c, err := copyTrial(shrunk)
			if err != nil {
				t.Fatal(err)
			}
			dropObject(c, c.Design.Objects[i].Name, i)
			if c.viable() && fails(c) {
				t.Errorf("dropping object %d keeps the predicate: not 1-minimal", i)
			}
		}
	}
}

// starvationDesign reproduces the minimal counterexample the correlated
// campaign surfaced (seed 7 run 16): a fast async mirror (3.5h of
// retention) feeding a slow tape backup, where a long mirror outage
// starves the backup's captures dry.
func starvationDesign() *core.Design {
	mirrorPol := hierarchy.Policy{
		Primary: hierarchy.WindowSet{AccW: time.Hour, PropW: 30 * time.Minute, Rep: hierarchy.RepFull},
		CopyRep: hierarchy.RepFull,
		RetCnt:  2,
		RetW:    3*time.Hour + 30*time.Minute,
	}
	backupPol := hierarchy.Policy{
		Primary: hierarchy.WindowSet{
			AccW:  6*units.Day + 7*time.Hour,
			PropW: 3*units.Day + 3*time.Hour + 30*time.Minute,
			Rep:   hierarchy.RepFull,
		},
		CopyRep: hierarchy.RepFull,
		RetCnt:  3,
		RetW:    4*units.Week + 7*time.Hour + 30*time.Minute,
	}
	return &core.Design{
		Name:     "starved-below",
		Workload: genObjectWorkload(runRNG(1, 0), "starved"),
		Primary:  &protect.Primary{Array: device.NameDiskArray},
		Devices: []core.PlacedDevice{
			{Spec: device.MidrangeArray(), Placement: genPrimaryAt},
			{Spec: device.RemoteMirrorArray(), Placement: genMirrorAt},
			{Spec: device.WANLinks(2)},
			{Spec: device.TapeLibrary(), Placement: genLibraryAt},
		},
		Levels: []protect.Technique{
			&protect.Mirror{
				Mode:      protect.MirrorAsyncBatch,
				DestArray: device.NameMirrorArray,
				Links:     device.NameWANLinks,
				Pol:       mirrorPol,
			},
			&protect.Backup{
				SourceArray: device.NameDiskArray,
				Target:      device.NameTapeLibrary,
				Pol:         backupPol,
			},
		},
	}
}

// TestAnalyticBoundSkipReason pins the skip-reason taxonomy — each
// documented model-soundness scope-out is reachable, named, and
// consistent with the boolean view — so no optimistic case can ever go
// back to being scoped out silently.
func TestAnalyticBoundSkipReason(t *testing.T) {
	sys, err := core.Build(starvationDesign())
	if err != nil {
		t.Fatal(err)
	}
	chain := sys.Chain()

	// Healthy chain, recover-to-now: a defended bound.
	if bound, reason := AnalyticBoundReason(chain, nil, 2, 0); reason != SkipNone || bound <= 0 {
		t.Errorf("healthy bound at age 0: bound %v reason %q, want positive bound with SkipNone", bound, reason)
	}

	// Healthy chain, target far past retention.
	age := chain.GuaranteedRange(2).Oldest + 1000*time.Hour
	if _, reason := AnalyticBoundReason(chain, nil, 2, age); reason != SkipPastRetention {
		t.Errorf("age past retention: reason %q, want %q", reason, SkipPastRetention)
	}

	// The campaign-surfaced counterexample: a 412h mirror outage (far
	// beyond the mirror's 3.5h retention) starves the backup level —
	// the degraded model would defend a bound ~7h under the simulated
	// loss, so the comparison must be scoped out by name.
	starve := []sim.Outage{{Level: 1, From: 5551*time.Hour + 2*time.Minute, To: 5963 * time.Hour}}
	if _, reason := AnalyticBoundReason(chain, starve, 2, 0); reason != SkipDegradedStarvedBelow {
		t.Errorf("starved backup level: reason %q, want %q", reason, SkipDegradedStarvedBelow)
	}
	// The mirror level itself has no level below to starve it: the
	// degraded model shifts its range by the outage and defends a bound
	// inflated past the outage duration.
	if bound, reason := AnalyticBoundReason(chain, starve, 1, 0); reason != SkipNone || bound < 412*time.Hour {
		t.Errorf("outaged mirror level: bound %v reason %q, want SkipNone with bound >= outage", bound, reason)
	}

	// The ROADMAP-documented degraded retention gap: a short outage on
	// the mirror keeps its degraded range non-empty, and a target age at
	// the degraded lag sits inside the covered band where the model's
	// retention accounting is optimistic.
	short := []sim.Outage{{Level: 1, From: 100 * time.Hour, To: 102 * time.Hour}}
	deg, err := chain.DegradedCompound(EffectiveOutages(chain, short))
	if err != nil {
		t.Fatal(err)
	}
	rg := deg.GuaranteedRange(1)
	gapAge := deg.ConservativeMaxLag(1)
	if rg.Newest > gapAge {
		gapAge = rg.Newest
	}
	if rg.Empty() || gapAge > rg.Oldest {
		t.Fatalf("constructed gap age %v outside degraded range %+v", gapAge, rg)
	}
	if _, reason := AnalyticBoundReason(chain, short, 1, gapAge); reason != SkipDegradedRetentionGap {
		t.Errorf("covered band under outage: reason %q, want %q", reason, SkipDegradedRetentionGap)
	}

	// The boolean view agrees with the named view everywhere.
	for _, outs := range [][]sim.Outage{nil, short, starve} {
		for j := 1; j <= len(chain); j++ {
			for _, a := range []time.Duration{0, 6 * time.Hour, gapAge, age} {
				b1, ok := AnalyticBound(chain, outs, j, a)
				b2, reason := AnalyticBoundReason(chain, outs, j, a)
				if b1 != b2 || ok != (reason == SkipNone) {
					t.Errorf("bound views disagree at outs=%d j=%d age=%v: (%v,%v) vs (%v,%q)",
						len(outs), j, a, b1, ok, b2, reason)
				}
			}
		}
	}
}

// TestCorrelatedGenViable: generated correlated cases stay within the
// round-trippable vocabulary — every event and fault validates, windows
// are whole minutes inside the horizon, and derivation always succeeds.
func TestCorrelatedGenViable(t *testing.T) {
	seen := struct{ events, faults int }{}
	for run := 0; run < 30; run++ {
		mcs, _ := genMultiCase(runRNG(3, run), run, true)
		if mcs.Horizon > horizonCap {
			t.Fatalf("run %d: horizon %v over cap", run, mcs.Horizon)
		}
		for _, e := range mcs.Events {
			seen.events++
			if err := e.Validate(); err != nil {
				t.Fatalf("run %d: generated event invalid: %v", run, err)
			}
			if e.From%time.Minute != 0 || e.To%time.Minute != 0 {
				t.Fatalf("run %d: event window [%v,%v) not whole minutes", run, e.From, e.To)
			}
			if e.To >= mcs.Horizon {
				t.Fatalf("run %d: event end %v not inside horizon %v", run, e.To, mcs.Horizon)
			}
		}
		for _, f := range mcs.OpFaults {
			seen.faults++
			if err := f.Validate(); err != nil {
				t.Fatalf("run %d: generated op fault invalid: %v", run, err)
			}
			if f.At >= mcs.Horizon || f.To >= mcs.Horizon {
				t.Fatalf("run %d: fault window beyond horizon %v: %+v", run, mcs.Horizon, f)
			}
		}
		if _, err := deriveEvents(mcs.Design, mcs.Events); err != nil {
			t.Fatalf("run %d: generated events do not derive: %v", run, err)
		}
	}
	if seen.events == 0 || seen.faults == 0 {
		t.Fatalf("generator drew %d events and %d faults across 30 runs", seen.events, seen.faults)
	}
}
