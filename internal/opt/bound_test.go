package opt

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"stordep/internal/casestudy"
	"stordep/internal/config"
	"stordep/internal/core"
	"stordep/internal/failure"
	"stordep/internal/hierarchy"
	"stordep/internal/units"
	"stordep/internal/whatif"
)

// prunedIdentical asserts a pruned Solution equals the exhaustive one on
// everything the determinism contract covers: score, choices, the global
// candidate index, and the tuned design's config encoding. The assessed
// vs pruned split is schedule-dependent (workers race to tighten the
// incumbent), so the count fields are checked separately by invariant
// (assessed + pruned == slice size), never for equality.
func prunedIdentical(t *testing.T, label string, want, got *Solution) {
	t.Helper()
	if want.Score != got.Score {
		t.Errorf("%s: scores differ: %v vs %v", label, want.Score, got.Score)
	}
	if want.CandidateIndex != got.CandidateIndex {
		t.Errorf("%s: candidate index %d, want %d", label, got.CandidateIndex, want.CandidateIndex)
	}
	if !reflect.DeepEqual(want.Choices, got.Choices) {
		t.Errorf("%s: choices differ: %v vs %v", label, want.Choices, got.Choices)
	}
	aj, errA := config.Marshal(want.Design)
	bj, errB := config.Marshal(got.Design)
	if errA != nil || errB != nil {
		t.Fatalf("%s: marshal: %v / %v", label, errA, errB)
	}
	if !bytes.Equal(aj, bj) {
		t.Errorf("%s: tuned designs encode differently", label)
	}
}

// TestPrunedMatchesExhaustiveProperty: across random knob spaces, every
// objective that has a floor, worker counts {1,2,8}, and shard splits,
// the bound-guided search returns the exhaustive argmin with the
// exhaustive tie-break, and retires every candidate exactly once
// (assessed + pruned == slice size). Each search runs under the compile
// rule (batch 0) and with forced tables (batch 64), since most of these
// spaces are too small for the rule to compile, and so to prune.
func TestPrunedMatchesExhaustiveProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	base := casestudy.Baseline()
	objectives := []struct {
		name  string
		obj   Objective
		floor ObjectiveFloor
	}{
		{"worst-total", WorstTotalObjective(), WorstTotalFloor()},
		{"expected", ExpectedObjective(whatif.TypicalFrequencies()), ExpectedFloor(whatif.TypicalFrequencies())},
		{"constrained", ConstrainedOutlayObjective(whatif.Objectives{RTO: 48 * time.Hour, RPO: 28 * 24 * time.Hour}),
			ConstrainedOutlayFloor(whatif.Objectives{RTO: 48 * time.Hour, RPO: 28 * 24 * time.Hour})},
	}
	for trial := 0; trial < 8; trial++ {
		knobs := randomKnobs(rng)
		space := 1
		for _, k := range knobs {
			space *= len(k.Options)
		}
		o := objectives[trial%len(objectives)]
		ref, refErr := sliceExhaustive(base, knobs, scenarios(), o.obj)
		for _, workers := range []int{1, 2, 8} {
			for _, batch := range []int{0, defaultBatchSize} {
				label := fmt.Sprintf("trial %d %s workers %d batch %d (%d candidates)", trial, o.name, workers, batch, space)
				var stats SearchStats
				sol, err := exhaustive(base, knobs, scenarios(), o.obj, ExhaustiveOptions{
					Workers: workers,
					Prune:   true,
					Floor:   o.floor,
					Stats:   &stats,
				}, batch)
				if refErr != nil {
					if !errors.Is(err, refErr) && (err == nil || err.Error() != refErr.Error()) {
						t.Errorf("%s: err = %v, oracle err = %v", label, err, refErr)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				prunedIdentical(t, label, ref, sol)
				if stats.Assessed+stats.Pruned != space {
					t.Errorf("%s: assessed %d + pruned %d != space %d", label, stats.Assessed, stats.Pruned, space)
				}
				if sol.Evaluations != stats.Assessed || sol.CandidatesPruned != stats.Pruned {
					t.Errorf("%s: Solution counts (%d, %d) disagree with Stats (%d, %d)",
						label, sol.Evaluations, sol.CandidatesPruned, stats.Assessed, stats.Pruned)
				}
			}
		}
	}
}

// TestPrunedShardSplitsMergeIdentically: sharded pruned searches merge to
// the unsharded exhaustive answer, and MergeShards sums the pruned /
// bounds counters across shards.
func TestPrunedShardSplitsMergeIdentically(t *testing.T) {
	base := casestudy.Baseline()
	knobs := []Knob{
		PolicyKnob("vaulting", []string{"4-weekly", "weekly"}, vaultPolicyPair()),
		RetCntKnob("vaulting", []int{2, 4, 8, 13}),
		RetCntKnob("backup", []int{7, 14, 28}),
		LinkCountKnob("tape-library", []int{8, 12, 16}),
	}
	const space = 2 * 4 * 3 * 3
	whole, err := sliceExhaustive(base, knobs, scenarios(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []int{1, 2, 3, 5} {
		sols := make([]*Solution, m)
		for k := 0; k < m; k++ {
			sol, err := ExhaustiveOpts(base, knobs, scenarios(), nil, ExhaustiveOptions{
				Workers: 2,
				Shard:   Shard{Index: k, Count: m},
				Prune:   true,
				Floor:   WorstTotalFloor(),
			})
			if err != nil {
				t.Fatalf("shard %d/%d: %v", k, m, err)
			}
			sols[k] = sol
		}
		merged, err := MergeShards(sols)
		if err != nil {
			t.Fatalf("merge %d shards: %v", m, err)
		}
		label := fmt.Sprintf("%d pruned shards", m)
		prunedIdentical(t, label, whole, merged)
		if merged.Evaluations+merged.CandidatesPruned != space {
			t.Errorf("%s: assessed %d + pruned %d != space %d",
				label, merged.Evaluations, merged.CandidatesPruned, space)
		}
		var pruned, bounds int
		for _, s := range sols {
			pruned += s.CandidatesPruned
			bounds += s.BoundsComputed
		}
		if merged.CandidatesPruned != pruned || merged.BoundsComputed != bounds {
			t.Errorf("%s: merged counters (%d, %d), want sums (%d, %d)",
				label, merged.CandidatesPruned, merged.BoundsComputed, pruned, bounds)
		}
	}
}

// TestPrunedIncumbentSeed: handing the search an already-achieved
// incumbent (a tight one: the known optimum) must not change the answer —
// only make pruning at least as effective as the unseeded run.
func TestPrunedIncumbentSeed(t *testing.T) {
	base := casestudy.Baseline()
	knobs := []Knob{
		PolicyKnob("vaulting", []string{"4-weekly", "weekly"}, vaultPolicyPair()),
		RetCntKnob("vaulting", []int{2, 4, 8, 13}),
		RetCntKnob("backup", []int{7, 14, 28}),
		LinkCountKnob("tape-library", []int{8, 12, 16}),
	}
	ref, err := sliceExhaustive(base, knobs, scenarios(), nil)
	if err != nil {
		t.Fatal(err)
	}
	unseeded, err := ExhaustiveOpts(base, knobs, scenarios(), nil, ExhaustiveOptions{
		Workers: 1, Prune: true, Floor: WorstTotalFloor(),
	})
	if err != nil {
		t.Fatal(err)
	}
	prunedIdentical(t, "unseeded", ref, unseeded)
	seeded, err := ExhaustiveOpts(base, knobs, scenarios(), nil, ExhaustiveOptions{
		Workers: 1, Prune: true, Floor: WorstTotalFloor(), Incumbent: ref.Score,
	})
	if err != nil {
		t.Fatal(err)
	}
	prunedIdentical(t, "seeded", ref, seeded)
	if seeded.CandidatesPruned < unseeded.CandidatesPruned {
		t.Errorf("optimal incumbent pruned %d, unseeded pruned %d — seeding must not hurt",
			seeded.CandidatesPruned, unseeded.CandidatesPruned)
	}
}

// TestPrunedActuallyPrunes: on a space with an expensive half (weekly
// vaulting with deep retention dominates the 4-weekly optimum on worst
// total), pruning must retire a nonzero share of candidates without
// assessment. This is the in-tree sibling of the bench prune-ratio gate.
func TestPrunedActuallyPrunes(t *testing.T) {
	base := casestudy.Baseline()
	knobs := pruneTestKnobs()
	const space = 2 * 8 * 3 * 4
	ref, err := sliceExhaustive(base, knobs, scenarios(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var stats SearchStats
	sol, err := ExhaustiveOpts(base, knobs, scenarios(), nil, ExhaustiveOptions{
		Workers: 1,
		Prune:   true,
		Floor:   WorstTotalFloor(),
		Stats:   &stats,
	})
	if err != nil {
		t.Fatal(err)
	}
	prunedIdentical(t, "prune-ratio space", ref, sol)
	if stats.Pruned == 0 {
		t.Fatalf("pruned 0 of %d candidates; bound is not biting (bounds computed: %d)",
			space, stats.BoundsComputed)
	}
	if stats.Assessed >= space {
		t.Errorf("assessed %d of %d candidates — pruning saved nothing", stats.Assessed, space)
	}
	t.Logf("pruned %d / %d (%.0f%%), %d bounds", stats.Pruned, space,
		100*float64(stats.Pruned)/float64(space), stats.BoundsComputed)
}

// TestPruneWithoutFloorIsExhaustive: Prune without a Floor must not
// prune (there is nothing admissible to compare against) and must not
// change the answer.
func TestPruneWithoutFloorIsExhaustive(t *testing.T) {
	base := casestudy.Baseline()
	knobs := []Knob{
		RetCntKnob("vaulting", []int{2, 4, 8}),
		LinkCountKnob("tape-library", []int{12, 16}),
	}
	ref, err := ExhaustiveOpts(base, knobs, scenarios(), nil, ExhaustiveOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var stats SearchStats
	sol, err := ExhaustiveOpts(base, knobs, scenarios(), nil, ExhaustiveOptions{
		Workers: 1, Prune: true, Stats: &stats,
	})
	if err != nil {
		t.Fatal(err)
	}
	solutionsIdentical(t, "prune sans floor", ref, sol)
	if stats.Pruned != 0 || sol.CandidatesPruned != 0 {
		t.Errorf("pruned %d candidates with no floor", stats.Pruned)
	}
}

// TestExpectedFloorRejectsBadFrequencies: a negative frequency makes the
// expected-cost floor inadmissible; the pruner must disable itself (never
// prune) rather than risk a wrong argmin. The 12-candidate space is below
// the compile rule, so the pruned search forces the tables it bounds from.
func TestExpectedFloorRejectsBadFrequencies(t *testing.T) {
	base := casestudy.Baseline()
	knobs := []Knob{
		RetCntKnob("vaulting", []int{2, 4, 8, 13}),
		LinkCountKnob("tape-library", []int{8, 12, 16}),
	}
	freqs := whatif.TypicalFrequencies()
	for scope := range freqs {
		freqs[scope] = -freqs[scope]
	}
	ref, err := ExhaustiveOpts(base, knobs, scenarios(), ExpectedObjective(whatif.TypicalFrequencies()),
		ExhaustiveOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var stats SearchStats
	sol, err := exhaustive(base, knobs, scenarios(), ExpectedObjective(whatif.TypicalFrequencies()),
		ExhaustiveOptions{Workers: 1, Prune: true, Floor: ExpectedFloor(freqs), Stats: &stats}, defaultBatchSize)
	if err != nil {
		t.Fatal(err)
	}
	solutionsIdentical(t, "bad frequencies", ref, sol)
	if stats.Pruned != 0 {
		t.Errorf("pruned %d candidates under an inadmissible floor", stats.Pruned)
	}
}

// TestSubtreeFloorConstructors: the floor constructors agree with their
// objective counterparts on fully-determined floors (a floor whose
// components describe a single concrete outcome must equal the objective
// of that outcome), pinning the floor semantics independently of the
// search.
func TestSubtreeFloorConstructors(t *testing.T) {
	fl := &SubtreeFloor{
		Outlays:   units.Money(1000),
		Scenarios: scenarios(),
		Penalties: []units.Money{50, 200},
		Lost:      []bool{false, false},
	}
	if got := WorstTotalFloor()(fl); got != 1200 {
		t.Errorf("WorstTotalFloor = %v, want 1200", got)
	}
	fl.Lost[1] = true
	exp := ExpectedFloor(whatif.Frequencies{})
	// No frequencies: every scenario weight is 0 → expected penalties 0.
	if got := exp(fl); got != 1000 {
		t.Errorf("ExpectedFloor with empty frequencies = %v, want 1000", got)
	}
}

// vaultPolicyPair returns the 4-weekly baseline vaulting policy and a
// weekly deep-retention variant — the policy axis the prune tests use to
// build spaces with an expensive region.
func vaultPolicyPair() []hierarchy.Policy {
	weeklyVault := casestudy.VaultPolicy()
	weeklyVault.Primary.AccW = units.Week
	weeklyVault.RetCnt = 156
	return []hierarchy.Policy{casestudy.VaultPolicy(), weeklyVault}
}

// tapeEnclosureKnob sets the tape library's enclosure bandwidth to the
// base's 240 MB/s or to 480 MB/s, which doubles its MaxBandwidth when
// it has at least eight drives.
func tapeEnclosureKnob() Knob {
	bw := []units.Rate{240 * units.MBPerSec, 480 * units.MBPerSec}
	return Knob{
		Name:    "tape enclosure",
		Options: []string{"240 MB/s", "480 MB/s"},
		Apply: func(d *core.Design, i int) error {
			di, err := findDevice(d, "tape-library")
			if err != nil {
				return err
			}
			d.Devices[di].Spec.EnclBW = bw[i]
			return nil
		},
		Revertible: true,
	}
}

// pruneTestKnobs is a 192-candidate space with an expensive half:
// weekly vaulting with deep retention is dominated by the 4-weekly
// optimum on worst total.
func pruneTestKnobs() []Knob {
	return []Knob{
		PolicyKnob("vaulting", []string{"4-weekly", "weekly"}, vaultPolicyPair()),
		RetCntKnob("vaulting", []int{2, 4, 8, 13, 26, 52, 104, 156}),
		RetCntKnob("backup", []int{7, 14, 28}),
		LinkCountKnob("tape-library", []int{4, 8, 12, 16}),
	}
}

// TestPrunerSeedHugeSpace: seed spreads its probes over its slice. Over
// [0, 2^60) the product p*(n-1) overflows int, which panics inside fill;
// the probes must seed a finite incumbent instead.
func TestPrunerSeedHugeSpace(t *testing.T) {
	knobs := hugeSpaceKnobs()
	cs, err := compileSpace(casestudy.Baseline(), knobs, scenarios(), 1)
	if err != nil {
		t.Fatalf("compileSpace: %v", err)
	}
	pr := newPruner(cs, WorstTotalFloor(), 0)
	if pr == nil {
		t.Fatal("no pruner for the space")
	}
	space, err := SpaceSize(knobs)
	if err != nil {
		t.Fatal(err)
	}
	pr.seed(WorstTotalObjective(), 0, space)
	if inc := pr.incumbent.load(); math.IsInf(float64(inc), 1) {
		t.Error("seeding found no incumbent")
	}
}

// wrapKnobs is a 320-candidate space whose 64-candidate batches can wrap
// the vault policy's digit cycle. The policy digit has weight 40 and two
// options, so the batch [192, 256) touches policy blocks 4, 5 and 6:
// both policies, although its first and last index share the digit.
func wrapKnobs() []Knob {
	ret := make([]int, 40)
	for i := range ret {
		ret[i] = i + 1
	}
	return []Knob{
		RetCntKnob("backup", []int{28, 14, 7, 56}),
		PolicyKnob("vaulting", []string{"4-weekly", "weekly"}, vaultPolicyPair()),
		RetCntKnob("vaulting", ret),
	}
}

// TestPrunedWrappingBatchMatchesExhaustive: a batch that wraps a knob's
// digit cycle without spanning a whole cycle must still be bounded from
// every option it reaches. A bound over the cyclic interval from its
// first to its last digit would see only the 4-weekly policy in
// [192, 256), overestimate that batch and prune the exhaustive winner
// (#201).
func TestPrunedWrappingBatchMatchesExhaustive(t *testing.T) {
	base := casestudy.Baseline()
	knobs := wrapKnobs()
	const space = 4 * 2 * 40
	ref, err := sliceExhaustive(base, knobs, scenarios(), nil)
	if err != nil {
		t.Fatal(err)
	}
	check := func(label string, sol *Solution, stats SearchStats) {
		t.Helper()
		prunedIdentical(t, label, ref, sol)
		if stats.Assessed+stats.Pruned != space {
			t.Errorf("%s: assessed %d + pruned %d != space %d", label, stats.Assessed, stats.Pruned, space)
		}
	}
	for _, workers := range []int{1, 4} {
		for _, batch := range []int{0, 7, defaultBatchSize} {
			label := fmt.Sprintf("workers %d batch %d", workers, batch)
			var stats SearchStats
			sol, err := exhaustive(base, knobs, scenarios(), nil, ExhaustiveOptions{
				Workers: workers, Prune: true, Floor: WorstTotalFloor(), Stats: &stats,
			}, batch)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			check(label, sol, stats)
		}
		for _, m := range []int{2, 3, 5, 7} {
			label := fmt.Sprintf("workers %d, %d shards", workers, m)
			sols := make([]*Solution, m)
			var total SearchStats
			for k := range sols {
				var stats SearchStats
				sol, err := ExhaustiveOpts(base, knobs, scenarios(), nil, ExhaustiveOptions{
					Workers: workers,
					Shard:   Shard{Index: k, Count: m},
					Prune:   true,
					Floor:   WorstTotalFloor(),
					Stats:   &stats,
				})
				if err != nil && !errors.Is(err, ErrNoFeasible) {
					t.Fatalf("%s: shard %d: %v", label, k, err)
				}
				sols[k] = sol
				total.Assessed += stats.Assessed
				total.Pruned += stats.Pruned
			}
			merged, err := MergeShards(sols)
			if err != nil {
				t.Fatalf("%s: merge: %v", label, err)
			}
			check(label, merged, total)
		}
	}
}

// newScratch returns one worker's bound-computation state for p.
func (p *pruner) newScratch() *pruneScratch {
	ps := new(pruneScratch)
	p.readyScratch(ps)
	return ps
}

// boundScan is the reference for bound: it scans every group-table
// entry and admits one when every member's option is one the batch
// visits, found by decoding every index of [blo, bhi). Each admitted
// entry is folded with the first serving entry setting a level's
// floors (accumulation window and RecoveryFloor), where bound min-folds
// from Forever.
func boundScan(p *pruner, ps *pruneScratch, knobs []Knob, blo, bhi int) (units.Money, bool) {
	visited := make([][]bool, len(knobs))
	for k := range knobs {
		visited[k] = make([]bool, len(knobs[k].Options))
	}
	choice := make([]int, len(knobs))
	for idx := blo; idx < bhi; idx++ {
		decodeChoice(choice, knobs, idx)
		for k, o := range choice {
			if p.cs.knobSuspect[k][o] {
				return 0, false
			}
			visited[k][o] = true
		}
	}
	ns, nL := p.ns, p.nLevels
	p.resetFloors(ps)
	outlay := p.outlayConst
	for gi := range p.groups {
		pg := &p.groups[gi]
		nl := len(pg.levels)
		minOut := units.Money(math.Inf(1))
		for t := 0; t < pg.size; t++ {
			reachable := true
			rem := t
			for mi := len(pg.members) - 1; mi >= 0; mi-- {
				if !visited[pg.members[mi]][rem%pg.radix[mi]] {
					reachable = false
				}
				rem /= pg.radix[mi]
			}
			if !reachable {
				continue
			}
			if pg.suspect[t] {
				return 0, false
			}
			if pg.outlay[t] < minOut {
				minOut = pg.outlay[t]
			}
			for li := 0; li < nl; li++ {
				j := pg.levels[li]
				accW := pg.accW[t*nl+li]
				if lag := pg.lag[t*nl+li]; lag < ps.minLag[j] {
					ps.minLag[j] = lag
				}
				for si := 0; si < ns; si++ {
					idx := si*nL + j
					rec := pg.rec[(t*nl+li)*ns+si]
					if pg.multi[li] {
						if !p.mServe[idx] {
							continue
						}
					} else if !p.intact[si*p.nDevices+int(pg.copyIdx[t*nl+li])] {
						continue
					}
					if !ps.serve[idx] {
						ps.serve[idx] = true
						ps.minAccW[idx] = accW
						ps.minRec[idx] = rec
						continue
					}
					if accW < ps.minAccW[idx] {
						ps.minAccW[idx] = accW
					}
					if rec < ps.minRec[idx] {
						ps.minRec[idx] = rec
					}
				}
			}
		}
		outlay += minOut
	}
	return p.finishFloor(ps, outlay), true
}

// sameFloor reports the first field in which two batch floors differ
// bit for bit, or "" when they agree.
func sameFloor(a, b *SubtreeFloor) string {
	bits := func(m units.Money) uint64 { return math.Float64bits(float64(m)) }
	if bits(a.Outlays) != bits(b.Outlays) {
		return fmt.Sprintf("outlays %v vs %v", a.Outlays, b.Outlays)
	}
	for si := range a.Scenarios {
		switch {
		case a.RecoveryTime[si] != b.RecoveryTime[si]:
			return fmt.Sprintf("scenario %d recovery time %v vs %v", si, a.RecoveryTime[si], b.RecoveryTime[si])
		case a.DataLoss[si] != b.DataLoss[si]:
			return fmt.Sprintf("scenario %d data loss %v vs %v", si, a.DataLoss[si], b.DataLoss[si])
		case bits(a.Penalties[si]) != bits(b.Penalties[si]):
			return fmt.Sprintf("scenario %d penalties %v vs %v", si, a.Penalties[si], b.Penalties[si])
		case a.Lost[si] != b.Lost[si]:
			return fmt.Sprintf("scenario %d lost %v vs %v", si, a.Lost[si], b.Lost[si])
		}
	}
	return ""
}

// TestBoundMatchesScanAndTrueMinimum: over several spaces, every
// objective with a floor, and ranges of 1, 7 and 64 candidates and a
// whole shard slice starting at shard offsets, bound equals the
// full-table scan bit for bit (value, ok and every SubtreeFloor field),
// and where it holds, the slacked bound never exceeds the lowest
// objective of a candidate in the range.
func TestBoundMatchesScanAndTrueMinimum(t *testing.T) {
	base := casestudy.Baseline()
	scs := append(scenarios(), failure.Scenario{
		Name: "object", Scope: failure.ScopeObject, TargetAge: 24 * time.Hour, RecoverSize: units.MB,
	})
	rto := whatif.Objectives{RTO: 48 * time.Hour, RPO: 28 * 24 * time.Hour}
	objectives := []struct {
		name  string
		obj   Objective
		floor ObjectiveFloor
	}{
		{"worst-total", WorstTotalObjective(), WorstTotalFloor()},
		{"expected", ExpectedObjective(whatif.TypicalFrequencies()), ExpectedFloor(whatif.TypicalFrequencies())},
		{"constrained", ConstrainedOutlayObjective(rto), ConstrainedOutlayFloor(rto)},
	}
	type space struct {
		name   string
		knobs  []Knob
		splits []int
	}
	spaces := []space{
		{"prune-test", pruneTestKnobs(), []int{1, 3, 7}},
		{"wrap", wrapKnobs(), []int{1, 2, 3, 5, 7}},
		// Slices of 512 and 64 keep the candidate scoring cheap.
		{"wide-compile", wideCompileKnobs(), []int{72, 576}},
		// Most entries double the tape library's MaxBandwidth over the
		// base spec's, so the reader's ceiling must come from the
		// group's entries. No other knob feeds the library, whose cost
		// the outlay floor then charges exactly.
		{"tape enclosure", []Knob{
			RetCntKnob("split-mirror", []int{2, 4, 8}),
			LinkCountKnob("tape-library", []int{4, 8, 12, 16}),
			tapeEnclosureKnob(),
		}, []int{1, 3, 7}},
	}
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 6; i++ {
		spaces = append(spaces, space{fmt.Sprintf("random %d", i), randomKnobs(rng), []int{1, 3, 7}})
	}
	checked := 0
	for _, sp := range spaces {
		size, err := SpaceSize(sp.knobs)
		if err != nil {
			t.Fatal(err)
		}
		cs, err := compileSpace(base, sp.knobs, scs, 1)
		if err != nil {
			t.Logf("%s: not compiled: %v", sp.name, err)
			continue
		}
		// results memoizes each candidate's evaluation, as scoreCandidate
		// builds and assesses it, across objectives and ranges.
		results := map[int]*whatif.Result{}
		choice := make([]int, len(sp.knobs))
		for _, o := range objectives {
			pr := newPruner(cs, o.floor, 0)
			if pr == nil {
				t.Fatalf("%s %s: no pruner", sp.name, o.name)
			}
			ps, ref := pr.newScratch(), pr.newScratch()
			lowest := func(lo, hi int) units.Money {
				best := units.Money(math.Inf(1))
				for idx := lo; idx < hi; idx++ {
					res, ok := results[idx]
					if !ok {
						decodeChoice(choice, sp.knobs, idx)
						d, err := applyChoice(base, sp.knobs, choice)
						if err != nil {
							t.Fatalf("%s: candidate %d: %v", sp.name, idx, err)
						}
						r := whatif.EvaluateOne(d, scs)
						res = &r
						results[idx] = res
					}
					best = min(best, o.obj(*res))
				}
				return best
			}
			for _, m := range sp.splits {
				for k := 0; k < m; k++ {
					if m > 7 && k > 1 && k != m/2 && k != m-1 {
						continue
					}
					lo, hi := Shard{Index: k, Count: m}.Bounds(size)
					if lo == hi {
						continue
					}
					for _, n := range []int{1, 7, defaultBatchSize, hi - lo} {
						blo, bhi := lo, min(lo+n, hi)
						label := fmt.Sprintf("%s %s [%d, %d)", sp.name, o.name, blo, bhi)
						v, ok := pr.bound(ps, blo, bhi)
						w, wok := boundScan(pr, ref, sp.knobs, blo, bhi)
						if ok != wok {
							t.Fatalf("%s: bound ok %v, scan ok %v", label, ok, wok)
						}
						if !ok {
							continue
						}
						checked++
						if math.Float64bits(float64(v)) != math.Float64bits(float64(w)) {
							t.Fatalf("%s: bound %v, scan %v", label, v, w)
						}
						if diff := sameFloor(&ps.fl, &ref.fl); diff != "" {
							t.Fatalf("%s: floors differ: %s", label, diff)
						}
						if low := lowest(blo, bhi); float64(v)*(1-boundSlack) > float64(low) {
							t.Fatalf("%s: bound %v exceeds the range's lowest objective %v", label, v, low)
						}
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no range was bounded")
	}
	t.Logf("%d bounded ranges checked", checked)
}

// TestReusedRecoveryFloorsExact: buildGroups copies an entry's
// recovery-time floors from the previous non-suspect entry when the two
// restore alike. Every entry's floors must equal freshly computed ones,
// on wideCompileKnobs' space (where every vault entry restores alike)
// and on prunerBoundKnobs' (whose backup policies do not).
func TestReusedRecoveryFloorsExact(t *testing.T) {
	reused, fresh := 0, 0
	for name, knobs := range map[string][]Knob{"wide": wideCompileKnobs(), "pruner bound": prunerBoundKnobs()} {
		cs, err := compileSpace(casestudy.Baseline(), knobs, scenarios(), 1)
		if err != nil {
			t.Fatalf("%s: compileSpace: %v", name, err)
		}
		pr := newPruner(cs, WorstTotalFloor(), 0)
		ceil := bandwidthCeil(cs)
		if pr == nil || ceil == nil {
			t.Fatalf("%s: no pruner for the space", name)
		}
		for gi := range cs.groups {
			g, pg := &cs.groups[gi], &pr.groups[gi]
			nl, prev := len(g.levels), -1
			for e := 0; e < g.size; e++ {
				if g.suspect[e] {
					continue
				}
				for li, j := range g.levels {
					f := &g.entryFrags(e)[li]
					if prev >= 0 && sameRestore(f, &g.entryFrags(prev)[li]) {
						reused++
					} else {
						fresh++
					}
					for si := range cs.scs {
						got := pg.rec[(e*nl+li)*len(cs.scs)+si]
						if want := cs.kern.RecoveryFloor(si, j, f, ceil); got != want {
							t.Errorf("%s: group %d entry %d level %d scenario %d: floor %v, fresh %v",
								name, gi, e, j, si, got, want)
						}
					}
				}
				prev = e
			}
		}
	}
	if reused == 0 || fresh == 0 {
		t.Errorf("%d level floors reused and %d computed; both paths must run", reused, fresh)
	}
}

// prunerBoundKnobs is table7Knobs plus vault retention counts 1..512:
// 6144 candidates, 96 batches of defaultBatchSize.
func prunerBoundKnobs() []Knob {
	ret := make([]int, 512)
	for i := range ret {
		ret[i] = i + 1
	}
	return append(table7Knobs(), RetCntKnob("vaulting", ret))
}

// TestRecoveryFloorTight: a site disaster restores Baseline from
// vaulted tape, so its recovery time is the air-shipped media return,
// then the tape library's access delay and the transfer into the
// facility's array. The floor charges all of it at the bandwidth
// ceilings, which the facility's fresh hardware reaches: in every batch
// of prunerBoundKnobs' space the site floor equals the least site
// recovery time of the batch's candidates, each assessed through
// Build. A floor charging only provisioning and access delay left 1024
// of the 6144 candidates to a worst-total pruned search; this one must
// leave fewer, and the search must still return the exhaustive answer.
func TestRecoveryFloorTight(t *testing.T) {
	const site = 1 // scenarios()[1]
	base := casestudy.Baseline()
	knobs := prunerBoundKnobs()
	scs := scenarios()
	cs, err := compileSpace(base, knobs, scs, 1)
	if err != nil {
		t.Fatalf("compileSpace: %v", err)
	}
	pr := newPruner(cs, WorstTotalFloor(), 0)
	if pr == nil {
		t.Fatal("no pruner for the space")
	}
	ps := pr.newScratch()
	space, err := SpaceSize(knobs)
	if err != nil {
		t.Fatal(err)
	}
	choice := make([]int, len(knobs))
	for blo := 0; blo < space; blo += defaultBatchSize {
		bhi := blo + defaultBatchSize
		if _, ok := pr.bound(ps, blo, bhi); !ok {
			t.Fatalf("batch [%d, %d) has no bound", blo, bhi)
		}
		least := units.Forever
		for idx := blo; idx < bhi; idx++ {
			decodeChoice(choice, knobs, idx)
			d, err := applyChoice(base, knobs, choice)
			if err != nil {
				t.Fatalf("candidate %d: %v", idx, err)
			}
			least = min(least, whatif.EvaluateOne(d, scs).Outcomes[site].RecoveryTime)
		}
		if got := ps.fl.RecoveryTime[site]; got != least {
			t.Errorf("batch [%d, %d): site floor %v, least site recovery time %v", blo, bhi, got, least)
		}
	}

	ref, err := sliceExhaustive(base, knobs, scs, nil)
	if err != nil {
		t.Fatal(err)
	}
	var stats SearchStats
	sol, err := ExhaustiveOpts(base, knobs, scs, nil, ExhaustiveOptions{
		Workers: 1, Prune: true, Floor: WorstTotalFloor(), Stats: &stats,
	})
	if err != nil {
		t.Fatal(err)
	}
	prunedIdentical(t, "worst total", ref, sol)
	if stats.Assessed >= 1024 {
		t.Errorf("assessed %d of %d candidates, want fewer than 1024", stats.Assessed, space)
	}
	t.Logf("assessed %d, pruned %d, %d bounds", stats.Assessed, stats.Pruned, stats.BoundsComputed)
}

// TestPrunedLargeRatio: a worst-total pruned search of
// prunerBoundKnobs' 6144 candidates runs on one worker, so which batches
// its bound retires does not depend on the host. It must retire at least
// 90% of the space and return the unpruned search's answer.
func TestPrunedLargeRatio(t *testing.T) {
	base, knobs, scs := casestudy.Baseline(), prunerBoundKnobs(), scenarios()
	want, err := ExhaustiveOpts(base, knobs, scs, nil, ExhaustiveOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var stats SearchStats
	got, err := ExhaustiveOpts(base, knobs, scs, nil, ExhaustiveOptions{
		Workers: 1, Prune: true, Floor: WorstTotalFloor(), Stats: &stats,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Score != want.Score || got.CandidateIndex != want.CandidateIndex {
		t.Errorf("pruned answer #%d %v, unpruned #%d %v", got.CandidateIndex, got.Score, want.CandidateIndex, want.Score)
	}
	const space = 6144
	if stats.Assessed+stats.Pruned != space {
		t.Fatalf("assessed %d + pruned %d != %d", stats.Assessed, stats.Pruned, space)
	}
	if ratio := float64(stats.Pruned) / space; ratio < 0.9 {
		t.Errorf("pruned %d of %d candidates (%.1f%%), want at least 90%%", stats.Pruned, space, 100*ratio)
	}
	t.Logf("pruned %d of %d, %d bounds", stats.Pruned, space, stats.BoundsComputed)
}

// BenchmarkPrunerBound times one bound call on a 64-candidate batch of
// prunerBoundKnobs' 6144-candidate space, cycling through its 96
// batches.
func BenchmarkPrunerBound(b *testing.B) {
	knobs := prunerBoundKnobs()
	cs, err := compileSpace(casestudy.Baseline(), knobs, scenarios(), 1)
	if err != nil {
		b.Fatalf("compileSpace: %v", err)
	}
	pr := newPruner(cs, WorstTotalFloor(), 0)
	if pr == nil {
		b.Fatal("no pruner for the space")
	}
	ps := pr.newScratch()
	space, err := SpaceSize(knobs)
	if err != nil {
		b.Fatal(err)
	}
	batches := space / defaultBatchSize
	for i := 0; i < batches; i++ {
		if _, ok := pr.bound(ps, i*defaultBatchSize, (i+1)*defaultBatchSize); !ok {
			b.Fatalf("batch %d has no bound", i)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blo := i % batches * defaultBatchSize
		v, _ := pr.bound(ps, blo, blo+defaultBatchSize)
		boundSink += v
	}
}

// boundSink keeps BenchmarkPrunerBound's calls from being optimized away.
var boundSink units.Money
