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
