package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"stordep/internal/casestudy"
	"stordep/internal/failure"
	"stordep/internal/hierarchy"
	"stordep/internal/opt"
	"stordep/internal/units"
)

func TestBuildKnobsMatchesConstructors(t *testing.T) {
	specs := testKnobSpecs(t)
	specs = append(specs, AccWKnobSpec("backup", []time.Duration{units.Week, 2 * units.Week}))
	knobs, err := BuildKnobs(specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(knobs) != len(specs) {
		t.Fatalf("built %d knobs from %d specs", len(knobs), len(specs))
	}
	wantNames := []string{"vaulting policy", "split-mirror PiT technique", "backup retCnt", "tape-library count", "backup accW"}
	wantOpts := []int{2, 2, 3, 2, 2}
	for i, k := range knobs {
		if k.Name != wantNames[i] {
			t.Errorf("knob %d name %q, want %q", i, k.Name, wantNames[i])
		}
		if len(k.Options) != wantOpts[i] {
			t.Errorf("knob %d has %d options, want %d", i, len(k.Options), wantOpts[i])
		}
	}
	// The rebuilt space must size identically on both ends of the wire.
	space, err := opt.SpaceSize(knobs)
	if err != nil {
		t.Fatal(err)
	}
	if space != 2*2*3*2*2 {
		t.Errorf("space size %d, want 48", space)
	}
}

func TestBuildKnobsRejects(t *testing.T) {
	cases := []struct {
		name string
		spec KnobSpec
	}{
		{"unknown kind", KnobSpec{Kind: "warp", Target: "x"}},
		{"empty kind", KnobSpec{Target: "x"}},
		{"policy without options", KnobSpec{Kind: KnobPolicy, Target: "vaulting"}},
		{"policy names/policies mismatch", KnobSpec{Kind: KnobPolicy, Target: "vaulting", Names: []string{"a"}}},
		{"policy with garbage option", KnobSpec{Kind: KnobPolicy, Target: "v", Names: []string{"a"}, Policies: []json.RawMessage{json.RawMessage(`{"retCnt":`)}}},
		{"accw without durations", KnobSpec{Kind: KnobAccW, Target: "backup"}},
		{"accw bad duration", KnobSpec{Kind: KnobAccW, Target: "backup", Durations: []string{"yesterday"}}},
		{"retcnt without ints", KnobSpec{Kind: KnobRetCnt, Target: "backup"}},
		{"links without ints", KnobSpec{Kind: KnobLinks, Target: "wan"}},
	}
	for _, tc := range cases {
		if _, err := BuildKnobs([]KnobSpec{tc.spec}); !errors.Is(err, ErrBadJob) {
			t.Errorf("%s: err = %v, want ErrBadJob", tc.name, err)
		}
	}
}

func TestScenarioSpecsRoundTrip(t *testing.T) {
	want := []failure.Scenario{
		{Name: "object", Scope: failure.ScopeObject, TargetAge: 24 * time.Hour, RecoverSize: units.MB},
		{Scope: failure.ScopeArray},
		{Scope: failure.ScopeSite},
	}
	got, err := BuildScenarios(ScenarioSpecs(want))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("round trip changed scenario count: %d != %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("scenario %d: %+v != %+v", i, got[i], want[i])
		}
	}
}

func TestBuildScenariosRejects(t *testing.T) {
	for i, tc := range []struct {
		spec ScenarioSpec
		// badScope marks an unknown scope, which is also
		// failure.ParseScope's error. Names match exactly as
		// Scope.String writes them.
		badScope bool
	}{
		{ScenarioSpec{Scope: "galaxy"}, true},
		{ScenarioSpec{Scope: ""}, true},
		{ScenarioSpec{Scope: "Array"}, true},
		{ScenarioSpec{Scope: failure.ScopeArray.String(), TargetAge: "soon"}, false},
		{ScenarioSpec{Scope: failure.ScopeArray.String(), RecoverSize: "big"}, false},
	} {
		_, err := BuildScenarios([]ScenarioSpec{tc.spec})
		if !errors.Is(err, ErrBadJob) || errors.Is(err, failure.ErrBadScope) != tc.badScope {
			t.Errorf("case %d (%+v): err = %v, want ErrBadJob (unknown scope: %v)", i, tc.spec, err, tc.badScope)
		}
	}
}

func TestBuildObjective(t *testing.T) {
	for _, kind := range []string{"", "worst", "expected"} {
		obj, floor, err := BuildObjective(ObjectiveSpec{Kind: kind})
		if err != nil {
			t.Errorf("kind %q: %v", kind, err)
		}
		if obj == nil || floor == nil {
			t.Errorf("kind %q: objective and floor must both be built", kind)
		}
	}
	obj, floor, err := BuildObjective(ObjectiveSpec{Kind: "constrained", RTO: "4h", RPO: "1h"})
	if err != nil {
		t.Errorf("constrained: %v", err)
	}
	if obj == nil || floor == nil {
		t.Error("constrained: objective and floor must both be built")
	}
	if _, _, err := BuildObjective(ObjectiveSpec{Kind: "best-effort"}); !errors.Is(err, ErrBadJob) {
		t.Error("unknown kind should be ErrBadJob")
	}
	if _, _, err := BuildObjective(ObjectiveSpec{Kind: "constrained", RTO: "whenever"}); !errors.Is(err, ErrBadJob) {
		t.Error("bad RTO should be ErrBadJob")
	}
}

// TestExecuteJobMatchesLocal is the core wire fidelity property: running
// a job through encode → decode → rebuild → search returns exactly what
// the in-memory search returns, whole-space and per-shard.
func TestExecuteJobMatchesLocal(t *testing.T) {
	job := testJob(t)
	oracle := singleProcessOracle(t, job)

	whole, err := ExecuteJob(job, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "whole space over the wire", oracle, whole)

	for _, shards := range []int{2, 3, 5, 24, 30} {
		results := make([]*Result, shards)
		for s := 0; s < shards; s++ {
			sub := *job
			sub.Shard = ShardSpec{Index: s, Count: shards}
			if results[s], err = ExecuteJob(&sub, nil); err != nil {
				t.Fatalf("%d shards: shard %d: %v", shards, s, err)
			}
		}
		merged, err := Merge(results)
		if err != nil {
			t.Fatalf("%d shards: %v", shards, err)
		}
		requireIdentical(t, "merge", oracle, merged)
	}
}

func TestMergeResultsDedupesAndCounts(t *testing.T) {
	job := testJob(t)
	oracle := singleProcessOracle(t, job)

	const shards = 4
	results := make([]*Result, 0, shards+2)
	for s := 0; s < shards; s++ {
		sub := *job
		sub.Shard = ShardSpec{Index: s, Count: shards}
		r, err := ExecuteJob(&sub, nil)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, r)
	}
	// Speculative duplicates: the same shards reported again must not
	// change the answer or double-count evaluations, and a shard's first
	// report wins over a later one.
	late := *results[0]
	late.Score, late.Evaluations = 0, 1
	results = append(results, results[1], results[3], &late)
	merged, err := Merge(results)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "merge with duplicates", oracle, merged)
}

func TestMergeResultsInfeasibleShardsKeepTheirEvaluations(t *testing.T) {
	job := testJob(t)
	sub := *job
	sub.Shard = ShardSpec{Index: 0, Count: 2}
	feasible, err := ExecuteJob(&sub, nil)
	if err != nil {
		t.Fatal(err)
	}
	infeasible := &Result{
		Version:        Version,
		Shard:          ShardSpec{Index: 1, Count: 2},
		Feasible:       false,
		Evaluations:    12,
		CandidateIndex: -1,
	}
	merged, err := Merge([]*Result{infeasible, feasible})
	if err != nil {
		t.Fatal(err)
	}
	if want := feasible.Evaluations + 12; merged.Evaluations != want {
		t.Errorf("merged evaluations %d, want %d (feasible %d + infeasible 12)",
			merged.Evaluations, want, feasible.Evaluations)
	}
	if merged.CandidateIndex != feasible.CandidateIndex {
		t.Errorf("winner %d, want shard 0's %d", merged.CandidateIndex, feasible.CandidateIndex)
	}
}

func TestMergeResultsRejects(t *testing.T) {
	if _, err := Merge(nil); !errors.Is(err, ErrBadResult) {
		t.Error("empty merge should be ErrBadResult")
	}
	a := &Result{Shard: ShardSpec{Index: 0, Count: 2}, CandidateIndex: -1, Evaluations: 1, MemoHits: 1}
	b := &Result{Shard: ShardSpec{Index: 0, Count: 3}, CandidateIndex: -1, Evaluations: 1}
	if _, err := Merge([]*Result{a, b}); !errors.Is(err, ErrBadResult) {
		t.Error("mixed shard counts should be ErrBadResult")
	}
	if _, err := Merge([]*Result{a, nil}); !errors.Is(err, ErrBadResult) {
		t.Error("nil result should be ErrBadResult")
	}
	// A partial merge (shard 1/2 never reported) is an error, not a
	// silently wrong answer.
	if _, err := Merge([]*Result{a}); !errors.Is(err, ErrBadResult) {
		t.Errorf("missing shard: err = %v, want ErrBadResult", err)
	}
	// A result file may claim any shard count; one the results cannot
	// cover fails the same way, without sizing anything by it.
	huge := &Result{Shard: ShardSpec{Index: 0, Count: 1 << 40}, CandidateIndex: -1}
	if _, err := Merge([]*Result{huge}); !errors.Is(err, ErrBadResult) || !strings.Contains(err.Error(), "missing shard 1/") {
		t.Errorf("huge shard count: err = %v, want ErrBadResult for missing shard 1", err)
	}
	// All shards present but infeasible merge to an infeasible Result
	// carrying the summed counts, as one infeasible slice reports them.
	c := &Result{Shard: ShardSpec{Index: 1, Count: 2}, CandidateIndex: -1, Evaluations: 2, Pruned: 3, BoundsComputed: 4}
	merged, err := Merge([]*Result{a, c})
	if err != nil {
		t.Fatalf("all-infeasible merge: %v", err)
	}
	want := &Result{Version: Version, CandidateIndex: -1, Evaluations: 3, Pruned: 3, BoundsComputed: 4, MemoHits: 1}
	requireIdentical(t, "all-infeasible merge", want, merged)
	if sol, err := merged.Solution(); sol != nil || err != nil {
		t.Errorf("all-infeasible merge decodes to solution %v, err %v; want neither", sol, err)
	}
	// A shard index outside the partitioning is malformed, not ignored.
	stray := &Result{Shard: ShardSpec{Index: 2, Count: 2}, CandidateIndex: -1, Evaluations: 1}
	if _, err := Merge([]*Result{a, c, stray}); !errors.Is(err, ErrBadResult) {
		t.Errorf("shard 2/2: err = %v, want ErrBadResult", err)
	}
	// A search shard and a Monte Carlo shard of the same partitioning do
	// not mix.
	trial := &Result{Shard: ShardSpec{Index: 1, Count: 2}, CandidateIndex: -1, MC: &MCResult{}}
	if _, err := Merge([]*Result{a, trial}); !errors.Is(err, ErrBadResult) || !strings.Contains(err.Error(), "mixes") {
		t.Errorf("search and Monte Carlo shards: err = %v, want ErrBadResult naming the mix", err)
	}
	if _, err := Merge([]*Result{trial, a}); !errors.Is(err, ErrBadResult) {
		t.Errorf("Monte Carlo and search shards: err = %v, want ErrBadResult", err)
	}
}

func TestExecuteJobInfeasibleShardReportsSliceSize(t *testing.T) {
	job := testJob(t)
	// An RTO no design can meet makes every candidate infeasible.
	job.Objective = ObjectiveSpec{Kind: "constrained", RTO: "1us", RPO: "1us"}
	sub := *job
	sub.Shard = ShardSpec{Index: 1, Count: 4}
	res, err := ExecuteJob(&sub, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible || res.CandidateIndex != -1 {
		t.Fatalf("expected an infeasible result, got %+v", res)
	}
	knobs, err := BuildKnobs(job.Knobs)
	if err != nil {
		t.Fatal(err)
	}
	space, err := opt.SpaceSize(knobs)
	if err != nil {
		t.Fatal(err)
	}
	if want := sub.Shard.Shard().Size(space); res.Evaluations != want {
		t.Errorf("infeasible shard reports %d evaluations, want its slice size %d", res.Evaluations, want)
	}
}

// TestExecuteJobPrunedMatchesLocal: a pruning shard answers identically
// to the unpruned oracle on the answer fields, whole-space and across
// shard splits, and its assessed/pruned split always sums to the slice
// size so Merge totals stay honest.
func TestExecuteJobPrunedMatchesLocal(t *testing.T) {
	job := testJob(t)
	oracle := singleProcessOracle(t, job)
	knobs, err := BuildKnobs(job.Knobs)
	if err != nil {
		t.Fatal(err)
	}
	space, err := opt.SpaceSize(knobs)
	if err != nil {
		t.Fatal(err)
	}

	pjob := *job
	pjob.Prune = true
	for _, shards := range []int{1, 3, 5} {
		results := make([]*Result, shards)
		for s := 0; s < shards; s++ {
			sub := pjob
			if shards > 1 {
				sub.Shard = ShardSpec{Index: s, Count: shards}
			}
			if results[s], err = ExecuteJob(&sub, nil); err != nil {
				t.Fatalf("%d shards: shard %d: %v", shards, s, err)
			}
			if size := sub.Shard.Shard().Size(space); results[s].Evaluations+results[s].Pruned != size {
				t.Errorf("%d shards: shard %d assessed %d + pruned %d != slice size %d",
					shards, s, results[s].Evaluations, results[s].Pruned, size)
			}
		}
		merged, err := Merge(results)
		if err != nil {
			t.Fatalf("%d shards: %v", shards, err)
		}
		requireAnswerIdentical(t, fmt.Sprintf("pruned merge over %d shards", shards), oracle, merged)
		if merged.Evaluations+merged.Pruned != space {
			t.Errorf("%d shards: merged assessed %d + pruned %d != space %d",
				shards, merged.Evaluations, merged.Pruned, space)
		}
	}

	// Seeding the incumbent with the known optimum — the tightest honest
	// bound any coordinator could hand a shard — must not change the
	// answer either.
	pjob.Incumbent = oracle.Score
	res, err := ExecuteJob(&pjob, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireAnswerIdentical(t, "seeded incumbent", oracle, res)
	if res.Evaluations+res.Pruned != space {
		t.Errorf("seeded: assessed %d + pruned %d != space %d", res.Evaluations, res.Pruned, space)
	}
}

// TestExecuteJobPrunedInfeasibleKeepsTotalsHonest: even a shard with no
// feasible candidate reports an assessed/pruned split covering its slice.
func TestExecuteJobPrunedInfeasibleKeepsTotalsHonest(t *testing.T) {
	job := testJob(t)
	job.Objective = ObjectiveSpec{Kind: "constrained", RTO: "1us", RPO: "1us"}
	job.Prune = true
	job.Shard = ShardSpec{Index: 1, Count: 4}
	res, err := ExecuteJob(job, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible || res.CandidateIndex != -1 {
		t.Fatalf("expected an infeasible result, got %+v", res)
	}
	knobs, err := BuildKnobs(job.Knobs)
	if err != nil {
		t.Fatal(err)
	}
	space, err := opt.SpaceSize(knobs)
	if err != nil {
		t.Fatal(err)
	}
	if want := job.Shard.Shard().Size(space); res.Evaluations+res.Pruned != want {
		t.Errorf("infeasible pruned shard: assessed %d + pruned %d != slice size %d",
			res.Evaluations, res.Pruned, want)
	}
}

// TestExecuteJobPrunedWrappingShardsMatchUnpruned: five pruned shards of
// a 320-candidate space merge to the unpruned answer. Each shard is one
// 64-candidate batch, and the vault policy digit (two options of weight
// 40) wraps inside shards 1 and 3 without a whole cycle, so a bound
// that misses the wrapped policy would prune shard 3's winner (#201).
func TestExecuteJobPrunedWrappingShardsMatchUnpruned(t *testing.T) {
	weekly := casestudy.VaultPolicy()
	weekly.Primary.AccW = units.Week
	weekly.RetCnt = 156
	pol, err := PolicyKnobSpec("vaulting", []string{"4-weekly", "weekly"},
		[]hierarchy.Policy{casestudy.VaultPolicy(), weekly})
	if err != nil {
		t.Fatal(err)
	}
	ret := make([]int, 40)
	for i := range ret {
		ret[i] = i + 1
	}
	specs := []KnobSpec{RetCntKnobSpec("backup", []int{28, 14, 7, 56}), pol, RetCntKnobSpec("vaulting", ret)}
	scs := ScenarioSpecs([]failure.Scenario{{Scope: failure.ScopeArray}, {Scope: failure.ScopeSite}})
	job, err := NewJob(casestudy.Baseline(), specs, scs, ObjectiveSpec{Kind: "worst"})
	if err != nil {
		t.Fatal(err)
	}
	const shards, space = 5, 320
	merge := func(prune bool) *Result {
		results := make([]*Result, shards)
		for s := range results {
			sub := *job
			sub.Prune = prune
			sub.Shard = ShardSpec{Index: s, Count: shards}
			if results[s], err = ExecuteJob(&sub, nil); err != nil {
				t.Fatalf("prune %v: shard %d: %v", prune, s, err)
			}
		}
		merged, err := Merge(results)
		if err != nil {
			t.Fatalf("prune %v: %v", prune, err)
		}
		if merged.Evaluations+merged.Pruned != space {
			t.Errorf("prune %v: merged assessed %d + pruned %d != space %d",
				prune, merged.Evaluations, merged.Pruned, space)
		}
		return merged
	}
	requireAnswerIdentical(t, "pruned merge over wrapping shards", merge(false), merge(true))
}
