package opt

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"stordep/internal/casestudy"
	"stordep/internal/config"
)

// arenaSpaces are knob spaces of different shapes for the arena reuse
// tests: the 6144-candidate perfbench space (1029 table entries), two
// small clean ones (one with a touchless knob), and three with suspect
// options or entries, whose rows must not show what an earlier search
// left in the arena.
func arenaSpaces() map[string][]Knob {
	return map[string][]Knob{
		"pruner bound":   prunerBoundKnobs(),
		"compiled":       compiledKnobs(),
		"prune test":     pruneTestKnobs(),
		"rename":         renameKnobs(),
		"move":           moveKnobs(),
		"dropped copy":   {RetCntKnob("vaulting", []int{2, 4, 8, 13}), vaultTroubleKnob()},
		"touchless accW": touchlessAccWKnobs(),
	}
}

// searchIn compiles knobs on the baseline into ar and runs the
// worst-total sweep, pruned or not, on two workers, the way
// ExhaustiveOpts does but on the given arena. It returns the compiled
// space, the winner and the sweep's error.
func searchIn(t *testing.T, ar *arena, knobs []Knob, prune bool) (*compiledSpace, *argmin, error) {
	t.Helper()
	base, scs := casestudy.Baseline(), scenarios()
	cs, err := compileIn(ar, base, knobs, scs, 2)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	space, err := SpaceSize(knobs)
	if err != nil {
		t.Fatal(err)
	}
	sw := &sweep{base: base, knobs: knobs, scs: scs, workers: 2, hi: space,
		reuse: allRevertible(knobs), cs: cs, batch: defaultBatchSize}
	obj := WorstTotalObjective()
	var pr *pruner
	if prune {
		if pr = newPruner(cs, WorstTotalFloor(), 0); pr != nil {
			pr.seed(obj, 0, space)
		}
	}
	acc, _, err := sw.run(func() accumulator { return newArgmin(sw, obj, pr) })
	if err != nil {
		return cs, nil, err
	}
	return cs, acc.(*argmin), nil
}

// sameTables compares two compiles of one space field by field: the
// knob suspects, the touchless knobs, every group's tables, and the
// pruner tables built on each.
func sameTables(t *testing.T, label string, got, want *compiledSpace) {
	t.Helper()
	if !reflect.DeepEqual(got.knobSuspect, want.knobSuspect) || !reflect.DeepEqual(got.touchless, want.touchless) {
		t.Errorf("%s: suspects %v, touchless %v; fresh %v, %v",
			label, got.knobSuspect, got.touchless, want.knobSuspect, want.touchless)
	}
	if !reflect.DeepEqual(got.groups, want.groups) {
		t.Errorf("%s: group tables differ from a fresh compile's", label)
	}
	gp, wp := newPruner(got, WorstTotalFloor(), 0), newPruner(want, WorstTotalFloor(), 0)
	if (gp == nil) != (wp == nil) {
		t.Fatalf("%s: pruner %v, fresh %v", label, gp != nil, wp != nil)
	}
	if gp != nil && (!reflect.DeepEqual(gp.groups, wp.groups) || gp.outlayConst != wp.outlayConst) {
		t.Errorf("%s: pruner tables differ from a fresh compile's", label)
	}
}

// TestArenaReuseMatchesFreshCompile: a search on an arena that a
// different search used just before, larger or smaller, clean or with
// suspect entries, builds tables equal field by field to a compile on a
// fresh arena and returns the slice oracle's winner. The public
// searches, which draw their arenas from the pool, return Solutions
// byte-identical to the oracle in the same orders.
func TestArenaReuseMatchesFreshCompile(t *testing.T) {
	spaces := arenaSpaces()
	base, scs := casestudy.Baseline(), scenarios()
	type answer struct {
		sol *Solution
		err error
	}
	oracle := map[string]answer{}
	for name, knobs := range spaces {
		sol, err := sliceExhaustive(base, knobs, scs, WorstTotalObjective())
		oracle[name] = answer{sol, err}
	}
	pairs := [][2]string{
		{"pruner bound", "compiled"}, {"compiled", "pruner bound"},
		{"prune test", "compiled"}, {"compiled", "prune test"},
		{"compiled", "rename"}, {"compiled", "move"},
		{"pruner bound", "dropped copy"}, {"prune test", "touchless accW"},
	}
	for _, pair := range pairs {
		first, then := pair[0], pair[1]
		for _, prune := range []bool{false, true} {
			label := fmt.Sprintf("%s after %s, prune %v", then, first, prune)
			ar := new(arena)
			searchIn(t, ar, spaces[first], prune)
			ar.reset()
			cs, best, err := searchIn(t, ar, spaces[then], prune)
			fresh, ferr := compileIn(new(arena), base, spaces[then], scs, 2)
			if ferr != nil {
				t.Fatalf("%s: fresh compile: %v", label, ferr)
			}
			sameTables(t, label, cs, fresh)
			want := oracle[then]
			switch {
			case want.err != nil:
				if err == nil || err.Error() != want.err.Error() {
					t.Errorf("%s: err %v, oracle err %v", label, err, want.err)
				}
			case err != nil:
				t.Errorf("%s: %v", label, err)
			case best.idx != want.sol.CandidateIndex || best.score != want.sol.Score:
				t.Errorf("%s: winner #%d %v, oracle #%d %v", label, best.idx, best.score,
					want.sol.CandidateIndex, want.sol.Score)
			}

			for _, name := range pair {
				sol, err := ExhaustiveOpts(base, spaces[name], scs, WorstTotalObjective(), ExhaustiveOptions{
					Workers: 2, Prune: prune, Floor: WorstTotalFloor(),
				})
				label := fmt.Sprintf("ExhaustiveOpts %s in %s then %s, prune %v", name, first, then, prune)
				want := oracle[name]
				if want.err != nil {
					if err == nil || err.Error() != want.err.Error() {
						t.Errorf("%s: err %v, oracle err %v", label, err, want.err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				prunedIdentical(t, label, want.sol, sol)
			}
		}
	}
}

// TestArenaConcurrentSearches: four goroutines run rounds of pruned and
// unpruned ExhaustiveOpts and of Frontier over different spaces at
// once, so concurrent searches draw distinct arenas and a search's
// workers distinct slots. Every result equals its serial answer.
func TestArenaConcurrentSearches(t *testing.T) {
	spaces := arenaSpaces()
	names := []string{"compiled", "prune test", "touchless accW", "rename", "move"}
	base, scs := casestudy.Baseline(), scenarios()
	type answers struct {
		pruned, unpruned *Solution
		front            *FrontierResult
	}
	search := func(name string, workers int) (answers, error) {
		var a answers
		var err error
		opts := ExhaustiveOptions{Workers: workers, Prune: true, Floor: WorstTotalFloor()}
		if a.pruned, err = ExhaustiveOpts(base, spaces[name], scs, WorstTotalObjective(), opts); err != nil {
			return a, err
		}
		opts.Prune = false
		if a.unpruned, err = ExhaustiveOpts(base, spaces[name], scs, WorstTotalObjective(), opts); err != nil {
			return a, err
		}
		a.front, err = Frontier(base, spaces[name], scs, FrontierOpts{Workers: workers})
		return a, err
	}
	serial := map[string]answers{}
	for _, name := range names {
		a, err := search(name, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		serial[name] = a
	}
	const goroutines, rounds = 4, 3
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	got := make([][]answers, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				a, err := search(names[(g+r)%len(names)], 1+g%2)
				if err != nil {
					errs[g] = err
					return
				}
				got[g] = append(got[g], a)
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		for r, a := range got[g] {
			name := names[(g+r)%len(names)]
			label := fmt.Sprintf("goroutine %d round %d (%s)", g, r, name)
			want := serial[name]
			prunedIdentical(t, label+" pruned", want.pruned, a.pruned)
			prunedIdentical(t, label+" unpruned", want.unpruned, a.unpruned)
			if !reflect.DeepEqual(want.front, a.front) {
				t.Errorf("%s: frontier differs from the serial one", label)
			}
		}
	}
}

// TestArenaReturnedResultsIsolated: a Solution's Design and Choices and a
// Frontier's points own their memory. Later searches that reuse the
// arena leave them as they were, and vandalizing them changes no later
// answer.
func TestArenaReturnedResultsIsolated(t *testing.T) {
	spaces := arenaSpaces()
	base, scs := casestudy.Baseline(), scenarios()
	knobs := spaces["compiled"]
	opts := ExhaustiveOptions{Workers: 2, Prune: true, Floor: WorstTotalFloor()}
	sol, err := ExhaustiveOpts(base, knobs, scs, WorstTotalObjective(), opts)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := Frontier(base, knobs, scs, FrontierOpts{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	design, err := config.Marshal(sol.Design)
	if err != nil {
		t.Fatal(err)
	}
	choices := slices.Clone(sol.Choices)
	points := slices.Clone(fr.Points)
	for i := range points {
		points[i].Choices = slices.Clone(points[i].Choices)
	}

	for _, name := range []string{"pruner bound", "touchless accW", "prune test", "compiled"} {
		if _, err := ExhaustiveOpts(base, spaces[name], scs, WorstTotalObjective(), opts); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := Frontier(base, spaces[name], scs, FrontierOpts{Workers: 2}); err != nil {
			t.Fatalf("%s: frontier: %v", name, err)
		}
	}
	if now, err := config.Marshal(sol.Design); err != nil || string(now) != string(design) {
		t.Errorf("the returned design changed after later searches (%v)", err)
	}
	if !reflect.DeepEqual(sol.Choices, choices) {
		t.Errorf("the returned choices changed: %v, were %v", sol.Choices, choices)
	}
	if !reflect.DeepEqual(fr.Points, points) {
		t.Error("the returned frontier points changed after later searches")
	}

	// Vandalize what was returned; the next answers must not move.
	sol.Design.Levels = sol.Design.Levels[:1]
	sol.Choices[0].Option = "vandalized"
	for i := range fr.Points {
		fr.Points[i].Choices[0].Option = "vandalized"
	}
	again, err := ExhaustiveOpts(base, knobs, scs, WorstTotalObjective(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if now, err := config.Marshal(again.Design); err != nil || string(now) != string(design) ||
		!reflect.DeepEqual(again.Choices, choices) {
		t.Errorf("re-run diverged after vandalizing the previous Solution: %v (%v)", again.Choices, err)
	}
	front, err := Frontier(base, knobs, scs, FrontierOpts{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(front.Points, points) {
		t.Error("re-run frontier diverged after vandalizing the previous one")
	}
}
