package opt

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"stordep/internal/casestudy"
	"stordep/internal/core"
	"stordep/internal/failure"
	"stordep/internal/units"
	"stordep/internal/whatif"
)

// oraclePt is one candidate's frontier coordinates in the slice oracle.
type oraclePt struct {
	idx int
	rt  time.Duration
	dl  time.Duration
	out units.Money
}

// frontierOracle computes the non-dominated surface the slow way:
// evaluate every candidate through the legacy clone+build evaluator,
// keep the feasible ones (builds, never loses the object) with their
// worst-case recovery time and data loss, then apply the quadratic
// dominance filter — a point survives iff no other point is at least
// as good on all three axes and either strictly better somewhere or an
// exact-coordinate duplicate with a lower index. This is deliberately
// independent of frontierSet's streaming add.
func frontierOracle(t *testing.T, base *core.Design, knobs []Knob, scs []failure.Scenario) []oraclePt {
	t.Helper()
	space := 1
	for _, k := range knobs {
		space *= len(k.Options)
	}
	var all []oraclePt
	choice := make([]int, len(knobs))
	var ev whatif.Evaluator
	var res whatif.Result
	for idx := 0; idx < space; idx++ {
		decodeChoice(choice, knobs, idx)
		d, err := Clone(base)
		if err != nil {
			t.Fatal(err)
		}
		if err := applyChoiceTo(d, knobs, choice); err != nil {
			t.Fatalf("candidate %d: apply: %v", idx, err)
		}
		ev.EvaluateInto(d, scs, &res)
		if res.Err != nil {
			continue
		}
		var rt, dl time.Duration
		lost := false
		for _, o := range res.Outcomes {
			if o.Lost {
				lost = true
				break
			}
			if o.RecoveryTime > rt {
				rt = o.RecoveryTime
			}
			if o.DataLoss > dl {
				dl = o.DataLoss
			}
		}
		if lost {
			continue
		}
		all = append(all, oraclePt{idx: idx, rt: rt, dl: dl, out: res.Outlays})
	}
	var front []oraclePt
	for _, q := range all {
		dominated := false
		for _, p := range all {
			if p.idx == q.idx {
				continue
			}
			if p.out <= q.out && p.rt <= q.rt && p.dl <= q.dl &&
				(p.out < q.out || p.rt < q.rt || p.dl < q.dl || p.idx < q.idx) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, q)
		}
	}
	// The oracle's iteration is already in ascending candidate index; sort
	// into the canonical (outlays, rt, dl, idx) order Points uses.
	for i := 1; i < len(front); i++ {
		for j := i; j > 0; j-- {
			a, b := &front[j-1], &front[j]
			if a.out < b.out || (a.out == b.out && (a.rt < b.rt ||
				(a.rt == b.rt && (a.dl < b.dl || (a.dl == b.dl && a.idx < b.idx))))) {
				break
			}
			front[j-1], front[j] = front[j], front[j-1]
		}
	}
	return front
}

// frontierEquals asserts the surface matches the oracle point for point
// — coordinates, candidate indices, and the decoded choices.
func frontierEquals(t *testing.T, label string, want []oraclePt, got *FrontierResult, knobs []Knob) {
	t.Helper()
	if len(got.Points) != len(want) {
		t.Errorf("%s: %d frontier points, oracle has %d", label, len(got.Points), len(want))
		return
	}
	choice := make([]int, len(knobs))
	for i, w := range want {
		g := &got.Points[i]
		if g.CandidateIndex != w.idx || g.RecoveryTime != w.rt || g.DataLoss != w.dl || g.Outlays != w.out {
			t.Errorf("%s: point %d = (idx %d, rt %v, dl %v, out %v), oracle (idx %d, rt %v, dl %v, out %v)",
				label, i, g.CandidateIndex, g.RecoveryTime, g.DataLoss, g.Outlays, w.idx, w.rt, w.dl, w.out)
			continue
		}
		decodeChoice(choice, knobs, w.idx)
		if len(g.Choices) != len(knobs) {
			t.Errorf("%s: point %d has %d choices, want %d", label, i, len(g.Choices), len(knobs))
			continue
		}
		for ki, k := range knobs {
			if g.Choices[ki].Knob != k.Name || g.Choices[ki].Option != k.Options[choice[ki]] {
				t.Errorf("%s: point %d choice %d = %v, want {%s %s}",
					label, i, ki, g.Choices[ki], k.Name, k.Options[choice[ki]])
			}
		}
	}
}

// TestFrontierMatchesOracleProperty: across random knob spaces, worker
// counts {1,2,8} and batch sizes (0 for the compile rule, else forced
// compilation), Frontier returns exactly the oracle's non-dominated
// subset of the exhaustive sweep, and accounts for every candidate.
func TestFrontierMatchesOracleProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	base := casestudy.Baseline()
	for trial := 0; trial < 6; trial++ {
		knobs := randomKnobs(rng)
		space := 1
		for _, k := range knobs {
			space *= len(k.Options)
		}
		want := frontierOracle(t, base, knobs, scenarios())
		for _, workers := range []int{1, 2, 8} {
			for _, batch := range []int{0, 1, 7} {
				label := fmt.Sprintf("trial %d workers %d batch %d (%d candidates)", trial, workers, batch, space)
				fr, err := frontier(base, knobs, scenarios(), FrontierOpts{Workers: workers}, batch)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				frontierEquals(t, label, want, fr, knobs)
				if fr.Evaluations != space {
					t.Errorf("%s: evaluated %d, want %d", label, fr.Evaluations, space)
				}
			}
		}
	}
}

// TestFrontierShardMerge: disjoint shards merge to exactly the
// unsharded surface, with the evaluation counters summing to the space.
func TestFrontierShardMerge(t *testing.T) {
	base := casestudy.Baseline()
	knobs := []Knob{
		PolicyKnob("vaulting", []string{"4-weekly", "weekly"}, vaultPolicyPair()),
		RetCntKnob("vaulting", []int{2, 4, 8, 13}),
		RetCntKnob("backup", []int{7, 14, 28}),
		LinkCountKnob("tape-library", []int{8, 12, 16}),
	}
	const space = 2 * 4 * 3 * 3
	whole, err := Frontier(base, knobs, scenarios(), FrontierOpts{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := frontierOracle(t, base, knobs, scenarios())
	frontierEquals(t, "unsharded", want, whole, knobs)
	for _, m := range []int{1, 2, 3, 5} {
		frs := make([]*FrontierResult, m)
		for k := 0; k < m; k++ {
			fr, err := Frontier(base, knobs, scenarios(), FrontierOpts{
				Workers: 2,
				Shard:   Shard{Index: k, Count: m},
			})
			if err != nil {
				t.Fatalf("shard %d/%d: %v", k, m, err)
			}
			frs[k] = fr
		}
		merged := MergeFrontiers(knobs, frs)
		label := fmt.Sprintf("%d shards", m)
		frontierEquals(t, label, want, merged, knobs)
		if merged.Evaluations != space {
			t.Errorf("%s: merged evaluations %d, want %d", label, merged.Evaluations, space)
		}
	}
}

// TestFrontierPrunedIdentical: on the 192-candidate prune-test space,
// which compiles, Frontier returns exactly the oracle's surface for
// every worker count and assesses every candidate once.
func TestFrontierPrunedIdentical(t *testing.T) {
	base := casestudy.Baseline()
	knobs := pruneTestKnobs()
	const space = 2 * 8 * 3 * 4
	want := frontierOracle(t, base, knobs, scenarios())
	for _, workers := range []int{1, 2, 8} {
		label := fmt.Sprintf("workers %d", workers)
		fr, err := Frontier(base, knobs, scenarios(), FrontierOpts{Workers: workers})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		frontierEquals(t, label, want, fr, knobs)
		if fr.Evaluations != space {
			t.Errorf("%s: evaluated %d, want %d", label, fr.Evaluations, space)
		}
	}
}

// TestFrontierNeverDominated pins the structural invariant directly: no
// returned point may dominate another, and no two may share all three
// coordinates (ties collapse to one index).
func TestFrontierNeverDominated(t *testing.T) {
	base := casestudy.Baseline()
	fr, err := Frontier(base, table7Knobs(), scenarios(), FrontierOpts{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(fr.Points) == 0 {
		t.Fatal("empty frontier on the table-7 space")
	}
	for i := range fr.Points {
		for j := range fr.Points {
			if i == j {
				continue
			}
			p, q := &fr.Points[i], &fr.Points[j]
			if p.Outlays <= q.Outlays && p.RecoveryTime <= q.RecoveryTime && p.DataLoss <= q.DataLoss {
				if p.Outlays < q.Outlays || p.RecoveryTime < q.RecoveryTime || p.DataLoss < q.DataLoss {
					t.Errorf("point %d dominates point %d", i, j)
				} else {
					t.Errorf("points %d and %d share coordinates (idx %d / %d)",
						i, j, p.CandidateIndex, q.CandidateIndex)
				}
			}
		}
	}
}

// TestFrontierSetAdd pins the streaming set's tie-break semantics:
// duplicates collapse to the lowest index regardless of insertion
// order, dominated points are evicted, and incomparable points coexist.
func TestFrontierSetAdd(t *testing.T) {
	a := fpoint{idx: 5, rt: 10, dl: 10, out: 100}
	dup := fpoint{idx: 2, rt: 10, dl: 10, out: 100}
	dom := fpoint{idx: 9, rt: 5, dl: 10, out: 100} // dominates a and dup
	inc := fpoint{idx: 7, rt: 50, dl: 50, out: 10} // incomparable with all

	for name, order := range map[string][]fpoint{
		"dup-after":  {a, dup, inc},
		"dup-before": {dup, a, inc},
		"dom-last":   {inc, a, dup, dom},
		"dom-first":  {dom, inc, a, dup},
	} {
		var s frontierSet
		for _, p := range order {
			s.add(p)
		}
		want := map[int]bool{inc.idx: true}
		if name == "dom-last" || name == "dom-first" {
			want[dom.idx] = true
		} else {
			want[dup.idx] = true // lowest index of the duplicate pair
		}
		if len(s.pts) != len(want) {
			t.Errorf("%s: %d points kept, want %d (%v)", name, len(s.pts), len(want), s.pts)
			continue
		}
		for _, p := range s.pts {
			if !want[p.idx] {
				t.Errorf("%s: kept index %d, want set %v", name, p.idx, want)
			}
		}
	}
}

// TestFrontierBudget: the budget rejects oversized spaces exactly like
// the exhaustive search.
func TestFrontierBudget(t *testing.T) {
	base := casestudy.Baseline()
	knobs := table7Knobs()
	if _, err := Frontier(base, knobs, scenarios(), FrontierOpts{Budget: 3}); err == nil {
		t.Fatal("want ErrSpaceTooLarge, got nil")
	}
	if _, err := Frontier(base, knobs, scenarios(), FrontierOpts{Budget: 100}); err != nil {
		t.Fatalf("budget 100 on a 12-candidate space: %v", err)
	}
}
