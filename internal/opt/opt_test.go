package opt

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"stordep/internal/casestudy"
	"stordep/internal/core"
	"stordep/internal/failure"
	"stordep/internal/hierarchy"
	"stordep/internal/protect"
	"stordep/internal/units"
	"stordep/internal/whatif"
)

func scenarios() []failure.Scenario {
	return []failure.Scenario{
		{Scope: failure.ScopeArray},
		{Scope: failure.ScopeSite},
	}
}

func TestClone(t *testing.T) {
	base := casestudy.Baseline()
	clone, err := Clone(base)
	if err != nil {
		t.Fatal(err)
	}
	// Mutating the clone leaves the original untouched.
	clone.Levels = clone.Levels[:1]
	clone.Devices[0].Spec.MaxCapSlots = 1
	if len(base.Levels) != 3 || base.Devices[0].Spec.MaxCapSlots != 256 {
		t.Error("clone aliased the original")
	}
	// Designs with techniques outside the structural-clone protocol are
	// rejected (they cannot be optimized).
	alien := casestudy.Baseline()
	alien.Levels = append(alien.Levels, struct{ protect.Technique }{})
	if _, err := Clone(alien); !errors.Is(err, core.ErrNotCloneable) {
		t.Errorf("uncloneable technique: err = %v", err)
	}
}

// table7Knobs exposes the paper's Table 7 moves as optimizer knobs.
func table7Knobs() []Knob {
	return []Knob{
		PolicyKnob("vaulting",
			[]string{"4-weekly", "weekly"},
			[]hierarchy.Policy{casestudy.VaultPolicy(), casestudy.WeeklyVaultPolicy()}),
		PolicyKnob("backup",
			[]string{"weekly full", "F+I", "daily full"},
			[]hierarchy.Policy{casestudy.BackupPolicy(), casestudy.FIBackupPolicy(), casestudy.DailyFBackupPolicy()}),
		// PiTKnob renames the level, so it must come after other knobs
		// that reference it by its base-design name.
		PiTKnob("split-mirror"),
	}
}

// TestPolicyKnobDoesNotAlias: a design that picks a PolicyKnob option
// owns its policy. Two designs given the F+I backup option, and a
// winner returned by ExhaustiveOpts, each hold their own secondary
// window set: changing one leaves the other design and the caller's
// option table as they were.
func TestPolicyKnobDoesNotAlias(t *testing.T) {
	secondary := func(d *core.Design) *hierarchy.WindowSet {
		t.Helper()
		li, err := findLevel(d, "backup")
		if err != nil {
			t.Fatal(err)
		}
		sec := d.Levels[li].Level().Policy.Secondary
		if sec == nil {
			t.Fatal("backup level has no secondary window set")
		}
		return sec
	}

	backup := table7Knobs()[1] // weekly full, F+I, daily full
	var designs [2]*core.Design
	for i := range designs {
		d, err := Clone(casestudy.Baseline())
		if err != nil {
			t.Fatal(err)
		}
		if err := backup.Apply(d, 1); err != nil {
			t.Fatal(err)
		}
		designs[i] = d
	}
	secondary(designs[0]).AccW = 72 * time.Hour
	if got := secondary(designs[1]).AccW; got != 24*time.Hour {
		t.Errorf("second design's incremental accW = %v after changing the first's, want 24h", got)
	}

	policies := []hierarchy.Policy{casestudy.FIBackupPolicy()}
	knobs := []Knob{
		PolicyKnob("backup", []string{"F+I"}, policies),
		RetCntKnob("vaulting", []int{2, 4, 8}),
	}
	sol, err := ExhaustiveOpts(casestudy.Baseline(), knobs, scenarios(), nil, ExhaustiveOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	secondary(sol.Design).AccW = 72 * time.Hour
	if got := policies[0].Secondary.AccW; got != 24*time.Hour {
		t.Errorf("option table's incremental accW = %v after changing the winner's, want 24h", got)
	}
}

// TestTuneRediscoversTable7 is the headline optimizer test: starting from
// the paper's baseline with the Table 7 moves exposed as knobs — vaulting
// cadence, backup policy, PiT technique — coordinate descent must land on
// the paper's best tape-based design: weekly vault + daily fulls +
// virtual snapshots.
func TestTuneRediscoversTable7(t *testing.T) {
	sol, err := Tune(casestudy.Baseline(), table7Knobs(), scenarios(), WorstTotalObjective())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"vaulting policy":            "weekly",
		"backup policy":              "daily full",
		"split-mirror PiT technique": "virtual-snapshot",
	}
	got := map[string]string{}
	for _, c := range sol.Choices {
		got[c.Knob] = c.Option
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("knob %q = %q, want %q (choices %v)", k, got[k], v, sol.Choices)
		}
	}
	// The tuned design scores the Table 7 snapshot row's site total
	// (~$12.9M in our cost book).
	if s := float64(sol.Score) / 1e6; math.Abs(s-12.89) > 0.1 {
		t.Errorf("tuned score = $%.2fM, want ~$12.89M", s)
	}
	// Convergence within a couple of passes and a modest budget.
	if sol.Passes > 3 || sol.Evaluations > 40 {
		t.Errorf("passes=%d evaluations=%d; descent should be cheap", sol.Passes, sol.Evaluations)
	}
	// The solution design actually builds and reproduces the score.
	results, err := whatif.Evaluate([]*core.Design{sol.Design}, scenarios())
	if err != nil {
		t.Fatal(err)
	}
	if results[0].WorstTotal() != sol.Score {
		t.Errorf("rebuilt score %v != solution score %v", results[0].WorstTotal(), sol.Score)
	}
}

// TestTuneLinkCount: for the asyncB design, the optimizer finds the
// 2-link sweet spot under the worst-total objective.
func TestTuneLinkCount(t *testing.T) {
	knob := LinkCountKnob("wan-links", []int{1, 2, 4, 8, 16})
	sol, err := Tune(casestudy.AsyncBMirror(1), []Knob{knob}, scenarios(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Choices[0].Option != "2 links" {
		t.Errorf("links = %s, want 2 (the second link halves a 20h transfer for $456k)",
			sol.Choices[0].Option)
	}
}

// TestTuneConstrainedObjective: under an RTO/RPO constraint the optimizer
// picks the cheapest conforming option instead of the lowest total.
func TestTuneConstrainedObjective(t *testing.T) {
	knob := LinkCountKnob("wan-links", []int{1, 2, 4, 8, 16})
	obj := ConstrainedOutlayObjective(whatif.Objectives{
		RTO: 12 * time.Hour,
		RPO: time.Hour,
	})
	sol, err := Tune(casestudy.AsyncBMirror(1), []Knob{knob}, scenarios(), obj)
	if err != nil {
		t.Fatal(err)
	}
	// 12h site RTO needs ~2h of transfer after the 9h provisioning:
	// 8 links is the cheapest conforming count.
	if sol.Choices[0].Option != "8 links" {
		t.Errorf("links = %s, want 8", sol.Choices[0].Option)
	}
}

func TestTuneExpectedObjective(t *testing.T) {
	sol, err := Tune(casestudy.Baseline(), table7Knobs(), scenarios(),
		ExpectedObjective(whatif.TypicalFrequencies()))
	if err != nil {
		t.Fatal(err)
	}
	// On expectation the same tape optimum holds (snapshots + daily
	// fulls + weekly vault dominate on every axis).
	got := map[string]string{}
	for _, c := range sol.Choices {
		got[c.Knob] = c.Option
	}
	if got["backup policy"] != "daily full" || got["split-mirror PiT technique"] != "virtual-snapshot" {
		t.Errorf("choices = %v", sol.Choices)
	}
}

func TestTuneValidation(t *testing.T) {
	base := casestudy.Baseline()
	if _, err := Tune(base, nil, scenarios(), nil); !errors.Is(err, ErrNoKnobs) {
		t.Errorf("no knobs: %v", err)
	}
	if _, err := Tune(base, []Knob{{}}, scenarios(), nil); !errors.Is(err, ErrBadKnob) {
		t.Errorf("bad knob: %v", err)
	}
	good := LinkCountKnob("wan-links", []int{1})
	if _, err := Tune(base, []Knob{good}, nil, nil); !errors.Is(err, ErrNoScenarios) {
		t.Errorf("no scenarios: %v", err)
	}
	// A knob that always errors propagates.
	broken := Knob{Name: "x", Options: []string{"a"}, Apply: func(*core.Design, int) error {
		return errors.New("boom")
	}}
	if _, err := Tune(base, []Knob{broken}, scenarios(), nil); err == nil {
		t.Error("knob error swallowed")
	}
	// Baseline has no wan-links device: LinkCountKnob errors.
	if _, err := Tune(base, []Knob{good}, scenarios(), nil); err == nil {
		t.Error("missing device swallowed")
	}
}

func TestTuneNoFeasible(t *testing.T) {
	knob := LinkCountKnob("wan-links", []int{1, 2})
	obj := ConstrainedOutlayObjective(whatif.Objectives{RTO: time.Minute, RPO: time.Minute})
	if _, err := Tune(casestudy.AsyncBMirror(1), []Knob{knob}, scenarios(), obj); !errors.Is(err, ErrNoFeasible) {
		t.Errorf("err = %v, want ErrNoFeasible", err)
	}
}

func TestKnobHelpersValidation(t *testing.T) {
	d := casestudy.Baseline()
	// AccWKnob adjusts retention to keep retW covered.
	k := AccWKnob("vaulting", []time.Duration{units.Week})
	if err := k.Apply(d, 0); err != nil {
		t.Fatal(err)
	}
	pol := d.Levels[2].Level().Policy
	if pol.Primary.AccW != units.Week {
		t.Errorf("accW = %v", pol.Primary.AccW)
	}
	if pol.RetCnt != 156 { // 3yr / 1wk
		t.Errorf("retCnt = %d, want 156", pol.RetCnt)
	}
	// RetCntKnob scales retW.
	k = RetCntKnob("backup", []int{8})
	if err := k.Apply(d, 0); err != nil {
		t.Fatal(err)
	}
	pol = d.Levels[1].Level().Policy
	if pol.RetCnt != 8 || pol.RetW != 8*units.Week {
		t.Errorf("backup policy = %+v", pol)
	}
	// Unknown level errors.
	if err := AccWKnob("ghost", []time.Duration{time.Hour}).Apply(d, 0); err == nil {
		t.Error("ghost level accepted")
	}
	if err := PiTKnob("backup").Apply(d, 0); err == nil {
		t.Error("PiT swap on a backup level accepted")
	}
	// PiT swap back and forth.
	if err := PiTKnob("split-mirror").Apply(d, 1); err != nil {
		t.Fatal(err)
	}
	if d.Levels[0].Kind().String() != "virtual-snapshot" {
		t.Errorf("swap produced %v", d.Levels[0].Kind())
	}
	if err := PiTKnob("virtual-snapshot").Apply(d, 0); err != nil {
		t.Fatal(err)
	}
	if d.Levels[0].Kind().String() != "split-mirror" {
		t.Errorf("swap back produced %v", d.Levels[0].Kind())
	}
}

// TestExhaustiveMatchesTune: on the Table 7 knob space both search
// strategies find the same global optimum (12 combinations).
func TestExhaustiveMatchesTune(t *testing.T) {
	knobs := table7Knobs()
	tuned, err := Tune(casestudy.Baseline(), knobs, scenarios(), nil)
	if err != nil {
		t.Fatal(err)
	}
	exhaustive, err := Exhaustive(casestudy.Baseline(), knobs, scenarios(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if exhaustive.Score != tuned.Score {
		t.Errorf("scores differ: exhaustive %v vs tuned %v", exhaustive.Score, tuned.Score)
	}
	if exhaustive.Evaluations != 12 {
		t.Errorf("evaluations = %d, want the full 2x3x2 space", exhaustive.Evaluations)
	}
	for i := range exhaustive.Choices {
		if exhaustive.Choices[i] != tuned.Choices[i] {
			t.Errorf("choice %d differs: %+v vs %+v", i, exhaustive.Choices[i], tuned.Choices[i])
		}
	}
}

func TestExhaustiveValidation(t *testing.T) {
	base := casestudy.Baseline()
	if _, err := Exhaustive(base, nil, scenarios(), nil); !errors.Is(err, ErrNoKnobs) {
		t.Errorf("no knobs: %v", err)
	}
	if _, err := Exhaustive(base, []Knob{{}}, scenarios(), nil); !errors.Is(err, ErrBadKnob) {
		t.Errorf("bad knob: %v", err)
	}
	good := LinkCountKnob("wan-links", []int{1})
	if _, err := Exhaustive(base, []Knob{good}, nil, nil); !errors.Is(err, ErrNoScenarios) {
		t.Errorf("no scenarios: %v", err)
	}
	// Space-size guard is now opt-in: 13 knobs of 2 options = 8192 trips
	// a caller-set budget but not the (unbounded) default.
	var wide []Knob
	for i := 0; i < 13; i++ {
		wide = append(wide, Knob{
			Name:    string(rune('a' + i)),
			Options: []string{"x", "y"},
			Apply:   func(*core.Design, int) error { return nil },
		})
	}
	if _, err := ExhaustiveOpts(base, wide, scenarios(), nil, ExhaustiveOptions{Budget: 4096}); !errors.Is(err, ErrSpaceTooLarge) {
		t.Errorf("budget guard: %v", err)
	}
	// Overflow guard: 64 knobs of 2 options = 2^64 overflows int even
	// with no budget set.
	var huge []Knob
	for i := 0; i < 64; i++ {
		huge = append(huge, Knob{
			Name:    fmt.Sprintf("k%d", i),
			Options: []string{"x", "y"},
			Apply:   func(*core.Design, int) error { return nil },
		})
	}
	if _, err := Exhaustive(base, huge, scenarios(), nil); !errors.Is(err, ErrSpaceTooLarge) {
		t.Errorf("overflow guard: %v", err)
	}
	// Shard guard.
	good2 := LinkCountKnob("wan-links", []int{1, 2})
	for _, sh := range []Shard{{Index: -1, Count: 2}, {Index: 2, Count: 2}, {Index: 0, Count: -1}, {Index: 1, Count: 0}} {
		if _, err := ExhaustiveOpts(base, []Knob{good2}, scenarios(), nil, ExhaustiveOptions{Shard: sh}); !errors.Is(err, ErrBadShard) {
			t.Errorf("shard %+v accepted: %v", sh, err)
		}
	}
	// Infeasible objective.
	knob := LinkCountKnob("wan-links", []int{1, 2})
	obj := ConstrainedOutlayObjective(whatif.Objectives{RTO: time.Minute, RPO: time.Minute})
	if _, err := Exhaustive(casestudy.AsyncBMirror(1), []Knob{knob}, scenarios(), obj); !errors.Is(err, ErrNoFeasible) {
		t.Errorf("infeasible: %v", err)
	}
}
