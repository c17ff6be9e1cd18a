package hierarchy

import (
	"strings"
	"testing"
	"testing/quick"
	"time"

	"stordep/internal/units"
)

// TestDegradedValidation: a single outage is a one-element list, and it
// is refused for a level outside the chain or a negative duration.
func TestDegradedValidation(t *testing.T) {
	c := baselineChain()
	if _, err := c.DegradedCompound([]LevelOutage{{Level: 0, Outage: time.Hour}}); err == nil {
		t.Error("level 0 accepted")
	}
	if _, err := c.DegradedCompound([]LevelOutage{{Level: 4, Outage: time.Hour}}); err == nil {
		t.Error("out-of-range level accepted")
	}
	if _, err := c.DegradedCompound([]LevelOutage{{Level: 1, Outage: -time.Hour}}); err == nil {
		t.Error("negative outage accepted")
	}
}

func TestDegradedDoesNotMutateOriginal(t *testing.T) {
	c := baselineChain()
	origHold := c[1].Policy.Primary.HoldW
	deg, err := c.DegradedCompound([]LevelOutage{{Level: 2, Outage: units.Week}})
	if err != nil {
		t.Fatal(err)
	}
	if c[1].Policy.Primary.HoldW != origHold {
		t.Error("original chain mutated")
	}
	if deg[1].Policy.Primary.HoldW != origHold+units.Week {
		t.Errorf("degraded hold = %v", deg[1].Policy.Primary.HoldW)
	}
}

// TestDegradedShiftsSuffix: degrading the backup level adds the outage to
// the worst-case loss at the backup and vault, but not the mirrors.
func TestDegradedShiftsSuffix(t *testing.T) {
	c := baselineChain()
	outage := 3 * units.Day
	deg, err := c.DegradedCompound([]LevelOutage{{Level: 2, Outage: outage}})
	if err != nil {
		t.Fatal(err)
	}
	// Mirror level untouched.
	if got, want := deg.MaxLag(1), c.MaxLag(1); got != want {
		t.Errorf("mirror lag changed: %v vs %v", got, want)
	}
	// Backup and vault shifted by exactly the outage.
	if got, want := deg.MaxLag(2), c.MaxLag(2)+outage; got != want {
		t.Errorf("backup lag = %v, want %v", got, want)
	}
	if got, want := deg.MaxLag(3), c.MaxLag(3)+outage; got != want {
		t.Errorf("vault lag = %v, want %v", got, want)
	}
}

func TestDegradedLossHelper(t *testing.T) {
	c := baselineChain()
	backup := []LevelOutage{{Level: 2, Outage: units.Week}}
	// Level below the failure: unchanged.
	loss, ok := c.CompoundDegradedLoss(1, backup, 24*time.Hour)
	if !ok || loss != 12*time.Hour {
		t.Errorf("mirror loss = %v/%v", loss, ok)
	}
	// The degraded backup loses an extra week for a fresh target.
	loss, ok = c.CompoundDegradedLoss(2, backup, 0)
	if !ok || loss != (217*time.Hour+units.Week) {
		t.Errorf("degraded backup loss = %v/%v, want 385h", loss, ok)
	}
	// Invalid failed level.
	if _, ok := c.CompoundDegradedLoss(2, []LevelOutage{{Level: 9, Outage: units.Week}}, 0); ok {
		t.Error("invalid failed level accepted")
	}
}

// TestDegradedSecondaryWindows: a cyclic policy's incremental stream
// degrades along with the fulls.
func TestDegradedSecondaryWindows(t *testing.T) {
	fi := Chain{{Name: "fi", Policy: Policy{
		Primary:   WindowSet{AccW: 48 * time.Hour, PropW: 48 * time.Hour, HoldW: time.Hour, Rep: RepFull},
		Secondary: &WindowSet{AccW: 24 * time.Hour, PropW: 12 * time.Hour, HoldW: time.Hour, Rep: RepPartial},
		CycleCnt:  5,
		RetCnt:    4, RetW: 4 * units.Week, CopyRep: RepFull,
	}}}
	deg, err := fi.DegradedCompound([]LevelOutage{{Level: 1, Outage: units.Day}})
	if err != nil {
		t.Fatal(err)
	}
	if deg[0].Policy.Secondary.HoldW != time.Hour+units.Day {
		t.Errorf("secondary hold = %v", deg[0].Policy.Secondary.HoldW)
	}
	// The original's secondary window set must be untouched (deep copy).
	if fi[0].Policy.Secondary.HoldW != time.Hour {
		t.Error("original secondary mutated")
	}
}

// Property: degraded loss is monotone non-decreasing in the outage
// duration and always at least the healthy loss.
func TestDegradedMonotoneProperty(t *testing.T) {
	c := baselineChain()
	f := func(h1, h2 uint16) bool {
		a := time.Duration(h1) * time.Hour
		b := time.Duration(h2) * time.Hour
		if a > b {
			a, b = b, a
		}
		healthy, ok0 := c.WorstCaseLoss(2, 0)
		lossA, okA := c.CompoundDegradedLoss(2, []LevelOutage{{Level: 2, Outage: a}}, 0)
		lossB, okB := c.CompoundDegradedLoss(2, []LevelOutage{{Level: 2, Outage: b}}, 0)
		return ok0 && okA && okB && healthy <= lossA && lossA <= lossB
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestExplain(t *testing.T) {
	c := baselineChain()
	out := c.Explain(3)
	for _, want := range []string{
		"Level 3 (remote-vault):",
		"transfer lag",
		"= 4wk3d13h", // 757h
		"accW          = 4wk",
		"worst loss    = transfer lag + accW",
		"guaranteed RPs",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q:\n%s", want, out)
		}
	}
	if got := c.Explain(0); !strings.Contains(got, "out of range") {
		t.Errorf("Explain(0) = %q", got)
	}
	all := c.ExplainAll()
	for _, name := range []string{"split-mirror", "tape-backup", "remote-vault"} {
		if !strings.Contains(all, name) {
			t.Errorf("ExplainAll missing %s", name)
		}
	}
}

func TestExplainCyclic(t *testing.T) {
	fi := Chain{{Name: "fi", Policy: Policy{
		Primary:   WindowSet{AccW: 48 * time.Hour, PropW: 48 * time.Hour, HoldW: time.Hour, Rep: RepFull},
		Secondary: &WindowSet{AccW: 24 * time.Hour, PropW: 12 * time.Hour, HoldW: time.Hour, Rep: RepPartial},
		CycleCnt:  5,
		RetCnt:    4, RetW: 4 * units.Week, CopyRep: RepFull,
	}}}
	out := fi.Explain(1)
	if !strings.Contains(out, "incremental cadence") {
		t.Errorf("cyclic explanation missing:\n%s", out)
	}
}

// TestDegradedCompoundValidation: one bad outage refuses the whole list,
// wherever it stands among valid ones.
func TestDegradedCompoundValidation(t *testing.T) {
	c := baselineChain()
	week := LevelOutage{Level: 2, Outage: units.Week}
	if _, err := c.DegradedCompound([]LevelOutage{week, {Level: 0, Outage: time.Hour}}); err == nil {
		t.Error("level 0 accepted")
	}
	if _, err := c.DegradedCompound([]LevelOutage{{Level: 4, Outage: time.Hour}, week}); err == nil {
		t.Error("out-of-range level accepted")
	}
	if _, err := c.DegradedCompound([]LevelOutage{week, {Level: 1, Outage: -time.Hour}, week}); err == nil {
		t.Error("negative outage accepted")
	}
	if _, ok := c.CompoundDegradedLoss(1, []LevelOutage{{Level: 9, Outage: time.Hour}}, 0); ok {
		t.Error("compound loss with bad outage reported ok")
	}
}

// TestDegradedCompoundMatchesSingle: one week of backup outage shifts
// the backup and vault lags by exactly that week, whether it arrives
// as one outage or as several naming the same level.
func TestDegradedCompoundMatchesSingle(t *testing.T) {
	c := baselineChain()
	single, err := c.DegradedCompound([]LevelOutage{{Level: 2, Outage: units.Week}})
	if err != nil {
		t.Fatal(err)
	}
	for j := 1; j <= len(c); j++ {
		want := c.MaxLag(j)
		if j >= 2 {
			want += units.Week
		}
		if got := single.MaxLag(j); got != want {
			t.Errorf("level %d: degraded lag %v, want %v", j, got, want)
		}
	}
	// Repeated mentions of one level accumulate.
	twice, err := c.DegradedCompound([]LevelOutage{
		{Level: 2, Outage: 3 * units.Day},
		{Level: 2, Outage: 4 * units.Day},
	})
	if err != nil {
		t.Fatal(err)
	}
	if twice.MaxLag(2) != single.MaxLag(2) {
		t.Errorf("accumulated lag %v != one-week lag %v", twice.MaxLag(2), single.MaxLag(2))
	}
}

func TestDegradedCompoundDominatesSingles(t *testing.T) {
	c := baselineChain()
	outages := []LevelOutage{
		{Level: 2, Outage: 2 * units.Week},
		{Level: 3, Outage: 5 * units.Week},
	}
	compound, ok := c.CompoundDegradedLoss(3, outages, 0)
	if !ok {
		t.Fatal("no compound loss")
	}
	for _, o := range outages {
		single, ok := c.CompoundDegradedLoss(3, []LevelOutage{o}, 0)
		if !ok {
			t.Fatalf("no single loss for level %d", o.Level)
		}
		if compound < single {
			t.Errorf("compound loss %v below single level-%d loss %v", compound, o.Level, single)
		}
	}
}

func TestDegradedCompoundDoesNotMutate(t *testing.T) {
	c := baselineChain()
	origHold := c[1].Policy.Primary.HoldW
	if _, err := c.DegradedCompound([]LevelOutage{{Level: 2, Outage: units.Week}}); err != nil {
		t.Fatal(err)
	}
	if c[1].Policy.Primary.HoldW != origHold {
		t.Error("DegradedCompound mutated the receiver")
	}
}
