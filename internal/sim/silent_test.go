package sim

import (
	"testing"
	"time"

	"stordep/internal/units"
)

func TestRunSilentFaultGuards(t *testing.T) {
	valid := SilentFault{Level: 1, From: 0, To: time.Hour}
	for i, tc := range []struct {
		f    SilentFault
		want string
	}{
		{SilentFault{Level: 0, From: 0, To: time.Hour}, "sim: silent fault level 0 out of range"},
		{SilentFault{Level: 4, From: 0, To: time.Hour}, "sim: silent fault level 4 out of range"},
		{SilentFault{Level: 1, From: time.Hour, To: time.Hour}, "sim: silent fault window [1h0m0s, 1h0m0s) invalid"},
		{SilentFault{Level: 1, From: -time.Hour, To: time.Hour}, "sim: silent fault window [-1h0m0s, 1h0m0s) invalid"},
	} {
		if err := runErr(t, nil, []SilentFault{valid, tc.f}, 0, units.Week); err == nil || err.Error() != tc.want {
			t.Errorf("case %d: invalid silent fault accepted: %+v: %v, want %q", i, tc.f, err, tc.want)
		}
	}
	if err := runErr(t, nil, []SilentFault{valid}, 0, units.Week); err != nil {
		t.Fatal(err)
	}
}

// TestSilentFaultPhantoms checks the core semantics: windows closing in
// the fault window schedule normally but produce phantoms, phantoms
// cannot serve a restore, and the loss at a failure instant jumps to
// what the pre-fault RP supports.
func TestSilentFaultPhantoms(t *testing.T) {
	chain := baselineChain()
	// Split-mirror closes every 12h. Silence the captures at 36h and 48h.
	s := runWith(t, chain, nil, []SilentFault{{Level: 1, From: 30 * time.Hour, To: 50 * time.Hour}}, 0, 10*units.Day)
	rps, err := s.RPs(1)
	if err != nil {
		t.Fatal(err)
	}
	var phantoms, real int
	for _, rp := range rps {
		if rp.Phantom {
			phantoms++
			if rp.Cut < 30*time.Hour || rp.Cut >= 50*time.Hour {
				t.Errorf("phantom with cut %v outside the fault window", rp.Cut)
			}
		} else {
			real++
		}
	}
	if phantoms != 2 {
		t.Fatalf("got %d phantoms, want 2 (cuts 36h and 48h); rps=%v", phantoms, rps)
	}
	if real == 0 {
		t.Fatal("no real RPs survived outside the fault window")
	}

	// At 49h the newest real split is cut 24h: loss 25h, not 1h.
	loss, lvl, ok := s.Loss([]int{1}, 49*time.Hour, 0)
	if !ok {
		t.Fatal("restore should still succeed from the 24h split")
	}
	if lvl != 1 || loss != 25*time.Hour {
		t.Fatalf("loss = %v from level %d, want 25h from level 1", loss, lvl)
	}

	// A clean sim at the same instant restores the 48h split: loss 1h.
	cl, _, ok := run(t, chain, 10*units.Day).Loss([]int{1}, 49*time.Hour, 0)
	if !ok || cl != time.Hour {
		t.Fatalf("clean loss = %v ok=%v, want 1h", cl, ok)
	}
}

// TestSilentFaultPropagates checks phantomness rides the copy chain: a
// backup taken from a phantom split is itself a phantom, even though the
// backup level had no fault of its own.
func TestSilentFaultPropagates(t *testing.T) {
	// Backups close weekly at phase 0 (level 2 cycle: window closes at
	// 168h, 336h, ...) and forward the newest split below. Silence the
	// splits feeding the second backup window.
	s := runWith(t, baselineChain(), nil, []SilentFault{{Level: 1, From: 300 * time.Hour, To: 340 * time.Hour}}, 0, 10*units.Week)
	rps, err := s.RPs(2)
	if err != nil {
		t.Fatal(err)
	}
	var sawPhantom bool
	for _, rp := range rps {
		if rp.Phantom {
			sawPhantom = true
			if rp.Cut < 300*time.Hour || rp.Cut >= 340*time.Hour {
				t.Errorf("phantom backup cut %v does not trace to the faulted splits", rp.Cut)
			}
		}
	}
	if !sawPhantom {
		t.Fatal("no backup inherited phantomness from its faulted source")
	}
}

// TestSilentFaultRestorePlan checks the restore planner routes around
// phantoms: Plan never serves from an RP a silent fault poisoned.
func TestSilentFaultRestorePlan(t *testing.T) {
	s := runWith(t, baselineChain(), nil, []SilentFault{{Level: 1, From: 30 * time.Hour, To: 50 * time.Hour}}, 0, 10*units.Day)
	plan, ok := s.Plan([]int{1}, 49*time.Hour, 0)
	if !ok {
		t.Fatal("restore plan should resolve from the pre-fault split")
	}
	if plan.Serving.Phantom {
		t.Fatal("restore plan serves from a phantom RP")
	}
	if plan.Serving.Cut != 24*time.Hour {
		t.Fatalf("plan serves cut %v, want the 24h split", plan.Serving.Cut)
	}
}
