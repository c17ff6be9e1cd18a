package sim

import (
	"testing"
	"time"

	"stordep/internal/units"
)

func TestAddSilentFaultGuards(t *testing.T) {
	s, err := New(baselineChain())
	if err != nil {
		t.Fatal(err)
	}
	cases := []SilentFault{
		{Level: 0, From: 0, To: time.Hour},
		{Level: 4, From: 0, To: time.Hour},
		{Level: 1, From: time.Hour, To: time.Hour},
		{Level: 1, From: -time.Hour, To: time.Hour},
	}
	for i, f := range cases {
		if err := s.AddSilentFault(f); err == nil {
			t.Errorf("case %d: invalid silent fault accepted: %+v", i, f)
		}
	}
	if err := s.AddSilentFault(SilentFault{Level: 1, From: 0, To: time.Hour}); err != nil {
		t.Fatal(err)
	}
	if err := s.RunFrom(0, units.Week); err != nil {
		t.Fatal(err)
	}
	if err := s.AddSilentFault(SilentFault{Level: 1, From: 0, To: time.Hour}); err == nil {
		t.Error("silent fault accepted after Run")
	}
	if got := s.SilentFaults(); len(got) != 1 {
		t.Errorf("SilentFaults returned %d faults, want 1", len(got))
	}
}

// TestSilentFaultPhantoms checks the core semantics: windows closing in
// the fault window schedule normally but produce phantoms, phantoms
// cannot serve a restore, and the loss at a failure instant jumps to
// what the pre-fault RP supports.
func TestSilentFaultPhantoms(t *testing.T) {
	chain := baselineChain()
	// Split-mirror closes every 12h. Silence the captures at 36h and 48h.
	s, err := New(chain)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddSilentFault(SilentFault{Level: 1, From: 30 * time.Hour, To: 50 * time.Hour}); err != nil {
		t.Fatal(err)
	}
	if err := s.RunFrom(0, 10*units.Day); err != nil {
		t.Fatal(err)
	}
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
	clean, err := New(chain)
	if err != nil {
		t.Fatal(err)
	}
	if err := clean.RunFrom(0, 10*units.Day); err != nil {
		t.Fatal(err)
	}
	cl, _, ok := clean.Loss([]int{1}, 49*time.Hour, 0)
	if !ok || cl != time.Hour {
		t.Fatalf("clean loss = %v ok=%v, want 1h", cl, ok)
	}
}

// TestSilentFaultPropagates checks phantomness rides the copy chain: a
// backup taken from a phantom split is itself a phantom, even though the
// backup level had no fault of its own.
func TestSilentFaultPropagates(t *testing.T) {
	chain := baselineChain()
	s, err := New(chain)
	if err != nil {
		t.Fatal(err)
	}
	// Backups close weekly at phase 0 (level 2 cycle: window closes at
	// 168h, 336h, ...) and forward the newest split below. Silence the
	// splits feeding the second backup window.
	if err := s.AddSilentFault(SilentFault{Level: 1, From: 300 * time.Hour, To: 340 * time.Hour}); err != nil {
		t.Fatal(err)
	}
	if err := s.RunFrom(0, 10*units.Week); err != nil {
		t.Fatal(err)
	}
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
	chain := baselineChain()
	s, err := New(chain)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddSilentFault(SilentFault{Level: 1, From: 30 * time.Hour, To: 50 * time.Hour}); err != nil {
		t.Fatal(err)
	}
	if err := s.RunFrom(0, 10*units.Day); err != nil {
		t.Fatal(err)
	}
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
