package main

import (
	"strings"
	"testing"

	"stordep/internal/mc"
)

func TestRunSingleDesign(t *testing.T) {
	var buf strings.Builder
	if err := run(&buf, options{design: "Baseline", trials: 30, seed: 1}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"design Baseline: 30 trials, mission 1yr, seed 1",
		"availability",
		"durability",
		"perf-availability",
		"nines",
		"violations 0",
		"analytic worst case per imposed scenario:",
		"array",
		"site",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestRunDeterministic: identical flags give byte-identical output for
// any worker count — the CLI face of the determinism contract.
func TestRunDeterministic(t *testing.T) {
	var a, b strings.Builder
	if err := run(&a, options{design: "Baseline", trials: 25, seed: 9, workers: 1}); err != nil {
		t.Fatal(err)
	}
	if err := run(&b, options{design: "Baseline", trials: 25, seed: 9, workers: 8}); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("worker count changed the output:\n%s\nvs\n%s", a.String(), b.String())
	}
}

func TestRunAllDesigns(t *testing.T) {
	var buf strings.Builder
	if err := run(&buf, options{trials: 10, seed: 2, mission: "26wk"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Baseline", "mission 26wk"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "analytic worst case"); n < 4 {
		t.Errorf("expected the full case-study family, saw %d designs", n)
	}
}

// TestRunOpRates: the operator-fault flags reach the campaign and the
// report grows the op lines.
func TestRunOpRates(t *testing.T) {
	var buf strings.Builder
	o := options{design: "Baseline", trials: 30, seed: 9,
		op: mc.OpRates{WrongRecovery: 2, SilentNonWrite: 2, CommonOutage: 1}}
	if err := run(&buf, o); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"operator faults", "correlated outages", "availability-ex-op", "violations 0"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunErrors(t *testing.T) {
	var buf strings.Builder
	if err := run(&buf, options{design: "nope", trials: 10}); err == nil || !strings.Contains(err.Error(), "unknown design") {
		t.Errorf("unknown design: %v", err)
	}
	for _, mission := range []string{"zzz", "-26wk", "0h"} {
		if err := run(&buf, options{trials: 10, mission: mission}); err == nil || !strings.Contains(err.Error(), "-mission") {
			t.Errorf("mission %q: %v", mission, err)
		}
	}
	if err := run(&buf, options{design: "Baseline", trials: 0}); err == nil {
		t.Error("zero trials accepted")
	}
}
