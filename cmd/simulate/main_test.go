package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stordep/internal/casestudy"
	"stordep/internal/config"
	"stordep/internal/protect"
	"stordep/internal/sim"
)

func writeBaseline(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := config.Save(path, casestudy.Baseline()); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunArrayScope(t *testing.T) {
	var buf strings.Builder
	if err := run(&buf, writeBaseline(t), "array", "0h", 30, "2h", "", false); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"analytic worst-case loss: 217.0 hr",
		"simulated max loss:",
		"VERDICT: bound holds and is tight",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunObjectScope(t *testing.T) {
	var buf strings.Builder
	if err := run(&buf, writeBaseline(t), "object", "24h", 20, "1h", "", false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "analytic worst-case loss: 12.0 hr") {
		t.Errorf("output:\n%s", buf.String())
	}
}

func TestRunWithOutage(t *testing.T) {
	var buf strings.Builder
	if err := run(&buf, writeBaseline(t), "array", "0h", 30, "2h", "backup=1wk", false); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "analytic worst-case loss: 385.0 hr") {
		t.Errorf("degraded bound missing:\n%s", out)
	}
	if strings.Contains(out, "BOUND VIOLATED") {
		t.Errorf("degraded bound violated:\n%s", out)
	}
}

func TestRunWithCompoundOutage(t *testing.T) {
	var buf strings.Builder
	if err := run(&buf, writeBaseline(t), "array", "0h", 30, "2h", "split-mirror=12h,backup=1wk", false); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "analytic worst-case loss: 397.0 hr") {
		t.Errorf("compound degraded bound missing:\n%s", out)
	}
	if strings.Contains(out, "BOUND VIOLATED") {
		t.Errorf("compound degraded bound violated:\n%s", out)
	}
}

func TestRunRejectsBadHorizonAndStep(t *testing.T) {
	path := writeBaseline(t)
	for _, tc := range []struct {
		weeks int
		step  string
		want  string
	}{
		{0, "1h", "-weeks must be positive"},
		{-3, "1h", "-weeks must be positive"},
		{10, "0h", "-step must be positive"},
		{10, "-1h", "-step must be positive"},
	} {
		var buf strings.Builder
		err := run(&buf, path, "array", "0h", tc.weeks, tc.step, "", false)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("weeks=%d step=%q: got error %v, want %q", tc.weeks, tc.step, err, tc.want)
		}
	}
}

func TestRunNoSurvivors(t *testing.T) {
	d := casestudy.Baseline()
	d.Levels = d.Levels[:2] // drop the vault: nothing survives a site loss
	path := filepath.Join(t.TempDir(), "d.json")
	if err := config.Save(path, d); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := run(&buf, path, "site", "0h", 10, "1h", "", false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "the object is lost") {
		t.Errorf("output:\n%s", buf.String())
	}
}

// TestRunRejectsCountOnlyRetention: a vault retained by count alone
// ("retW": "0s") loads and assesses, but the simulator would expire every
// RP on arrival, so the command must refuse it by name.
func TestRunRejectsCountOnlyRetention(t *testing.T) {
	d := casestudy.Baseline()
	d.Levels[2].(*protect.Vaulting).Pol.RetW = 0
	path := filepath.Join(t.TempDir(), "d.json")
	if err := config.Save(path, d); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := run(&buf, path, "site", "0h", 10, "1h", "", false); !errors.Is(err, sim.ErrCountOnlyRetention) {
		t.Errorf("count-only retention: got %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	var buf strings.Builder
	if err := run(&buf, "", "array", "0h", 10, "1h", "", false); err == nil {
		t.Error("missing design accepted")
	}
	if err := run(&buf, filepath.Join(t.TempDir(), "nope.json"), "array", "0h", 10, "1h", "", false); err == nil {
		t.Error("absent file accepted")
	}
	path := writeBaseline(t)
	if err := run(&buf, path, "alien", "0h", 10, "1h", "", false); err == nil {
		t.Error("bad scope accepted")
	}
	if err := run(&buf, path, "array", "zzz", 10, "1h", "", false); err == nil {
		t.Error("bad target accepted")
	}
	if err := run(&buf, path, "array", "0h", 10, "zzz", "", false); err == nil {
		t.Error("bad step accepted")
	}
	if err := run(&buf, path, "array", "0h", 10, "1h", "nolevel", false); err == nil {
		t.Error("bad outage syntax accepted")
	}
	if err := run(&buf, path, "array", "0h", 10, "1h", "ghost=1wk", false); err == nil {
		t.Error("unknown outage level accepted")
	}
	if err := run(&buf, path, "array", "0h", 10, "1h", "backup=zzz", false); err == nil {
		t.Error("bad outage duration accepted")
	}
	if err := run(&buf, path, "array", "0h", 10, "1h", "backup=1wk,ghost=2d", false); err == nil {
		t.Error("unknown level in outage list accepted")
	}
	if err := run(&buf, path, "array", "0h", 10, "1h", "backup=1wk,vaulting", false); err == nil {
		t.Error("malformed pair in outage list accepted")
	}
	if err := run(&buf, path, "array", "0h", 10, "1h", "backup=0h", false); err == nil {
		t.Error("zero outage duration accepted")
	}
	// Corrupt design file.
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(&buf, bad, "array", "0h", 10, "1h", "", false); err == nil {
		t.Error("corrupt design accepted")
	}
}

func TestRunRTStudy(t *testing.T) {
	var buf strings.Builder
	if err := run(&buf, writeBaseline(t), "array", "0h", 25, "2h", "", true); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Restore volumes at", "mean restore", "worst restore"} {
		if !strings.Contains(out, want) {
			t.Errorf("rt study missing %q:\n%s", want, out)
		}
	}
}
