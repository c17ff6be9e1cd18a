package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunWorstObjective(t *testing.T) {
	var buf strings.Builder
	if err := run(&buf, options{objective: "worst"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"minimize worst-scenario total cost",
		"vaulting policy              -> weekly",
		"backup policy                -> daily full",
		"virtual-snapshot",
		"$12.89M",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunExpectedObjective(t *testing.T) {
	var buf strings.Builder
	if err := run(&buf, options{objective: "expected"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "expected annual cost") {
		t.Errorf("output:\n%s", buf.String())
	}
}

func TestRunLinkTuning(t *testing.T) {
	var buf strings.Builder
	if err := run(&buf, options{objective: "worst", links: true}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "wan-links count") {
		t.Errorf("output:\n%s", buf.String())
	}
}

func TestRunConstrained(t *testing.T) {
	var buf strings.Builder
	if err := run(&buf, options{objective: "worst", links: true, rto: "12h", rpo: "1h"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "8 links") {
		t.Errorf("output:\n%s", buf.String())
	}
}

// TestRunExhaustive: streaming enumeration lands on the same Table 7
// optimum as coordinate descent and reports the winner's global
// candidate index.
func TestRunExhaustive(t *testing.T) {
	var buf strings.Builder
	if err := run(&buf, options{objective: "worst", exhaustive: true}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Exhaustively searching",
		"vaulting policy              -> weekly",
		"backup policy                -> daily full",
		"virtual-snapshot",
		"$12.89M",
		"candidate #",
		"12 evaluations",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestRunSharded: -shard implies exhaustive search, restricts the space,
// and prints the merge rule for combining shard winners.
func TestRunSharded(t *testing.T) {
	var buf strings.Builder
	if err := run(&buf, options{objective: "worst", shard: "0/2"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Shard 0/2", "lowest candidate index", "6 evaluations"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Both halves exist; the global optimum lives in exactly one of them
	// and carries a global (not shard-local) candidate index.
	var other strings.Builder
	if err := run(&other, options{objective: "worst", shard: "1/2"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(other.String(), "6 evaluations") {
		t.Errorf("second shard output:\n%s", other.String())
	}
}

// TestRunBudget: -budget refuses spaces larger than the cap.
func TestRunBudget(t *testing.T) {
	var buf strings.Builder
	err := run(&buf, options{objective: "worst", exhaustive: true, budget: 4})
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Errorf("budget 4 on a 12-candidate space: err = %v", err)
	}
	if err := run(&buf, options{objective: "worst", exhaustive: true, budget: 12}); err != nil {
		t.Errorf("budget 12 on a 12-candidate space: %v", err)
	}
}

// TestRunProfiles: -cpuprofile and -memprofile produce non-empty pprof
// files.
func TestRunProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var buf strings.Builder
	if err := run(&buf, options{objective: "worst", exhaustive: true, cpuProfile: cpu, memProfile: mem}); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if st.Size() == 0 {
			t.Errorf("%s is empty", p)
		}
	}
}

func TestRunErrors(t *testing.T) {
	var buf strings.Builder
	if err := run(&buf, options{objective: "alien"}); err == nil {
		t.Error("unknown objective accepted")
	}
	if err := run(&buf, options{objective: "worst", rto: "zzz"}); err == nil || !strings.Contains(err.Error(), "-rto") {
		t.Errorf("bad rto: err = %v", err)
	}
	if err := run(&buf, options{objective: "worst", rpo: "zzz"}); err == nil || !strings.Contains(err.Error(), "-rpo") {
		t.Errorf("bad rpo: err = %v", err)
	}
	// Infeasible constraints surface opt.ErrNoFeasible.
	if err := run(&buf, options{objective: "worst", links: true, rto: "1m", rpo: "1m"}); err == nil {
		t.Error("infeasible constraints accepted")
	}
	if err := run(&buf, options{objective: "worst", workers: -1}); err == nil || !strings.Contains(err.Error(), "-workers") {
		t.Errorf("negative workers: err = %v", err)
	}
	if err := run(&buf, options{objective: "expected", trials: -5}); err == nil || !strings.Contains(err.Error(), "-trials") {
		t.Errorf("negative trials: err = %v", err)
	}
	if err := run(&buf, options{objective: "worst", exhaustive: true, budget: -1}); err == nil || !strings.Contains(err.Error(), "-budget") {
		t.Errorf("negative budget: err = %v", err)
	}
	for _, bad := range []string{"1", "a/b", "1/", "/2", "2/1x"} {
		if err := run(&buf, options{objective: "worst", shard: bad}); err == nil || !strings.Contains(err.Error(), "-shard") {
			t.Errorf("shard %q: err = %v", bad, err)
		}
	}
	// Out-of-range shards are rejected by the optimizer.
	if err := run(&buf, options{objective: "worst", shard: "2/2"}); err == nil {
		t.Error("out-of-range shard accepted")
	}
}

// TestRunWorkerCountsAgree: the CLI prints the identical report for any
// worker count, for both search strategies.
func TestRunWorkerCountsAgree(t *testing.T) {
	for _, exhaustive := range []bool{false, true} {
		var serial, par strings.Builder
		if err := run(&serial, options{objective: "worst", exhaustive: exhaustive, workers: 1}); err != nil {
			t.Fatal(err)
		}
		if err := run(&par, options{objective: "worst", exhaustive: exhaustive, workers: 8}); err != nil {
			t.Fatal(err)
		}
		if serial.String() != par.String() {
			t.Errorf("exhaustive=%v: worker counts disagree:\n%s\n---\n%s",
				exhaustive, serial.String(), par.String())
		}
	}
}

// TestRunPareto: -pareto prints the identical surface for any worker
// count — the 4 non-dominated designs of the default 12-candidate space
// — and, since the sweep assesses every candidate, refuses -prune.
func TestRunPareto(t *testing.T) {
	var serial, par strings.Builder
	if err := run(&serial, options{objective: "worst", pareto: true, workers: 1}); err != nil {
		t.Fatal(err)
	}
	if err := run(&par, options{objective: "worst", pareto: true, workers: 8}); err != nil {
		t.Fatal(err)
	}
	if serial.String() != par.String() {
		t.Errorf("worker counts disagree:\n%s\n---\n%s", serial.String(), par.String())
	}
	out := serial.String()
	if !strings.Contains(out, "4 non-dominated designs (12 candidates assessed)\n") {
		t.Errorf("missing surface header:\n%s", out)
	}
	if n := strings.Count(out, "candidate #"); n != 4 {
		t.Errorf("%d designs listed, want 4:\n%s", n, out)
	}
	var buf strings.Builder
	err := run(&buf, options{objective: "worst", pareto: true, prune: true})
	if err == nil || !strings.Contains(err.Error(), "-pareto") || !strings.Contains(err.Error(), "-prune") {
		t.Errorf("-pareto -prune: err = %v, want an error naming both flags", err)
	}
}

// TestRunMCTrials: -trials swaps the analytic expected objective for
// the Monte Carlo one; the run reports the winner's nines table and is
// deterministic (seeded, worker-count-independent).
func TestRunMCTrials(t *testing.T) {
	var a, b strings.Builder
	opts := options{objective: "expected", trials: 15, seed: 7, workers: 1}
	if err := run(&a, opts); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"Monte Carlo expected annual cost (15 trials per candidate, seed 7)",
		"expected annual cost",
		"availability",
		"nines",
	} {
		if !strings.Contains(a.String(), want) {
			t.Errorf("output missing %q:\n%s", want, a.String())
		}
	}
	opts.workers = 4
	if err := run(&b, opts); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("-trials output depends on worker count:\n%s\nvs\n%s", a.String(), b.String())
	}
}

func TestRunMCTrialsErrors(t *testing.T) {
	var buf strings.Builder
	if err := run(&buf, options{objective: "worst", trials: 10}); err == nil || !strings.Contains(err.Error(), "-objective expected") {
		t.Errorf("-trials with worst objective: %v", err)
	}
	if err := run(&buf, options{objective: "expected", trials: 10, rto: "12h"}); err == nil || !strings.Contains(err.Error(), "-objective expected") {
		t.Errorf("-trials with -rto: %v", err)
	}
	if err := run(&buf, options{objective: "expected", trials: 10, exhaustive: true}); err == nil || !strings.Contains(err.Error(), "coordinate descent") {
		t.Errorf("-trials with -exhaustive: %v", err)
	}
	if err := run(&buf, options{objective: "expected", trials: 10, coordinator: "http://x"}); err == nil || !strings.Contains(err.Error(), "coordinate descent") {
		t.Errorf("-trials with -coordinator: %v", err)
	}
}
