// Command chaos runs randomized fault-injection campaigns against the
// dependability models: random designs, compound outage schedules in the
// simulator, and cross-model invariant checks, with seeded deterministic
// replay and minimal-counterexample repro files.
//
// Usage:
//
//	chaos -seed 1 -runs 100 -repro-dir out/
//	chaos -multi -seed 1 -runs 100 -repro-dir out/
//	chaos -multi -correlated -seed 1 -runs 100 -repro-dir out/
//	chaos -replay out/repro-seed1-run42.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"stordep/internal/chaos"
)

func main() {
	seed := flag.Int64("seed", 1, "campaign seed; identical seeds replay identical campaigns")
	runs := flag.Int("runs", 100, "number of randomized cases to generate and check")
	reproDir := flag.String("repro-dir", "", "directory for minimal-counterexample repro files")
	replay := flag.String("replay", "", "replay a repro JSON file (single or multi) instead of running a campaign")
	workers := flag.Int("workers", 0, "concurrent campaign runs (0 = all CPUs); any worker count replays the same digest")
	multi := flag.Bool("multi", false, "generate multi-object designs with recovery dependencies over a shared fleet")
	correlated := flag.Bool("correlated", false, "draw correlated failure events and operator faults (implies -multi)")
	flag.Parse()

	if err := run(os.Stdout, *seed, *runs, *reproDir, *replay, *workers, *multi, *correlated); err != nil {
		// Package errors already carry the "chaos:" prefix; flag errors
		// name their flag.
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// errViolations makes campaigns with violations exit nonzero after the
// summary has been printed.
var errViolations = errors.New("invariant violations found")

func run(w io.Writer, seed int64, runs int, reproDir, replay string, workers int, multi, correlated bool) error {
	if replay != "" {
		return replayFile(w, replay)
	}
	if runs <= 0 {
		return fmt.Errorf("-runs must be positive, got %d", runs)
	}
	if workers < 0 {
		return fmt.Errorf("-workers must be non-negative, got %d", workers)
	}
	c := &chaos.Campaign{Seed: seed, Runs: runs, ReproDir: reproDir, Workers: workers, Multi: multi, Correlated: correlated}
	sum, err := c.Run()
	if err != nil {
		return err
	}
	fmt.Fprint(w, sum.String())
	if len(sum.Violations) > 0 {
		return fmt.Errorf("%w: %d", errViolations, len(sum.Violations))
	}
	return nil
}

// replayFile decodes a repro file of either kind and re-runs its
// invariant battery.
func replayFile(w io.Writer, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("chaos: %w", err)
	}
	t, meta, err := chaos.DecodeRepro(data)
	if err != nil {
		return err
	}
	kind := ""
	if _, ok := t.(*chaos.MultiCase); ok {
		kind = "multi, "
	}
	fmt.Fprintf(w, "replaying %s (%sseed %d run %d, invariant %s)\n", path, kind, meta.Seed, meta.Run, meta.Invariant)
	violations, err := chaos.Replay(t)
	if err != nil {
		return err
	}
	if len(violations) == 0 {
		fmt.Fprintln(w, "no violations reproduced")
		return nil
	}
	for _, v := range violations {
		fmt.Fprintf(w, "  [%s] %s\n", v.Invariant, v.Detail)
	}
	return fmt.Errorf("%w: %d", errViolations, len(violations))
}
