// Package chaos is a randomized fault-injection campaign engine for the
// dependability framework. Each campaign run draws a random-but-valid
// design (a random protection hierarchy over a random workload and
// device fleet), injects a compound failure schedule into the simulator
// (overlapping per-level outages, transfers aborted mid-propagation),
// and cross-checks the analytic model against the simulator on a battery
// of invariants: simulated loss never exceeds the analytic worst case,
// analytic loss is monotone in recovery-target age, restore volumes and
// times are sane, degraded mode never beats normal mode, and cost
// components sum to reported totals.
//
// A single seed drives every random choice, so campaigns replay
// deterministically. On a violation, the engine shrinks the case to a
// minimal counterexample (dropping outages, truncating the hierarchy,
// shortening the horizon, simplifying policies) and writes a repro JSON
// file that round-trips through internal/config.
package chaos

import (
	"fmt"
	"hash/fnv"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"stordep/internal/core"
	"stordep/internal/failure"
	"stordep/internal/parallel"
	"stordep/internal/sim"
)

// Case is one chaos trial: a generated design plus the fault schedule
// injected into its simulation and the failure scenario assessed against
// the analytic model.
type Case struct {
	// Design is the complete generated storage system design.
	Design *core.Design
	// Scenario is the hardware-failure scenario assessed analytically.
	Scenario failure.Scenario
	// Horizon is how long the simulation runs.
	Horizon time.Duration
	// Outages is the compound fault schedule injected into the simulator.
	// Entries may overlap in time and repeat levels.
	Outages []sim.Outage
}

// Trial is a chaos case of either kind, a *Case or a *MultiCase. Its
// methods are unexported, so only this package implements it. The
// campaign checks, shrinks, saves and replays both kinds through it;
// each kind supplies only what differs between them.
type Trial interface {
	// check runs the kind's invariant battery.
	check() (*runResult, error)
	// mutations returns the candidate simplifications, coarsest first;
	// the order decides which minimal case a shrink returns.
	mutations() []Trial
	// viable reports whether a mutated case is still well-formed.
	viable() bool
}

// Violation records one failed invariant check.
type Violation struct {
	// Run is the campaign run index the violation surfaced in.
	Run int
	// Invariant names the failed check (see invariants.go).
	Invariant string
	// Detail is a human-readable account of the failing comparison.
	Detail string
	// ReproPath is the minimal-counterexample JSON written for the
	// violation (empty when no repro directory was configured).
	ReproPath string
}

const (
	// maxShrinkSteps bounds the shrinker's candidate evaluations per
	// violation.
	maxShrinkSteps = 64
	// designAttempts bounds rejection sampling per run when generated
	// designs fail to build.
	designAttempts = 40
)

// Campaign configures a chaos run.
type Campaign struct {
	// Seed drives every random choice. The same seed and run count
	// reproduce the identical summary.
	Seed int64
	// Runs is how many cases to generate and check.
	Runs int
	// ReproDir, when non-empty, receives one minimal-counterexample JSON
	// file per violating run.
	ReproDir string
	// Workers bounds how many runs execute concurrently; anything < 1
	// means runtime.NumCPU(). Each run draws from its own SplitMix64
	// stream and results are merged in run order, so the Summary —
	// including its Digest — is identical for every worker count.
	Workers int
	// Multi switches the campaign to multi-object cases: shared-fleet
	// MultiDesigns with dependency DAGs, per-object fault schedules, the
	// per-object battery plus the service-level invariants, and
	// multi-design repro files.
	Multi bool
	// Correlated (implies Multi) additionally draws correlated failure
	// events — shared-device, region-scope, common-trigger corruption —
	// and operator faults, and runs the correlation-consistency and
	// detection-coverage invariants.
	Correlated bool
}

// Summary aggregates a campaign's results.
type Summary struct {
	Seed int64
	Runs int
	// Resamples counts generated designs rejected before checking
	// (device over-utilization, horizon cap).
	Resamples int
	// Checks counts executed comparisons per invariant name.
	Checks map[string]int
	// SkippedBounds counts loss-bound comparisons skipped because the
	// analytic model declined to bound the configuration.
	SkippedBounds int
	// Violations lists every failed check, in run order.
	Violations []Violation
	// OpDetected and OpEscapes count operator faults whose effect
	// surfaced through the detection-coverage machinery vs faults that
	// stayed inside the worst-case envelope (model-soundness escapes,
	// flagged but not violations). Zero outside correlated campaigns.
	OpDetected int
	OpEscapes  int
	// Digest fingerprints the whole campaign (designs, schedules and
	// per-run observations); identical seeds must reproduce it exactly.
	Digest uint64
}

// String renders the summary in a fixed, seed-deterministic format.
func (s *Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos campaign: seed %d, %d runs\n", s.Seed, s.Runs)
	fmt.Fprintf(&b, "  design resamples:  %d\n", s.Resamples)
	names := make([]string, 0, len(s.Checks))
	for name := range s.Checks {
		names = append(names, name)
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, name := range names {
		parts = append(parts, fmt.Sprintf("%s=%d", name, s.Checks[name]))
	}
	fmt.Fprintf(&b, "  invariant checks:  %s\n", strings.Join(parts, " "))
	fmt.Fprintf(&b, "  bounds skipped:    %d\n", s.SkippedBounds)
	if s.OpDetected+s.OpEscapes > 0 {
		fmt.Fprintf(&b, "  op faults:         %d detected, %d escapes\n", s.OpDetected, s.OpEscapes)
	}
	fmt.Fprintf(&b, "  violations:        %d\n", len(s.Violations))
	for _, v := range s.Violations {
		fmt.Fprintf(&b, "    run %d [%s]: %s", v.Run, v.Invariant, v.Detail)
		if v.ReproPath != "" {
			fmt.Fprintf(&b, " (repro: %s)", filepath.Base(v.ReproPath))
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "  case digest:       %#016x\n", s.Digest)
	return b.String()
}

// Run executes the campaign.
func (c *Campaign) Run() (*Summary, error) {
	if c.Runs <= 0 {
		return nil, fmt.Errorf("chaos: runs must be positive, got %d", c.Runs)
	}
	sum := &Summary{
		Seed:   c.Seed,
		Runs:   c.Runs,
		Checks: make(map[string]int),
	}

	// Each run is independent: its RNG stream is derived from (seed, run)
	// alone, so runs can generate and check concurrently. All aggregation
	// — check counts, the FNV digest, violation shrinking and repro
	// writing — happens in the serial merge below, in run order, keeping
	// the Summary byte-identical to a serial campaign.
	type runOutcome struct {
		trial     Trial
		res       *runResult
		resamples int
	}
	outcomes, err := parallel.Map(c.Workers, c.Runs, func(run int) (runOutcome, error) {
		var (
			t         Trial
			name      string
			resamples int
		)
		if c.Multi || c.Correlated {
			mcs, n := genMultiCase(runRNG(c.Seed, run), run, c.Correlated)
			t, name, resamples = mcs, mcs.Design.Name, n
		} else {
			cs, n := genCase(runRNG(c.Seed, run), run)
			t, name, resamples = cs, cs.Design.Name, n
		}
		res, err := t.check()
		if err != nil {
			return runOutcome{}, fmt.Errorf("chaos: run %d (%s): %w", run, name, err)
		}
		return runOutcome{trial: t, res: res, resamples: resamples}, nil
	})
	if err != nil {
		return nil, err
	}

	digest := fnv.New64a()
	for run, out := range outcomes {
		res := out.res
		sum.Resamples += out.resamples
		for name, n := range res.counts {
			sum.Checks[name] += n
		}
		sum.SkippedBounds += res.skipped
		sum.OpDetected += res.opDetected
		sum.OpEscapes += res.opEscapes
		fmt.Fprintf(digest, "run %d %s\n", run, res.digest)
		if len(res.violations) == 0 {
			continue
		}
		reproPath := ""
		if c.ReproDir != "" {
			meta := ReproMeta{
				Invariant: res.violations[0].Invariant,
				Detail:    res.violations[0].Detail,
				Seed:      c.Seed,
				Run:       run,
			}
			reproPath = filepath.Join(c.ReproDir, fmt.Sprintf("repro-seed%d-run%d.json", c.Seed, run))
			shrunk := shrinkInvariant(out.trial, meta.Invariant, maxShrinkSteps)
			if err := SaveRepro(reproPath, shrunk, meta); err != nil {
				return nil, fmt.Errorf("chaos: run %d: writing repro: %w", run, err)
			}
		}
		for i, v := range res.violations {
			v.Run = run
			if i == 0 {
				v.ReproPath = reproPath
			}
			sum.Violations = append(sum.Violations, v)
		}
	}
	sum.Digest = digest.Sum64()
	return sum, nil
}
