// Command optimize runs the automated-design loop on the paper's case
// study: coordinate descent over the Table 7 design moves (vaulting
// cadence, backup policy, PiT technique) and, for mirrored designs, the
// WAN link count.
//
// Usage:
//
//	optimize                      # tune the tape-based baseline
//	optimize -objective expected  # minimize frequency-weighted expected cost
//	optimize -objective expected -trials 1000  # Monte Carlo expected cost
//	optimize -links               # tune the asyncB mirror's link count
//	optimize -rto 12h -rpo 1h     # cheapest design meeting objectives
//	optimize -exhaustive          # streaming full enumeration (no space cap)
//	optimize -exhaustive -prune   # bound-guided enumeration (same answer)
//	optimize -pareto              # full RT/DL/cost non-dominated surface
//	optimize -shard 1/4           # run one shard of a sharded enumeration
//	optimize -shard 1/4 -out s1.json   # save the shard's result for -merge
//	optimize -merge s0.json s1.json s2.json s3.json
//	optimize -coordinator http://host1:7700,http://host2:7700
//	optimize -coordinator ... -out all.json   # save the merged result
//	optimize -coordinator ... -auth-token s3cret -validate 2
//	optimize -cpuprofile opt.pprof
//
// Exhaustive enumeration streams: candidates are decoded from their
// global index on the fly, so memory stays O(workers) however large the
// knob product is. -prune turns on branch-and-bound subtree pruning
// (internal/opt/bound.go): admissible lower bounds from the compiled
// group tables retire whole index ranges whose bound exceeds the best
// score achieved so far. The bounds need those tables, so a slice of 16
// or fewer candidates, which is never compiled, runs unpruned. The
// printed solution is byte-identical to the unpruned run — only the
// assessed/pruned split changes, reported on a "Pruned:" line. -pareto
// sweeps the same space but returns the full recovery-time/data-loss/
// outlay non-dominated surface instead of one argmin (opt.Frontier); it
// runs locally only, assesses every candidate (so it takes no -prune)
// and ignores -objective, since the frontier is what a decision-maker
// picks from before committing to a single objective. -budget caps the
// space size (0 = unbounded); -shard k/m (0-based) evaluates only the
// k-th of m contiguous slices, so a big space can be split across
// processes or hosts — each shard prints its winner's global candidate
// index, and the overall optimum is the lowest score across shards with
// ties to the lowest candidate index (opt.MergeShards applies the same
// rule programmatically).
//
// Sharded runs compose offline or online, and every enumeration ends in
// one wire Result (internal/dist schema) that is printed, and written
// by -out, in one place: a local run's, from the same Job a cmd/worker
// runs (dist.ExecuteJob); a -coordinator run's; or -merge's, which
// folds the shard result files through dist.Merge into exactly the
// Solution the unsharded search prints — every shard of one
// partitioning must be present, duplicates are deduped. A -coordinator
// or -merge result written with -out merges again as one whole-space
// shard. Online, -coordinator distributes the same enumeration across
// running cmd/worker processes: the space splits into more shards than
// workers, failed or straggling shards are re-dispatched (see
// -attempt-timeout, -speculate-after), and the merged answer is
// byte-identical to the single-process -exhaustive run for any worker
// count or failure pattern. Workers are health-probed during the run
// (-probe-interval) and evicted into quarantine when they stop
// answering; -auth-token HMAC-signs every job and verifies every
// result; -validate K sends each shard to K distinct workers and
// accepts only a matching majority, quarantining any worker whose
// answer disagrees — a lying worker cannot poison the merge while an
// honest majority remains. -dist-metrics dumps the coordinator's
// Prometheus-style counters to stderr afterwards.
//
// -trials N swaps the analytic expected-cost objective for a Monte
// Carlo one: every candidate is scored by expected annual cost (outlay
// plus expected annualized penalties) estimated from N seeded trials
// (internal/mc). All candidates share one seed — common random numbers —
// so they are compared on identical sampled fault schedules and the
// sampling noise cancels out of the comparison. It composes only with
// -objective expected and local coordinate descent.
//
// -cpuprofile and -memprofile write pprof profiles; the CPU profile is
// labeled with phase=build|assess|reduce|compile|batch|prune on the
// exhaustive search's inner loop (see opt.PhaseProfiling), so
// `go tool pprof -tagfocus phase=batch` isolates the compiled batch
// kernel from compilation, pruning and slow-row construction.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"stordep/internal/casestudy"
	"stordep/internal/core"
	"stordep/internal/dist"
	"stordep/internal/failure"
	"stordep/internal/hierarchy"
	"stordep/internal/mc"
	"stordep/internal/opt"
	"stordep/internal/whatif"
)

// scenarios are the failures every search scores and every printed
// solution reports.
var scenarios = []failure.Scenario{
	{Scope: failure.ScopeArray},
	{Scope: failure.ScopeSite},
}

// options carries the parsed command line.
type options struct {
	objective      string
	links          bool
	rto, rpo       string
	trials         int
	seed           int64
	workers        int
	exhaustive     bool
	prune          bool
	pareto         bool
	shard          string
	budget         int
	out            string
	merge          bool
	coordinator    string
	shards         int
	attemptTimeout time.Duration
	speculateAfter time.Duration
	authToken      string
	validateK      int
	probeInterval  time.Duration
	chaosLiars     int
	distMetrics    bool
	cpuProfile     string
	memProfile     string
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("optimize: ")

	var o options
	flag.StringVar(&o.objective, "objective", "worst", "worst | expected")
	flag.BoolVar(&o.links, "links", false, "tune the asyncB mirror link count instead of the tape design")
	flag.StringVar(&o.rto, "rto", "", "constrain to designs meeting this recovery time objective")
	flag.StringVar(&o.rpo, "rpo", "", "constrain to designs meeting this recovery point objective")
	flag.IntVar(&o.trials, "trials", 0, "score candidates by Monte Carlo expected cost over this many seeded trials (requires -objective expected; 0 = analytic)")
	flag.Int64Var(&o.seed, "seed", 1, "campaign seed for -trials; all candidates share it (common random numbers)")
	flag.IntVar(&o.workers, "workers", 0, "concurrent candidate evaluations (0 = all CPUs); any worker count returns the same solution")
	flag.BoolVar(&o.exhaustive, "exhaustive", false, "enumerate every knob combination (streaming; no space cap) instead of coordinate descent")
	flag.BoolVar(&o.prune, "prune", false, "bound-guided subtree pruning for -exhaustive; identical answer, fewer candidates assessed")
	flag.BoolVar(&o.pareto, "pareto", false, "sweep the space for the full RT/DL/cost non-dominated surface instead of a single optimum")
	flag.StringVar(&o.shard, "shard", "", "evaluate one slice k/m (0-based) of the exhaustive space; implies -exhaustive")
	flag.IntVar(&o.budget, "budget", 0, "refuse exhaustive spaces larger than this many combinations (0 = unbounded)")
	flag.StringVar(&o.out, "out", "", "write the enumeration's result (wire JSON) to this file, for -merge; works with -exhaustive, -shard, -coordinator and -merge")
	flag.BoolVar(&o.merge, "merge", false, "merge shard result files (the non-flag arguments) instead of searching")
	flag.StringVar(&o.coordinator, "coordinator", "", "comma-separated worker URLs; distribute the exhaustive search across them")
	flag.IntVar(&o.shards, "shards", 0, "shard count for -coordinator (0 = 4 per worker)")
	flag.DurationVar(&o.attemptTimeout, "attempt-timeout", 2*time.Minute, "per-shard dispatch timeout for -coordinator (0 = none)")
	flag.DurationVar(&o.speculateAfter, "speculate-after", 30*time.Second, "re-dispatch a straggling shard after this long (0 = never)")
	flag.StringVar(&o.authToken, "auth-token", "", "shared secret for -coordinator; jobs are HMAC-signed and worker results verified")
	flag.IntVar(&o.validateK, "validate", 1, "dispatch each shard to K distinct workers and require a matching majority (byzantine cross-validation; 1 = off)")
	flag.DurationVar(&o.probeInterval, "probe-interval", 5*time.Second, "health-probe cadence for -coordinator worker eviction (0 = no probing)")
	flag.IntVar(&o.chaosLiars, "chaos-liars", 0, "testing: wrap the first N workers in always-lying fault injectors (exercises -validate)")
	flag.BoolVar(&o.distMetrics, "dist-metrics", false, "dump coordinator metrics (Prometheus text format) to stderr")
	flag.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile (with phase=build|assess|reduce|compile|batch|prune labels) to this file")
	flag.StringVar(&o.memProfile, "memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	var err error
	if o.merge {
		if o.pareto {
			err = fmt.Errorf("-pareto runs a local sweep; drop -merge")
		} else {
			err = runMerge(os.Stdout, o, flag.Args())
		}
	} else {
		err = run(os.Stdout, o)
	}
	if err != nil {
		log.Fatal(err)
	}
}

// parseShard parses "k/m" into an opt.Shard; "" means unsharded.
func parseShard(s string) (opt.Shard, error) {
	if s == "" {
		return opt.Shard{}, nil
	}
	ks, ms, ok := strings.Cut(s, "/")
	if !ok {
		return opt.Shard{}, fmt.Errorf("bad -shard %q: want k/m (0-based index / shard count)", s)
	}
	k, errK := strconv.Atoi(ks)
	m, errM := strconv.Atoi(ms)
	if errK != nil || errM != nil {
		return opt.Shard{}, fmt.Errorf("bad -shard %q: want k/m (0-based index / shard count)", s)
	}
	return opt.Shard{Index: k, Count: m}, nil
}

func run(w io.Writer, o options) error {
	if o.workers < 0 {
		return fmt.Errorf("-workers must be non-negative, got %d", o.workers)
	}
	if o.trials < 0 {
		return fmt.Errorf("-trials must be non-negative, got %d", o.trials)
	}
	if o.budget < 0 {
		return fmt.Errorf("-budget must be non-negative, got %d", o.budget)
	}
	shard, err := parseShard(o.shard)
	if err != nil {
		return err
	}

	if o.cpuProfile != "" {
		f, err := os.Create(o.cpuProfile)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		opt.PhaseProfiling(true)
		defer func() {
			pprof.StopCPUProfile()
			opt.PhaseProfiling(false)
			f.Close()
		}()
	}

	objective, objLabel, err := buildObjective(o)
	if err != nil {
		return err
	}

	// Knob definitions are wire specs first (internal/dist), then built
	// into closures: the local search, the -out shard files and the
	// coordinator's workers all enumerate the exact same space.
	base := casestudy.Baseline()
	specs, err := tapeKnobSpecs()
	if err != nil {
		return err
	}
	if o.links {
		base = casestudy.AsyncBMirror(1)
		specs = []dist.KnobSpec{dist.LinkCountKnobSpec("wan-links", []int{1, 2, 3, 4, 6, 8, 12, 16})}
	}
	knobs, err := dist.BuildKnobs(specs)
	if err != nil {
		return err
	}

	if o.trials > 0 {
		if o.objective != "expected" || o.rto != "" || o.rpo != "" {
			return fmt.Errorf("-trials scores candidates by Monte Carlo expected cost; it requires -objective expected and no -rto/-rpo")
		}
		if o.exhaustive || o.shard != "" || o.coordinator != "" || o.pareto || o.prune || o.out != "" {
			return fmt.Errorf("-trials runs local coordinate descent; drop -exhaustive/-shard/-coordinator/-pareto/-prune/-out")
		}
		return runMC(w, o, base, knobs)
	}

	if o.pareto {
		if o.coordinator != "" {
			return fmt.Errorf("-pareto runs a local sweep; drop -coordinator")
		}
		if o.out != "" {
			return fmt.Errorf("-out writes scalar shard results; it has no frontier form, drop it with -pareto")
		}
		if o.prune {
			return fmt.Errorf("-pareto assesses every candidate; drop -prune")
		}
		return runPareto(w, o, base, knobs, shard)
	}
	if o.prune && !o.exhaustive && o.shard == "" && o.coordinator == "" {
		return fmt.Errorf("-prune needs an enumeration; add -exhaustive, -shard or -coordinator")
	}

	if o.coordinator != "" {
		return runCoordinator(w, o, base, specs, objLabel)
	}

	if o.exhaustive || o.shard != "" {
		fmt.Fprintf(w, "Exhaustively searching %q over %d knobs, objective: %s\n", base.Name, len(knobs), objLabel)
		if o.shard != "" {
			fmt.Fprintf(w, "Shard %s: merge shard winners by lowest score, ties to lowest candidate index (opt.MergeShards)\n", o.shard)
		}
		fmt.Fprintln(w)
		err = runShard(w, o, base, specs, shard)
	} else {
		fmt.Fprintf(w, "Tuning %q over %d knobs, objective: %s\n\n", base.Name, len(knobs), objLabel)
		var sol *opt.Solution
		if sol, err = opt.TuneWorkers(base, knobs, scenarios, objective, o.workers); err == nil {
			err = printSolution(w, sol)
		}
		if err == nil && o.out != "" {
			err = fmt.Errorf("-out needs an exhaustive or sharded run (coordinate descent has no candidate index); add -exhaustive or -shard")
		}
	}
	if err != nil {
		return err
	}

	if o.memProfile != "" {
		f, err := os.Create(o.memProfile)
		if err != nil {
			return fmt.Errorf("-memprofile: %w", err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return fmt.Errorf("-memprofile: %w", err)
		}
	}
	return nil
}

// runMC tunes by Monte Carlo expected cost: coordinate descent where
// every candidate is scored by a seeded campaign sharing one trial
// budget (common random numbers — see mc.(*Campaign).Scorer), then the
// winner's full dependability report is printed so the nines and
// confidence intervals behind the score are visible.
func runMC(w io.Writer, o options, base *core.Design, knobs []opt.Knob) error {
	camp := &mc.Campaign{Seed: o.seed, Trials: o.trials, Workers: o.workers}
	fmt.Fprintf(w, "Tuning %q over %d knobs, objective: minimize Monte Carlo expected annual cost (%d trials per candidate, seed %d)\n\n",
		base.Name, len(knobs), o.trials, o.seed)
	sol, err := opt.TuneScored(base, knobs, camp.Scorer())
	if err != nil {
		return err
	}
	for _, c := range sol.Choices {
		fmt.Fprintf(w, "  %-28s -> %s\n", c.Knob, c.Option)
	}
	fmt.Fprintf(w, "\nScore: %v expected annual cost (%d campaigns, %d memo hits, %d passes)\n\n",
		sol.Score, sol.Evaluations, sol.MemoHits, sol.Passes)
	final := *camp
	final.Design = sol.Design
	rep, err := final.Run()
	if err != nil {
		return err
	}
	fmt.Fprint(w, rep.String())
	return nil
}

// runPareto sweeps the knob space for the full non-dominated surface
// and prints it cheapest-first. The surface is byte-identical for every
// -workers value.
func runPareto(w io.Writer, o options, base *core.Design, knobs []opt.Knob, shard opt.Shard) error {
	fmt.Fprintf(w, "Pareto sweep of %q over %d knobs: worst-case RT / worst-case DL / annual outlays\n", base.Name, len(knobs))
	fr, err := opt.Frontier(base, knobs, scenarios, opt.FrontierOpts{
		Workers: o.workers,
		Budget:  o.budget,
		Shard:   shard,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\n%d non-dominated designs (%d candidates assessed)\n", len(fr.Points), fr.Evaluations)
	for _, p := range fr.Points {
		fmt.Fprintf(w, "\n  candidate #%-6d outlays %-12v RT %-10v DL %v\n",
			p.CandidateIndex, p.Outlays, p.RecoveryTime.Round(time.Minute), p.DataLoss.Round(time.Minute))
		for _, c := range p.Choices {
			fmt.Fprintf(w, "    %-28s -> %s\n", c.Knob, c.Option)
		}
	}
	return nil
}

// newJob builds the wire job of the command line's enumeration: the
// same job runs locally (runShard) and on -coordinator's workers.
func newJob(o options, base *core.Design, specs []dist.KnobSpec) (*dist.Job, error) {
	job, err := dist.NewJob(base, specs, dist.ScenarioSpecs(scenarios), objectiveSpec(o))
	if err != nil {
		return nil, err
	}
	job.Budget = o.budget
	job.Prune = o.prune
	return job, nil
}

// runShard runs the exhaustive search, or one -shard of it, in process
// through dist.ExecuteJob, the function cmd/worker runs, and reports
// the returned Result.
func runShard(w io.Writer, o options, base *core.Design, specs []dist.KnobSpec, shard opt.Shard) error {
	job, err := newJob(o, base, specs)
	if err != nil {
		return err
	}
	job.Shard = dist.ShardSpec{Index: shard.Index, Count: shard.Count}
	job.Workers = o.workers
	res, err := dist.ExecuteJob(job, nil)
	if err != nil {
		return err
	}
	return report(w, res, o.out)
}

// runCoordinator distributes the exhaustive search across remote
// cmd/worker processes and reports the merged Result — its solution
// lines byte-identical to the single-process -exhaustive output's.
func runCoordinator(w io.Writer, o options, base *core.Design, specs []dist.KnobSpec, objLabel string) error {
	if o.shard != "" {
		return fmt.Errorf("-coordinator owns the sharding; drop -shard")
	}
	var workers []dist.Worker
	for _, u := range strings.Split(o.coordinator, ",") {
		u = strings.TrimRight(strings.TrimSpace(u), "/")
		if u == "" {
			continue
		}
		workers = append(workers, &dist.HTTPWorker{BaseURL: u, AuthToken: o.authToken})
	}
	if len(workers) == 0 {
		return fmt.Errorf("-coordinator needs at least one worker URL")
	}
	ctx, cancelCtx := context.WithCancel(context.Background())
	defer cancelCtx()
	for _, wk := range workers {
		hctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		err := wk.(*dist.HTTPWorker).Health(hctx)
		cancel()
		if err != nil {
			return err
		}
	}
	for i := 0; i < o.chaosLiars && i < len(workers); i++ {
		// Testing hook for the byzantine e2e: this worker's results are
		// plausibly wrong, so only -validate >= 2 keeps the answer exact.
		workers[i] = dist.NewChaosWorker(workers[i], dist.ChaosOptions{Seed: int64(i) + 1, PLie: 1})
	}

	job, err := newJob(o, base, specs)
	if err != nil {
		return err
	}

	// A live registry backs the run: workers that miss health probes are
	// evicted into quarantine mid-run and readmitted when they recover.
	reg := dist.NewRegistry(dist.RegistryOptions{
		ProbeInterval: o.probeInterval,
		Logf:          log.Printf,
	})
	for _, wk := range workers {
		if err := reg.Add(wk); err != nil {
			return err
		}
	}
	if o.probeInterval > 0 {
		go reg.Start(ctx)
	}
	c, err := dist.NewCoordinatorRegistry(reg, dist.Options{
		Shards:         o.shards,
		AttemptTimeout: o.attemptTimeout,
		SpeculateAfter: o.speculateAfter,
		ValidateK:      o.validateK,
		WorkersPerJob:  o.workers,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Distributing exhaustive search of %q across %d workers, objective: %s\n\n",
		base.Name, len(workers), objLabel)
	res, err := c.Run(ctx, job)
	if o.distMetrics {
		// Dump even on failure: the counters say which worker misbehaved.
		c.Metrics().WritePrometheus(os.Stderr, time.Now()) //nolint:errcheck
	}
	if err != nil {
		return err
	}
	return report(w, res, o.out)
}

// runMerge combines shard result files written by -out into the
// Result the unsharded search reports.
func runMerge(w io.Writer, o options, files []string) error {
	if len(files) == 0 {
		return fmt.Errorf("-merge needs shard result files as arguments")
	}
	results := make([]*dist.Result, len(files))
	for i, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		if results[i], err = dist.DecodeResult(data); err != nil {
			return fmt.Errorf("%s: %w", f, err)
		}
	}
	res, err := dist.Merge(results)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Merging %d shard results\n\n", len(files))
	return report(w, res, o.out)
}

// report is the one output path of every enumeration, local,
// -coordinator or -merge: it prints the Result's solution and, with
// -out, writes the Result for -merge. An infeasible Result has no
// solution, only the evaluation counts a merge needs; without -out it
// fails with opt.ErrNoFeasible.
func report(w io.Writer, res *dist.Result, out string) error {
	if res.Feasible {
		sol, err := res.Solution()
		if err != nil {
			return err
		}
		if err := printSolution(w, sol); err != nil {
			return err
		}
	} else if out == "" {
		return opt.ErrNoFeasible
	}
	if out == "" {
		return nil
	}
	data, err := res.Encode()
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	if res.Feasible {
		fmt.Fprintf(w, "\nWrote shard result to %s\n", out)
	} else {
		fmt.Fprintf(w, "No feasible candidate in this shard; wrote its evaluation count to %s\n", out)
	}
	return nil
}

// printSolution writes the chosen knobs, the score line and the winning
// design's per-scenario outcomes — the block CI diffs across the
// single-process, sharded-merge and coordinator paths.
func printSolution(w io.Writer, sol *opt.Solution) error {
	for _, c := range sol.Choices {
		fmt.Fprintf(w, "  %-28s -> %s\n", c.Knob, c.Option)
	}
	if sol.CandidateIndex >= 0 {
		fmt.Fprintf(w, "\nScore: %v (candidate #%d; %d evaluations, %d passes)\n",
			sol.Score, sol.CandidateIndex, sol.Evaluations, sol.Passes)
	} else {
		fmt.Fprintf(w, "\nScore: %v (%d evaluations, %d passes)\n",
			sol.Score, sol.Evaluations, sol.Passes)
	}
	if sol.CandidatesPruned > 0 {
		fmt.Fprintf(w, "Pruned: %d candidates retired by bound (%d bounds computed)\n",
			sol.CandidatesPruned, sol.BoundsComputed)
	}

	results, err := whatif.Evaluate([]*core.Design{sol.Design}, scenarios)
	if err != nil {
		return err
	}
	for _, o := range results[0].Outcomes {
		fmt.Fprintf(w, "  %-6s RT %-10v DL %-10v total %v\n",
			o.Scenario.DisplayName(), o.RecoveryTime.Round(time.Minute),
			o.DataLoss.Round(time.Minute), o.Total)
	}
	return nil
}

// objectiveSpec is the wire form of the objective flags: explicit
// RTO/RPO turn the objective into the constrained-outlay rule.
func objectiveSpec(o options) dist.ObjectiveSpec {
	if o.rto != "" || o.rpo != "" {
		return dist.ObjectiveSpec{Kind: "constrained", RTO: o.rto, RPO: o.rpo}
	}
	return dist.ObjectiveSpec{Kind: o.objective}
}

// buildObjective resolves the objective flags into the scoring closure,
// built from objectiveSpec exactly as a distributed worker builds it,
// and a display label.
func buildObjective(o options) (opt.Objective, string, error) {
	var label string
	switch {
	case o.rto != "" || o.rpo != "":
		label = fmt.Sprintf("cheapest outlays meeting RTO %s / RPO %s", orAny(o.rto), orAny(o.rpo))
	case o.objective == "worst":
		label = "minimize worst-scenario total cost"
	case o.objective == "expected":
		label = "minimize expected annual cost (typical failure frequencies)"
	default:
		return nil, "", fmt.Errorf("unknown objective %q", o.objective)
	}
	objective, _, err := dist.BuildObjective(objectiveSpec(o))
	if err != nil {
		return nil, "", fmt.Errorf("bad -rto/-rpo: %w", err)
	}
	return objective, label, nil
}

func orAny(s string) string {
	if s == "" {
		return "any"
	}
	return s
}

// tapeKnobSpecs exposes the Table 7 moves as wire specs, the single
// definition both the local search and distributed workers build from.
func tapeKnobSpecs() ([]dist.KnobSpec, error) {
	vault, err := dist.PolicyKnobSpec("vaulting",
		[]string{"4-weekly", "weekly"},
		[]hierarchy.Policy{casestudy.VaultPolicy(), casestudy.WeeklyVaultPolicy()})
	if err != nil {
		return nil, err
	}
	backup, err := dist.PolicyKnobSpec("backup",
		[]string{"weekly full", "F+I", "daily full"},
		[]hierarchy.Policy{casestudy.BackupPolicy(), casestudy.FIBackupPolicy(), casestudy.DailyFBackupPolicy()})
	if err != nil {
		return nil, err
	}
	return []dist.KnobSpec{vault, backup, dist.PiTKnobSpec("split-mirror")}, nil
}
