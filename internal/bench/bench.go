// Package bench is the performance-trajectory harness: a fixed suite of
// named benchmarks over the framework's hot loops (what-if fan-out,
// optimizer searches, chaos campaigns, candidate cloning), runnable both
// from `go test -bench` and from cmd/bench, which snapshots results to a
// BENCH_<date>.json file so successive commits leave a comparable record.
//
// The suite deliberately includes a frozen re-implementation of the
// first optimizer inner loop (a config-JSON round trip per candidate,
// each evaluated through a one-element Evaluate slice, serially) so the
// snapshot carries its own before/after evidence: the seed-baseline case
// is the "before", the exhaustive cases are the "after" on the same knob
// space.
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"stordep/internal/casestudy"
	"stordep/internal/chaos"
	"stordep/internal/config"
	"stordep/internal/core"
	"stordep/internal/failure"
	"stordep/internal/hierarchy"
	"stordep/internal/mc"
	"stordep/internal/opt"
	"stordep/internal/units"
	"stordep/internal/whatif"
)

// Case is one named benchmark in the trajectory suite.
type Case struct {
	// Name identifies the case in snapshots ("exhaustive/parallel4").
	Name string
	// Bench is the benchmark body, written exactly as a testing
	// benchmark function.
	Bench func(b *testing.B)
}

func scenarios() []failure.Scenario {
	return []failure.Scenario{
		{Scope: failure.ScopeArray},
		{Scope: failure.ScopeSite},
	}
}

// searchKnobs is the Table 7 knob space (2 x 3 x 2 = 12 combinations) —
// the same shape cmd/optimize tunes, reused as the standard multi-knob
// search workload.
func searchKnobs() []opt.Knob {
	return []opt.Knob{
		opt.PolicyKnob("vaulting",
			[]string{"4-weekly", "weekly"},
			[]hierarchy.Policy{casestudy.VaultPolicy(), casestudy.WeeklyVaultPolicy()}),
		opt.PolicyKnob("backup",
			[]string{"weekly full", "F+I", "daily full"},
			[]hierarchy.Policy{casestudy.BackupPolicy(), casestudy.FIBackupPolicy(), casestudy.DailyFBackupPolicy()}),
		opt.PiTKnob("split-mirror"),
	}
}

// jsonClone is the seed implementation's candidate copy: a config-JSON
// round trip. Kept verbatim as the baseline the structural clone is
// measured against.
func jsonClone(d *core.Design) (*core.Design, error) {
	data, err := config.Marshal(d)
	if err != nil {
		return nil, err
	}
	return config.Unmarshal(data)
}

// seedExhaustive replays the seed optimizer's inner loop on the full
// knob product: one JSON round trip per candidate, scored through a
// one-element Evaluate slice, serially.
func seedExhaustive(base *core.Design, knobs []opt.Knob, scs []failure.Scenario) (units.Money, error) {
	objective := opt.WorstTotalObjective()
	best := units.Money(0)
	first := true
	choice := make([]int, len(knobs))
	for {
		d, err := jsonClone(base)
		if err != nil {
			return 0, err
		}
		for i, k := range knobs {
			if err := k.Apply(d, choice[i]); err != nil {
				return 0, err
			}
		}
		results, err := whatif.Evaluate([]*core.Design{d}, scs)
		if err != nil {
			return 0, err
		}
		if s := objective(results[0]); first || s < best {
			best, first = s, false
		}
		i := len(knobs) - 1
		for ; i >= 0; i-- {
			choice[i]++
			if choice[i] < len(knobs[i].Options) {
				break
			}
			choice[i] = 0
		}
		if i < 0 {
			return best, nil
		}
	}
}

func sweepDesigns() []*core.Design {
	counts := make([]int, 20)
	for i := range counts {
		counts[i] = i + 1
	}
	return whatif.Sweep(counts, casestudy.AsyncBMirror)
}

func whatIfCase(name string, workers int) Case {
	return Case{Name: name, Bench: func(b *testing.B) {
		designs := sweepDesigns()
		scs := scenarios()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := whatif.EvaluateWorkers(designs, scs, workers); err != nil {
				b.Fatal(err)
			}
		}
	}}
}

func exhaustiveCase(name string, workers int) Case {
	return Case{Name: name, Bench: func(b *testing.B) {
		base := casestudy.Baseline()
		knobs := searchKnobs()
		scs := scenarios()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := opt.ExhaustiveWorkers(base, knobs, scs, nil, workers); err != nil {
				b.Fatal(err)
			}
		}
	}}
}

// largeKnobs extends the Table 7 space with a 512-option vault retention
// sweep: 2 x 3 x 2 x 512 = 6144 combinations — beyond the seed
// implementation's 4096-combination cap, only enumerable because the
// streaming search never materializes the space.
func largeKnobs() []opt.Knob {
	retOpts := make([]int, 512)
	for i := range retOpts {
		retOpts[i] = i + 1
	}
	return append(searchKnobs(), opt.RetCntKnob("vaulting", retOpts))
}

func exhaustiveLargeCase(name string, workers int) Case {
	return Case{Name: name, Bench: func(b *testing.B) {
		base := casestudy.Baseline()
		knobs := largeKnobs()
		scs := scenarios()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := opt.ExhaustiveOpts(base, knobs, scs, nil, opt.ExhaustiveOptions{Workers: workers}); err != nil {
				b.Fatal(err)
			}
		}
	}}
}

// lastPruneRatio records the fraction of the pruned/large case's
// candidate space retired by bounds rather than assessed, from the most
// recent run of that case; NewSnapshot publishes it under PruneKey. The
// suite runs cases serially and the search aggregates its stats before
// returning, so a plain variable suffices.
var lastPruneRatio float64

// prunedLargeCase is the bound-guided counterpart of exhaustive/large:
// the same 6144-candidate space, searched with subtree pruning against
// the worst-total floor. The answer is identical; the point is how much
// of the space never needs assessing (the ratio CI gates) and how much
// wall time that buys.
func prunedLargeCase(name string, workers int) Case {
	return Case{Name: name, Bench: func(b *testing.B) {
		base := casestudy.Baseline()
		knobs := largeKnobs()
		scs := scenarios()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var stats opt.SearchStats
			if _, err := opt.ExhaustiveOpts(base, knobs, scs, nil, opt.ExhaustiveOptions{
				Workers: workers, Prune: true, Floor: opt.WorstTotalFloor(), Stats: &stats,
			}); err != nil {
				b.Fatal(err)
			}
			if total := stats.Assessed + stats.Pruned; total > 0 {
				lastPruneRatio = float64(stats.Pruned) / float64(total)
			}
		}
	}}
}

func tuneCase(name string, workers int) Case {
	return Case{Name: name, Bench: func(b *testing.B) {
		base := casestudy.Baseline()
		knobs := searchKnobs()
		scs := scenarios()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := opt.TuneWorkers(base, knobs, scs, nil, workers); err != nil {
				b.Fatal(err)
			}
		}
	}}
}

// mcCase measures a full Monte Carlo campaign on the baseline design —
// trial sampling, sim replay, bound checks, and the sequential estimate
// fold. Workers is pinned so snapshots from different machines measure
// the same schedule.
func mcCase(name string, workers, trials int) Case {
	return Case{Name: name, Bench: func(b *testing.B) {
		design := casestudy.Baseline()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c := &mc.Campaign{Design: design, Seed: 1, Trials: trials, Workers: workers}
			if _, err := c.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}}
}

func chaosCase(name string, workers, runs int) Case {
	return Case{Name: name, Bench: func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := &chaos.Campaign{Seed: 1, Runs: runs, Workers: workers}
			if _, err := c.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}}
}

// Suite returns the full trajectory suite in report order.
func Suite() []Case {
	return []Case{
		{Name: "clone/json", Bench: func(b *testing.B) {
			d := casestudy.Baseline()
			for i := 0; i < b.N; i++ {
				if _, err := jsonClone(d); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{Name: "clone/structural", Bench: func(b *testing.B) {
			d := casestudy.Baseline()
			for i := 0; i < b.N; i++ {
				if _, err := d.Clone(); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{Name: "exhaustive/seed-baseline", Bench: func(b *testing.B) {
			base := casestudy.Baseline()
			knobs := searchKnobs()
			scs := scenarios()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := seedExhaustive(base, knobs, scs); err != nil {
					b.Fatal(err)
				}
			}
		}},
		exhaustiveCase("exhaustive/serial", 1),
		exhaustiveCase("exhaustive/parallel4", 4),
		exhaustiveLargeCase("exhaustive/large-serial", 1),
		exhaustiveLargeCase("exhaustive/large-parallel4", 4),
		prunedLargeCase("pruned/large", 1),
		tuneCase("tune/serial", 1),
		tuneCase("tune/parallel4", 4),
		whatIfCase("whatif/serial", 1),
		whatIfCase("whatif/parallel4", 4),
		chaosCase("chaos/serial", 1, 10),
		chaosCase("chaos/parallel4", 4, 10),
		mcCase("mc/1k-trials", 4, 1000),
	}
}

// Result is one case's measurement.
type Result struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Iterations  int     `json:"iterations"`
}

// SnapshotSchemaVersion is the layout version NewSnapshot stamps.
// Version 2 added schema_version itself and gomaxprocs; version-1 files
// (both fields absent, decoding to 0) still load and compare.
const SnapshotSchemaVersion = 2

// Snapshot is one benchmark run's record, written as BENCH_<date>.json.
type Snapshot struct {
	SchemaVersion int    `json:"schema_version"`
	Date          string `json:"date"`
	GoVersion     string `json:"go_version"`
	GOOS          string `json:"goos"`
	GOARCH        string `json:"goarch"`
	NumCPU        int    `json:"num_cpu"`
	// GOMAXPROCS records the scheduler limit the run was taken under —
	// without it a "parallel4" number from a GOMAXPROCS=1 run would
	// masquerade as a scaling measurement.
	GOMAXPROCS int      `json:"gomaxprocs"`
	Results    []Result `json:"results"`
	// Speedups derives the headline ratios from Results: the parallel
	// clone-free exhaustive search against the seed inner loop, and the
	// structural clone against the JSON round trip.
	Speedups map[string]float64 `json:"speedups,omitempty"`
}

// Run executes every case whose name contains filter (empty matches all)
// and reports each result as it lands via report (which may be nil).
func Run(filter string, report func(Result)) []Result {
	var results []Result
	for _, c := range Suite() {
		if filter != "" && !strings.Contains(c.Name, filter) {
			continue
		}
		r := testing.Benchmark(c.Bench)
		res := Result{
			Name:        c.Name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			Iterations:  r.N,
		}
		results = append(results, res)
		if report != nil {
			report(res)
		}
	}
	return results
}

// NewSnapshot assembles a snapshot (with derived speedups) for results
// measured on this machine. date is the caller's clock, formatted
// 2006-01-02.
func NewSnapshot(date string, results []Result) *Snapshot {
	s := &Snapshot{
		SchemaVersion: SnapshotSchemaVersion,
		Date:          date,
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		NumCPU:        runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Results:       results,
		Speedups:      map[string]float64{},
	}
	ns := func(name string) float64 {
		for _, r := range results {
			if r.Name == name {
				return r.NsPerOp
			}
		}
		return 0
	}
	if a, b := ns("exhaustive/seed-baseline"), ns("exhaustive/parallel4"); a > 0 && b > 0 {
		s.Speedups["exhaustive_parallel4_vs_seed"] = a / b
	}
	if a, b := ns("exhaustive/seed-baseline"), ns("exhaustive/serial"); a > 0 && b > 0 {
		s.Speedups["exhaustive_serial_vs_seed"] = a / b
	}
	if a, b := ns("clone/json"), ns("clone/structural"); a > 0 && b > 0 {
		s.Speedups["clone_structural_vs_json"] = a / b
	}
	if a, b := ns("exhaustive/large-serial"), ns("exhaustive/large-parallel4"); a > 0 && b > 0 {
		s.Speedups[ScalingKey] = a / b
	}
	if a, b := ns("exhaustive/large-serial"), ns("pruned/large"); a > 0 && b > 0 {
		s.Speedups["pruned_large_vs_exhaustive_large"] = a / b
	}
	if ns("pruned/large") > 0 && lastPruneRatio > 0 {
		s.Speedups[PruneKey] = lastPruneRatio
	}
	if len(s.Speedups) == 0 {
		s.Speedups = nil
	}
	return s
}

// Write saves the snapshot as indented JSON.
func (s *Snapshot) Write(path string) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Format renders one result as a fixed-width report line.
func (r Result) Format() string {
	return fmt.Sprintf("%-26s %12.0f ns/op %10d B/op %8d allocs/op %8d iters",
		r.Name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp, r.Iterations)
}
