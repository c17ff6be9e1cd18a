package bench

import (
	"runtime"
	"strings"
	"testing"

	"stordep/internal/casestudy"
	"stordep/internal/opt"
)

// TestNewSnapshotRecordsEnvironment: snapshots carry the schema version
// and the scheduler limit they were measured under.
func TestNewSnapshotRecordsEnvironment(t *testing.T) {
	s := NewSnapshot("2026-08-08", []Result{{Name: "x", NsPerOp: 1}})
	if s.SchemaVersion != SnapshotSchemaVersion {
		t.Errorf("SchemaVersion = %d, want %d", s.SchemaVersion, SnapshotSchemaVersion)
	}
	if s.GOMAXPROCS != runtime.GOMAXPROCS(0) {
		t.Errorf("GOMAXPROCS = %d, want %d", s.GOMAXPROCS, runtime.GOMAXPROCS(0))
	}
	if s.NumCPU != runtime.NumCPU() {
		t.Errorf("NumCPU = %d, want %d", s.NumCPU, runtime.NumCPU())
	}
}

// TestEnvMismatch: differing CPU counts or GOMAXPROCS produce warnings
// (never an error), and a schema-v1 snapshot's missing gomaxprocs is
// called out as unrecorded.
func TestEnvMismatch(t *testing.T) {
	same := &Snapshot{NumCPU: 4, GOMAXPROCS: 4}
	if warns := EnvMismatch(same, &Snapshot{NumCPU: 4, GOMAXPROCS: 4}); len(warns) != 0 {
		t.Errorf("identical environments warned: %v", warns)
	}
	warns := EnvMismatch(&Snapshot{NumCPU: 1}, &Snapshot{NumCPU: 4, GOMAXPROCS: 4})
	if len(warns) != 2 {
		t.Fatalf("got %d warnings, want 2: %v", len(warns), warns)
	}
	if !strings.Contains(warns[0], "num_cpu differs: 1 (old) vs 4 (new)") {
		t.Errorf("cpu warning = %q", warns[0])
	}
	if !strings.Contains(warns[1], "unrecorded (schema v1)") {
		t.Errorf("gomaxprocs warning = %q", warns[1])
	}
}

// TestScalingGate: the parallel-speedup floor arms only on genuinely
// multi-core snapshots, fails below the floor or when the ratio is
// missing, and passes at or above it.
func TestScalingGate(t *testing.T) {
	multi := func(ratio float64) *Snapshot {
		return &Snapshot{NumCPU: 4, GOMAXPROCS: 4, Speedups: map[string]float64{ScalingKey: ratio}}
	}
	if err := ScalingGate(multi(2.5), 2.0); err != nil {
		t.Errorf("2.5x vs 2.0 floor failed: %v", err)
	}
	if err := ScalingGate(multi(1.3), 2.0); err == nil || !strings.Contains(err.Error(), "below") {
		t.Errorf("1.3x vs 2.0 floor: err = %v", err)
	}
	// Single-CPU or pinned snapshots: a parallel "speedup" there measures
	// scheduling overhead, so the gate must stay disarmed.
	oneCPU := &Snapshot{NumCPU: 1, GOMAXPROCS: 1, Speedups: map[string]float64{ScalingKey: 0.9}}
	if err := ScalingGate(oneCPU, 2.0); err != nil {
		t.Errorf("1-CPU snapshot gated: %v", err)
	}
	pinned := &Snapshot{NumCPU: 8, GOMAXPROCS: 1, Speedups: map[string]float64{ScalingKey: 0.9}}
	if err := ScalingGate(pinned, 2.0); err != nil {
		t.Errorf("GOMAXPROCS=1 snapshot gated: %v", err)
	}
	if err := ScalingGate(multi(0.5), 0); err != nil {
		t.Errorf("floor 0 did not disarm: %v", err)
	}
	// Armed but filtered: the ratio is absent, so the gate cannot vouch.
	filtered := &Snapshot{NumCPU: 4, GOMAXPROCS: 4}
	if err := ScalingGate(filtered, 2.0); err == nil {
		t.Error("missing ratio passed an armed gate")
	}
}

// TestPruneGate: the bound-pruning floor fails below the floor or when
// the ratio is missing, passes at or above it, and has no host
// condition — pruning is a property of the bounds, not the CPU count.
func TestPruneGate(t *testing.T) {
	snap := func(ratio float64) *Snapshot {
		return &Snapshot{NumCPU: 1, GOMAXPROCS: 1, Speedups: map[string]float64{PruneKey: ratio}}
	}
	if err := PruneGate(snap(0.8), 0.3); err != nil {
		t.Errorf("80%% vs 30%% floor failed: %v", err)
	}
	if err := PruneGate(snap(0.1), 0.3); err == nil || !strings.Contains(err.Error(), "below") {
		t.Errorf("10%% vs 30%% floor: err = %v", err)
	}
	if err := PruneGate(snap(0.1), 0); err != nil {
		t.Errorf("floor 0 did not disarm: %v", err)
	}
	if err := PruneGate(&Snapshot{NumCPU: 4, GOMAXPROCS: 4}, 0.3); err == nil {
		t.Error("missing ratio passed an armed gate")
	}
}

// TestReadSnapshotSchemaV1: version-1 files (no schema_version or
// gomaxprocs keys) still load with both fields zero.
func TestReadSnapshotSchemaV1(t *testing.T) {
	path := t.TempDir() + "/v1.json"
	v1 := &Snapshot{Date: "2026-08-05", NumCPU: 1, Results: []Result{{Name: "x"}}}
	if err := v1.Write(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.SchemaVersion != 0 || got.GOMAXPROCS != 0 || got.NumCPU != 1 {
		t.Errorf("v1 snapshot = %+v", got)
	}
}

// TestPrunedLargeRatio: the pruned/large case searches on one worker,
// so which batches its bound retires does not depend on the host. Run
// as that case runs it, the search must retire at least 90% of its 6144
// candidates (the floor CI's -min-prune applies to the timed case) and
// return the unpruned search's answer.
func TestPrunedLargeRatio(t *testing.T) {
	base, knobs, scs := casestudy.Baseline(), largeKnobs(), scenarios()
	want, err := opt.ExhaustiveOpts(base, knobs, scs, nil, opt.ExhaustiveOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var stats opt.SearchStats
	got, err := opt.ExhaustiveOpts(base, knobs, scs, nil, opt.ExhaustiveOptions{
		Workers: 1, Prune: true, Floor: opt.WorstTotalFloor(), Stats: &stats,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Score != want.Score || got.CandidateIndex != want.CandidateIndex {
		t.Errorf("pruned answer #%d %v, unpruned #%d %v", got.CandidateIndex, got.Score, want.CandidateIndex, want.Score)
	}
	const space = 6144
	if stats.Assessed+stats.Pruned != space {
		t.Fatalf("assessed %d + pruned %d != %d", stats.Assessed, stats.Pruned, space)
	}
	if ratio := float64(stats.Pruned) / space; ratio < 0.9 {
		t.Errorf("pruned %d of %d candidates (%.1f%%), want at least 90%%", stats.Pruned, space, 100*ratio)
	}
	t.Logf("pruned %d of %d, %d bounds", stats.Pruned, space, stats.BoundsComputed)
}
