package opt

import (
	"context"
	"runtime/pprof"
	"sync/atomic"
)

// Profiler phase labels for the exhaustive inner loop: "build" covers
// candidate construction (clone + knob application), "assess" the
// evaluation of the candidate across scenarios, "reduce" the argmin
// merge, "compile" the one-time knob-space compilation (diffing,
// group-table extraction, probe verification), "batch" the compiled
// path's fill+AssessBatch step, and "prune" the branch-and-bound layer
// (bound-table build, incumbent seeding and per-subtree bound
// computation). With labels
// on, `go tool pprof -tagfocus phase=batch` isolates where an
// optimization run actually spends its time.
var (
	labelsBuild   = pprof.Labels("phase", "build")
	labelsAssess  = pprof.Labels("phase", "assess")
	labelsReduce  = pprof.Labels("phase", "reduce")
	labelsCompile = pprof.Labels("phase", "compile")
	labelsBatch   = pprof.Labels("phase", "batch")
	labelsPrune   = pprof.Labels("phase", "prune")
)

// phaseProfiling gates the per-candidate pprof labeling. Off by default:
// labeling costs a pprof.Do and two closure allocations per candidate,
// which the hot loop must not pay when nobody is profiling.
var phaseProfiling atomic.Bool

// PhaseProfiling toggles pprof phase labels
// (phase=build|assess|reduce|compile|batch|prune) on the exhaustive search's
// inner loop. Enable it together with CPU or
// memory profiling (cmd/optimize -cpuprofile does); it is safe to toggle
// concurrently with running searches — a search reads the flag at each
// candidate.
func PhaseProfiling(on bool) { phaseProfiling.Store(on) }

func profilingEnabled() bool { return phaseProfiling.Load() }

// doPhase runs f under the pprof label set.
func doPhase(l pprof.LabelSet, f func()) {
	pprof.Do(context.Background(), l, func(context.Context) { f() })
}
