// Command perfbench is the end-to-end performance benchmark of the
// dependability framework. It generates one workload's requests from a
// seed, serves them one at a time for a fixed number of seconds (a closed
// loop with a single client, one search or trial worker and one P),
// checks every answer, and prints one JSON result line.
//
//	python3 perfbench/run.py --workload search --seed 1 --seconds 20 --trace 0
//
// Workloads (see workloads.go):
//
//	search     bound-pruned exhaustive design search over a 6144-candidate
//	           knob space of the paper's baseline: opt's compile, batch
//	           assess, prune and reduce phases over core's batch kernel;
//	           no Monte Carlo
//	mc-mirror  Monte Carlo nines for async batched mirroring: one-minute
//	           cycles over a one-year mission, so the simulator's replay
//	           and its allocations dominate; no search
//
// Request costs are CPU time calibrated to a reference speed (see
// calibrate.go); the work is single-threaded and CPU-bound, so on an idle
// machine a request's latency equals its CPU time.
//
// With -trace 0 the result carries the end-to-end metrics: median and
// 90th-percentile request latency, work retired per second (candidates or
// trials) and set-up time (median of several set-ups). With -trace 1 it
// carries the per-layer metrics instead: mean span time per request for
// each layer the benchmark calls (decode, build, run, report), the run
// layer's CPU split by phase from a CPU profile, raw CPU and wall medians,
// allocation counts and work counters; the spans are written to
// .bench_build/trace/.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// setupReps is how many times a run sets up its workload; setup_s is the
// median.
const setupReps = 3

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: search or mc-mirror")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 20, "how long the timed loop runs")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds int, traced bool) error {
	wl, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return errors.New("seconds must be at least 1")
	}
	// One client on one P: with a second P idle, the garbage collector
	// runs idle mark workers on it, which burn CPU time in proportion to
	// how idle the P happens to be rather than to the work.
	runtime.GOMAXPROCS(1)
	for i := 0; i < 2*calibrationWindow; i++ {
		calibrate() // touch the loop's buffers before timing it
	}

	// Set up several times and keep the last; each set-up starts from a
	// collected heap so the repetitions see the same state.
	var srv server
	setups := make([]float64, setupReps)
	for i := range setups {
		runtime.GC()
		c0 := cpuTime()
		s, err := wl(seed)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		cost := ms(cpuTime() - c0)
		cals := make([]float64, 2*calibrationWindow+1)
		for j := range cals {
			cals[j] = ms(calibrate())
		}
		all, _ := calibrated([]float64{cost}, cals)
		setups[i] = all[0] / 1e3
		srv = s
	}

	var tr *tracer
	if traced {
		tr = newTracer()
		if err := tr.startProfile(); err != nil {
			return err
		}
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)

	var (
		cpu, wall, cals []float64 // per request, milliseconds
		items           int
		failed          int
		counts          = counters{}
		firstFail       error
	)
	budget := time.Duration(seconds) * time.Second
	start := time.Now()
	for i := 0; time.Since(start) < budget; i++ {
		t0, c0 := time.Now(), cpuTime()
		tr.request(i)
		n, err := srv.serve(i, tr, counts)
		tr.endRequest()
		cpu = append(cpu, ms(cpuTime()-c0))
		wall = append(wall, ms(time.Since(t0)))
		cals = append(cals, ms(calibrate()))
		items += n
		if err != nil {
			failed++
			if firstFail == nil {
				firstFail = fmt.Errorf("request %d: %w", i, err)
			}
		}
	}
	elapsed := time.Since(start).Seconds()
	runtime.ReadMemStats(&after)

	var samples []profSample
	if traced {
		var err error
		if samples, err = tr.stopProfile(); err != nil {
			return err
		}
	}

	// Answers are re-checked against independent oracles once timing is
	// over, so the checks do not count against the measured loop.
	if err := srv.verify(); err != nil {
		failed++
		if firstFail == nil {
			firstFail = fmt.Errorf("verify: %w", err)
		}
	}
	if firstFail != nil {
		fmt.Fprintln(os.Stderr, "perfbench: first failure:", firstFail)
	}

	// Latency and throughput are taken over the requests measured in the
	// host's normal phase; the tail over every request, since the
	// requests a slow phase leaves under-corrected sit in it either way.
	lat, normal := calibrated(cpu, cals)
	var normalSum float64
	for _, l := range normal {
		normalSum += l
	}
	// Every request of a workload retires the same number of items.
	normalItems := float64(items) * float64(len(normal)) / float64(len(lat))
	res := result{
		Correct:   failed == 0,
		Attempted: len(lat),
		Failed:    failed,
		Metrics:   map[string]metric{},
	}
	if !traced {
		res.Metrics["latency_ms"] = metric{quantile(normal, 0.5), "ms"}
		res.Metrics["p90_ms"] = metric{quantile(lat, 0.9), "ms"}
		res.Metrics["items_per_s"] = metric{1e3 * normalItems / normalSum, "1/s"}
		res.Metrics["setup_s"] = metric{quantile(setups, 0.5), "s"}
	} else {
		reqs := float64(len(lat))
		res.Metrics["traced_latency_ms"] = metric{quantile(normal, 0.5), "ms"}
		res.Metrics["normal_phase_pct"] = metric{100 * float64(len(normal)) / reqs, "%"}
		res.Metrics["cpu_ms"] = metric{quantile(cpu, 0.5), "ms"}
		res.Metrics["wall_ms"] = metric{quantile(wall, 0.5), "ms"}
		res.Metrics["calibration_ms"] = metric{quantile(cals, 0.5), "ms"}
		for _, layer := range spanLayers {
			res.Metrics[layer+"_ms"] = metric{tr.total(layer) / reqs, "ms"}
		}
		split := attribute(samples, srv.classify)
		res.Metrics["profiled_cpu_ms"] = metric{float64(split.nanos) / 1e6 / reqs, "ms"}
		for _, layer := range profileLayers {
			res.Metrics[layer+"_pct"] = metric{split.share(layer), "%"}
		}
		res.Metrics["allocs_per_item"] = metric{float64(after.Mallocs-before.Mallocs) / float64(max(items, 1)), "count"}
		counts["requests"] = reqs
		for _, c := range counterNames {
			res.Metrics[c.name] = metric{counts.ratio(c), c.unit}
		}
		path, err := tr.write(name, seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(tr.spans), path)
	}

	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d requests, %d items in %.2fs, %d failed\n",
		name, seed, len(lat), items, elapsed, failed)
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// the closest ranks. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}
