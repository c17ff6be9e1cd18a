package dist

import (
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"stordep/internal/casestudy"
	"stordep/internal/mc"
	"stordep/internal/units"
)

const (
	mcTestSeed   = 42
	mcTestTrials = 24
)

func newMCTestJob(t *testing.T) *Job {
	t.Helper()
	job, err := NewMCJob(casestudy.Baseline(), mcTestSeed, mcTestTrials, 0)
	if err != nil {
		t.Fatal(err)
	}
	return job
}

// mcOracle is the single-process campaign every distributed run must
// reproduce byte-for-byte.
func mcOracle(t *testing.T) *mc.Report {
	t.Helper()
	c := &mc.Campaign{Design: casestudy.Baseline(), Seed: mcTestSeed, Trials: mcTestTrials}
	rep, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestRunMCMatchesSingleProcess is the distributed acceptance check:
// trial shards dispatched across Loopback workers (full wire round
// trip) merge into the Result ExecuteJob returns for the unsharded job,
// and its estimate is byte-identical to the single-process campaign —
// for several worker and shard counts.
func TestRunMCMatchesSingleProcess(t *testing.T) {
	want := mcOracle(t)
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := ExecuteJob(newMCTestJob(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []struct {
		name    string
		workers int
		shards  int
	}{
		{"1worker-1shard", 1, 1},
		{"2workers", 2, 0},
		{"3workers-7shards", 3, 7},
		{"4workers-24shards", 4, 24},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			var workers []Worker
			for i := 0; i < cfg.workers; i++ {
				workers = append(workers, &Loopback{Name: string(rune('a' + i))})
			}
			coord, err := NewCoordinator(workers, Options{Shards: cfg.shards})
			if err != nil {
				t.Fatal(err)
			}
			res, err := coord.Run(context.Background(), newMCTestJob(t))
			if err != nil {
				t.Fatal(err)
			}
			requireIdentical(t, "merged trial shards", whole, res)
			camp := &mc.Campaign{Design: casestudy.Baseline(), Seed: mcTestSeed, Trials: mcTestTrials}
			rep, err := camp.Estimate(res.MC.Obs)
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(wantJSON) {
				t.Errorf("distributed report differs from single-process:\n%s\nvs\n%s", got, wantJSON)
			}
		})
	}
}

// TestRunMCSurvivesCrashes drives trial shards through flaky workers:
// injected crashes must be retried away without perturbing the merged
// sequence.
func TestRunMCSurvivesCrashes(t *testing.T) {
	want := mcOracle(t)
	crashes := 0
	flaky := &Loopback{Name: "flaky", Intercept: func(job *Job) Fault {
		if crashes < 3 {
			crashes++
			return FaultCrash
		}
		return FaultNone
	}}
	coord, err := NewCoordinator([]Worker{flaky, &Loopback{Name: "steady"}}, Options{
		Shards: 6, RetryBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := coord.Run(context.Background(), newMCTestJob(t))
	if err != nil {
		t.Fatal(err)
	}
	if crashes == 0 {
		t.Fatal("fault injection never fired")
	}
	if d := mc.Digest(res.MC.Obs); d != want.Digest {
		t.Errorf("merged digest %x after crashes, want %x", d, want.Digest)
	}
}

// TestRunMCValidateK cross-validates every trial shard on two workers;
// determinism makes honest votes byte-identical, so the run succeeds.
func TestRunMCValidateK(t *testing.T) {
	want := mcOracle(t)
	coord, err := NewCoordinator([]Worker{
		&Loopback{Name: "a"}, &Loopback{Name: "b"}, &Loopback{Name: "c"},
	}, Options{Shards: 4, ValidateK: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := coord.Run(context.Background(), newMCTestJob(t))
	if err != nil {
		t.Fatal(err)
	}
	if d := mc.Digest(res.MC.Obs); d != want.Digest {
		t.Errorf("merged digest %x under 2-way validation, want %x", d, want.Digest)
	}
}

// TestRunMCRejects: Run refuses a pre-sharded or invalid Monte Carlo
// job, and a merge whose trial range falls short of the campaign.
func TestRunMCRejects(t *testing.T) {
	coord, err := NewCoordinator([]Worker{&Loopback{Name: "a"}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sharded := *newMCTestJob(t)
	sharded.Shard = ShardSpec{Index: 0, Count: 2}
	if _, err := coord.Run(context.Background(), &sharded); !errors.Is(err, ErrBadJob) {
		t.Errorf("Run on a pre-sharded job: %v", err)
	}
	empty := *newMCTestJob(t)
	empty.MC = &MCSpec{Seed: 1}
	if _, err := coord.Run(context.Background(), &empty); !errors.Is(err, ErrBadJob) {
		t.Errorf("Run on a zero-trial job: %v", err)
	}

	// A worker that samples a campaign one trial short returns a
	// well-formed shard; only the coverage check can catch it.
	short, err := NewCoordinator([]Worker{&Loopback{Name: "short", Intercept: func(job *Job) Fault {
		job.MC.Trials--
		return FaultNone
	}}}, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := short.Run(context.Background(), newMCTestJob(t)); !errors.Is(err, ErrBadResult) {
		t.Errorf("merge covering %d of %d trials: err = %v, want ErrBadResult", mcTestTrials-1, mcTestTrials, err)
	}
}

func TestMCJobWire(t *testing.T) {
	job := newMCTestJob(t)
	data, err := job.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeJob(data)
	if err != nil {
		t.Fatal(err)
	}
	if *back.MC != *job.MC {
		t.Errorf("MC spec did not round-trip: %+v vs %+v", back.MC, job.MC)
	}

	bad := *job
	bad.MC = &MCSpec{Seed: 1, Trials: 0}
	data, err = bad.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeJob(data); !errors.Is(err, ErrBadJob) {
		t.Errorf("zero-trial job decoded: %v", err)
	}

	bad.MC = &MCSpec{Seed: 1, Trials: 5, Mission: "-26wk"}
	data, err = bad.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeJob(data); !errors.Is(err, ErrBadJob) || !errors.Is(err, mc.ErrBadMission) {
		t.Errorf("negative-mission job decoded: %v", err)
	}
	if _, err := NewMCJob(casestudy.Baseline(), 1, 5, -26*units.Week); !errors.Is(err, mc.ErrBadMission) {
		t.Errorf("NewMCJob with a negative mission: %v", err)
	}

	mixed := *job
	mixed.Scenarios = testScenarioSpecs()
	data, err = mixed.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeJob(data); !errors.Is(err, ErrBadJob) {
		t.Errorf("MC job with scenarios decoded: %v", err)
	}
}

// TestMCResultDigestRejected: a corrupted observation payload must fail
// decode — the digest is the transport-integrity check.
func TestMCResultDigestRejected(t *testing.T) {
	camp := &mc.Campaign{Design: casestudy.Baseline(), Seed: mcTestSeed, Trials: 4}
	obs, err := camp.Sample(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	good := &Result{
		Version: Version, Feasible: false, CandidateIndex: -1,
		MC: &MCResult{Lo: 0, Hi: 4, Obs: obs, Digest: mc.Digest(obs)},
	}
	data, err := good.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeResult(data); err != nil {
		t.Fatalf("valid MC result rejected: %v", err)
	}

	tampered := *good
	flipped := append([]mc.Obs{}, obs...)
	flipped[0].Events++
	tampered.MC = &MCResult{Lo: 0, Hi: 4, Obs: flipped, Digest: good.MC.Digest}
	data, err = tampered.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeResult(data); !errors.Is(err, ErrBadResult) {
		t.Errorf("tampered payload decoded: %v", err)
	}

	short := *good
	short.MC = &MCResult{Lo: 0, Hi: 5, Obs: obs, Digest: mc.Digest(obs)}
	data, err = short.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeResult(data); !errors.Is(err, ErrBadResult) {
		t.Errorf("short payload decoded: %v", err)
	}
}

func TestMergeMCErrors(t *testing.T) {
	camp := &mc.Campaign{Design: casestudy.Baseline(), Seed: mcTestSeed, Trials: 10}
	shard := func(index, count, trials int) *Result {
		lo, hi := (ShardSpec{Index: index, Count: count}).Shard().Bounds(trials)
		obs, err := camp.Sample(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		return &Result{
			Version: Version, Shard: ShardSpec{Index: index, Count: count},
			Feasible: false, CandidateIndex: -1, Evaluations: len(obs),
			MC: &MCResult{Lo: lo, Hi: hi, Obs: obs, Digest: mc.Digest(obs)},
		}
	}

	full, err := camp.Sample(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := Merge([]*Result{shard(0, 2, 8), shard(1, 2, 8)})
	if err != nil {
		t.Fatal(err)
	}
	want := &Result{Version: Version, CandidateIndex: -1, Evaluations: 8,
		MC: &MCResult{Lo: 0, Hi: 8, Obs: full, Digest: mc.Digest(full)}}
	requireIdentical(t, "two-shard merge", want, merged)
	// Duplicates dedupe, first wins.
	merged, err = Merge([]*Result{shard(0, 2, 8), shard(0, 2, 8), shard(1, 2, 8)})
	if err != nil {
		t.Fatalf("dedup merge: %v", err)
	}
	requireIdentical(t, "dedup merge", want, merged)

	if _, err := Merge(nil); !errors.Is(err, ErrBadResult) {
		t.Errorf("empty merge: %v", err)
	}
	if _, err := Merge([]*Result{shard(0, 2, 8)}); !errors.Is(err, ErrBadResult) {
		t.Errorf("missing shard: %v", err)
	}
	if _, err := Merge([]*Result{shard(0, 2, 8), shard(2, 3, 8)}); !errors.Is(err, ErrBadResult) {
		t.Errorf("mixed partitioning: %v", err)
	}
	noMC := &Result{Version: Version, Shard: ShardSpec{Index: 1, Count: 2}, Feasible: false, CandidateIndex: -1}
	if _, err := Merge([]*Result{shard(0, 2, 8), noMC}); !errors.Is(err, ErrBadResult) {
		t.Errorf("payload-free result: %v", err)
	}
	// Shard 1 of a 10-trial campaign starts at trial 5, not where shard
	// 0 of an 8-trial one ends.
	if _, err := Merge([]*Result{shard(0, 2, 8), shard(1, 2, 10)}); !errors.Is(err, ErrBadResult) {
		t.Errorf("gap between ranges: %v", err)
	}
	tampered := shard(1, 2, 8)
	tampered.MC.Digest++
	if _, err := Merge([]*Result{shard(0, 2, 8), tampered}); !errors.Is(err, ErrBadResult) {
		t.Errorf("payload digest mismatch: %v", err)
	}
}
