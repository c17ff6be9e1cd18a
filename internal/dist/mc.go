package dist

import (
	"fmt"
	"sync/atomic"
	"time"

	"stordep/internal/config"
	"stordep/internal/core"
	"stordep/internal/mc"
	"stordep/internal/units"
)

// This file is the Monte Carlo face of the dist protocol: the same
// Job/Result wire format, coordinator machinery (retries, speculation,
// K-way validation) and Worker transports, carrying trial ranges instead
// of candidate-space shards. The engine's determinism contract — trial i
// depends only on (seed, i) — is what makes the distribution safe: any
// partitioning concatenates back into exactly the single-process
// observation sequence, and MergeMC proves it did via per-shard digests.

// NewMCJob assembles an unsharded Monte Carlo job for a campaign over
// the design. mission 0 means the engine default (one year); a negative
// mission is rejected.
func NewMCJob(design *core.Design, seed int64, trials int, mission time.Duration) (*Job, error) {
	data, err := config.Marshal(design)
	if err != nil {
		return nil, fmt.Errorf("%w: design: %v", ErrBadJob, err)
	}
	spec := &MCSpec{Seed: seed, Trials: trials}
	if mission != 0 {
		spec.Mission = units.FormatDuration(mission)
	}
	j := &Job{Version: Version, Design: data, MC: spec}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return j, nil
}

// mcCampaign rebuilds the worker-side campaign from a decoded job.
func mcCampaign(job *Job) (*mc.Campaign, error) {
	base, err := config.Unmarshal(job.Design)
	if err != nil {
		return nil, fmt.Errorf("%w: design: %v", ErrBadJob, err)
	}
	var mission time.Duration
	if job.MC.Mission != "" {
		if mission, err = units.ParseDuration(job.MC.Mission); err != nil {
			return nil, fmt.Errorf("%w: mission: %v", ErrBadJob, err)
		}
	}
	return &mc.Campaign{
		Design:  base,
		Seed:    job.MC.Seed,
		Trials:  job.MC.Trials,
		Workers: job.Workers,
		Mission: mission,
	}, nil
}

// executeMC samples the job's trial range — the slice of the campaign
// its Shard selects, with the same balanced-partition semantics the
// candidate search uses — and wraps the observations for the wire.
func executeMC(job *Job, progress *atomic.Int64) (*Result, error) {
	camp, err := mcCampaign(job)
	if err != nil {
		return nil, err
	}
	lo, hi := job.Shard.Shard().Bounds(job.MC.Trials)
	obs, err := camp.Sample(lo, hi)
	if err != nil {
		return nil, err
	}
	if progress != nil {
		progress.Store(int64(len(obs)))
	}
	return &Result{
		Version:        Version,
		Shard:          job.Shard,
		Feasible:       false,
		CandidateIndex: -1,
		Evaluations:    len(obs),
		MC:             &MCResult{Lo: lo, Hi: hi, Obs: obs, Digest: mc.Digest(obs)},
	}, nil
}

// MergeMC combines Monte Carlo shard results into the full campaign's
// observation sequence, in trial order. Results must share one shard
// count, every shard of the partitioning must be present, ranges must
// tile [0, trials) exactly, and each payload must match its digest;
// duplicates (speculative re-dispatch) are deduped, first occurrence
// wins. The returned slice feeds mc.(*Campaign).Estimate, which then
// yields a report byte-identical to the single-process campaign.
func MergeMC(results []*Result, trials int) ([]mc.Obs, error) {
	if len(results) == 0 {
		return nil, fmt.Errorf("%w: no results to merge", ErrBadResult)
	}
	count := results[0].Shard.Count
	byIndex := make(map[int]*Result, len(results))
	for i, r := range results {
		if r == nil {
			return nil, fmt.Errorf("%w: result %d is missing", ErrBadResult, i)
		}
		if r.MC == nil {
			return nil, fmt.Errorf("%w: result %d has no Monte Carlo payload", ErrBadResult, i)
		}
		if r.Shard.Count != count {
			return nil, fmt.Errorf("%w: result %d is shard %d/%d, others have %d shards — results must come from one partitioning",
				ErrBadResult, i, r.Shard.Index, r.Shard.Count, count)
		}
		if _, dup := byIndex[r.Shard.Index]; dup {
			continue
		}
		if err := r.MC.Validate(); err != nil {
			return nil, fmt.Errorf("result %d (shard %d/%d): %w", i, r.Shard.Index, r.Shard.Count, err)
		}
		byIndex[r.Shard.Index] = r
	}
	want := count
	if want == 0 {
		want = 1 // a zero shard count is the whole campaign as one result
	}
	obs := make([]mc.Obs, 0, trials)
	next := 0
	for s := 0; s < want; s++ {
		r, ok := byIndex[s]
		if !ok {
			return nil, fmt.Errorf("%w: missing shard %d/%d", ErrBadResult, s, count)
		}
		if r.MC.Lo != next {
			return nil, fmt.Errorf("%w: shard %d covers trials [%d, %d), expected to start at %d",
				ErrBadResult, s, r.MC.Lo, r.MC.Hi, next)
		}
		obs = append(obs, r.MC.Obs...)
		next = r.MC.Hi
	}
	if next != trials {
		return nil, fmt.Errorf("%w: shards cover %d trials, campaign has %d", ErrBadResult, next, trials)
	}
	return obs, nil
}
