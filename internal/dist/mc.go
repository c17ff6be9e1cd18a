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
// observation sequence, and Merge proves it did via per-shard digests.

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
