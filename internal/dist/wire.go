// Package dist distributes an exhaustive design-space search, or a
// Monte Carlo campaign's trials, across workers on other processes or
// hosts. It is the cross-host layer above the sharded streaming search
// of internal/opt and the trial ranges of internal/mc: a coordinator
// partitions the candidate space or trial range into more shards than
// workers, dispatches each shard as a self-contained JSON job, retries
// failures with backoff, speculatively re-dispatches stragglers, and
// folds the shard results through Merge into the whole-space Result a
// single process computes for the unsharded job — byte-identical for
// any worker count, shard count, failure pattern, or arrival order.
//
// The wire format is versioned JSON. A Job carries everything a worker
// needs to evaluate its shard with no other context: the base design in
// the internal/config schema, serializable knob specifications (policy
// options travel as config-encoded policies), failure scenarios, the
// objective, and the shard assignment. A Result carries a shard's
// Solution back, again via the config schema, or a trial shard's
// digest-checked observations. Merge folds results from a coordinator
// run and results written to files by independently run shards alike.
//
// Transports are pluggable behind the Worker interface: an HTTP worker
// (cmd/worker, NewHandler/HTTPWorker) streams NDJSON heartbeats while it
// evaluates, and an in-process Loopback runs the full encode/decode path
// hermetically — including injected crashes, hangs and malformed
// responses — without real sockets.
package dist

import (
	"encoding/json"
	"errors"
	"fmt"

	"stordep/internal/config"
	"stordep/internal/mc"
	"stordep/internal/opt"
	"stordep/internal/units"
)

// Version is the wire-format version this package speaks. Decoders
// reject any other value with ErrVersion: the coordinator and its
// workers must agree exactly, because a silent schema skew could change
// which candidate a shard evaluates.
const Version = 1

// Wire-format errors.
var (
	// ErrVersion marks a version-skewed message.
	ErrVersion = errors.New("dist: wire version mismatch")
	// ErrBadJob marks a structurally invalid job.
	ErrBadJob = errors.New("dist: invalid job")
	// ErrBadResult marks a structurally invalid shard result.
	ErrBadResult = errors.New("dist: invalid result")
)

// ShardSpec is the wire form of opt.Shard. The zero value means "the
// whole space".
type ShardSpec struct {
	Index int `json:"index"`
	Count int `json:"count"`
}

// Shard converts to the search-layer type.
func (s ShardSpec) Shard() opt.Shard { return opt.Shard{Index: s.Index, Count: s.Count} }

// KnobSpec is a serializable knob description. Knobs themselves carry
// Apply closures, so the wire format names a built-in constructor plus
// its parameters instead; BuildKnobs rebuilds the closure on the worker.
// Which option fields are used depends on Kind:
//
//	policy   Target level; Names + Policies (config policy schema)
//	pit      Target level (split-mirror vs virtual-snapshot)
//	accw     Target level; Durations ("24h", "4wk")
//	retcnt   Target level; Ints
//	links    Target device; Ints
type KnobSpec struct {
	Kind      string            `json:"kind"`
	Target    string            `json:"target"`
	Names     []string          `json:"names,omitempty"`
	Policies  []json.RawMessage `json:"policies,omitempty"`
	Durations []string          `json:"durations,omitempty"`
	Ints      []int             `json:"ints,omitempty"`
}

// ScenarioSpec is the wire form of failure.Scenario.
type ScenarioSpec struct {
	Name        string `json:"name,omitempty"`
	Scope       string `json:"scope"`
	TargetAge   string `json:"targetAge,omitempty"`
	RecoverSize string `json:"recoverSize,omitempty"`
}

// ObjectiveSpec selects the scoring rule. Kind is one of "worst"
// (worst-scenario total cost), "expected" (expected annual cost under
// whatif.TypicalFrequencies), or "constrained" (cheapest outlays meeting
// the RTO/RPO durations; empty means unconstrained on that axis).
type ObjectiveSpec struct {
	Kind string `json:"kind"`
	RTO  string `json:"rto,omitempty"`
	RPO  string `json:"rpo,omitempty"`
}

// MCSpec turns a job into a Monte Carlo trial-sharding assignment
// instead of a candidate-space search: the worker samples the trial
// range its Shard selects (opt.Shard bounds semantics over Trials) from
// the campaign the spec describes. Per-trial sub-seeds derive from Seed
// alone, so any sharding reproduces the single-process trial sequence
// byte-identically — which also means K-way cross-validation works
// unchanged: honest shard answers are byte-identical and a disagreeing
// vote is a lie.
type MCSpec struct {
	// Seed is the campaign seed.
	Seed int64 `json:"seed"`
	// Trials is the full campaign's trial count; the job's Shard selects
	// the contiguous range this worker samples.
	Trials int `json:"trials"`
	// Mission is the per-trial mission window in the units duration
	// syntax; empty or zero means the engine default (one year), and a
	// negative window is rejected.
	Mission string `json:"mission,omitempty"`
}

// Validate checks the spec's parameters.
func (s *MCSpec) Validate() error {
	if s.Trials <= 0 {
		return fmt.Errorf("%w: Monte Carlo job needs a positive trial count, got %d", ErrBadJob, s.Trials)
	}
	if s.Mission != "" {
		mission, err := units.ParseDuration(s.Mission)
		if err != nil {
			return fmt.Errorf("%w: Monte Carlo mission: %v", ErrBadJob, err)
		}
		if mission < 0 {
			return fmt.Errorf("%w: Monte Carlo mission %s: %w", ErrBadJob, s.Mission, mc.ErrBadMission)
		}
	}
	return nil
}

// Job is one self-contained shard assignment: everything a worker needs
// to evaluate its slice of the candidate space.
type Job struct {
	Version int `json:"version"`
	// Design is the base design in the internal/config schema.
	Design    json.RawMessage `json:"design"`
	Knobs     []KnobSpec      `json:"knobs"`
	Scenarios []ScenarioSpec  `json:"scenarios"`
	Objective ObjectiveSpec   `json:"objective"`
	Shard     ShardSpec       `json:"shard"`
	// Budget bounds the total space size, as in opt.ExhaustiveOptions.
	Budget int `json:"budget,omitempty"`
	// Workers hints the worker's local pool size; 0 means all CPUs. Any
	// value returns the same Solution.
	Workers int `json:"workers,omitempty"`
	// Prune enables bound-guided subtree pruning on the worker (the
	// admissible floor is derived from Objective, so no extra wire state
	// is needed). The merged Solution is byte-identical either way; only
	// the pruned-vs-assessed split in the Result changes.
	Prune bool `json:"prune,omitempty"`
	// Incumbent, when > 0, seeds the worker's pruning incumbent with a
	// score already achieved by a validated shard of the same search, so
	// later dispatches prune harder. The coordinator pins one incumbent
	// per shard (at first dispatch) because the shard's Result depends on
	// it — K-way validation votes must see identical jobs.
	Incumbent float64 `json:"incumbent,omitempty"`
	// MC, when set, makes this a Monte Carlo trial-sharding job: Knobs,
	// Scenarios and Objective are absent and the worker samples trials
	// instead of evaluating candidates.
	MC *MCSpec `json:"mc,omitempty"`
}

// Encode marshals the job, stamping the current wire version.
func (j *Job) Encode() ([]byte, error) {
	stamped := *j
	stamped.Version = Version
	data, err := json.Marshal(&stamped)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadJob, err)
	}
	return data, nil
}

// DecodeJob unmarshals and structurally validates a job. The design and
// knob contents are validated later, by BuildKnobs and config.Unmarshal,
// so a decoded job may still fail to execute — but it can never panic
// the worker.
func DecodeJob(data []byte) (*Job, error) {
	var j Job
	if err := json.Unmarshal(data, &j); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadJob, err)
	}
	if j.Version != Version {
		return nil, fmt.Errorf("%w: job version %d, want %d", ErrVersion, j.Version, Version)
	}
	if len(j.Design) == 0 {
		return nil, fmt.Errorf("%w: missing design", ErrBadJob)
	}
	if j.MC != nil {
		if err := j.MC.Validate(); err != nil {
			return nil, err
		}
		if len(j.Knobs) != 0 || len(j.Scenarios) != 0 {
			return nil, fmt.Errorf("%w: Monte Carlo job carries search knobs or scenarios", ErrBadJob)
		}
	} else {
		if len(j.Knobs) == 0 {
			return nil, fmt.Errorf("%w: no knobs", ErrBadJob)
		}
		if len(j.Scenarios) == 0 {
			return nil, fmt.Errorf("%w: no scenarios", ErrBadJob)
		}
	}
	if err := j.Shard.Shard().Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadJob, err)
	}
	if j.Budget < 0 || j.Workers < 0 {
		return nil, fmt.Errorf("%w: negative budget or workers", ErrBadJob)
	}
	if j.Incumbent < 0 {
		return nil, fmt.Errorf("%w: negative pruning incumbent", ErrBadJob)
	}
	return &j, nil
}

// ChoiceSpec is the wire form of opt.Choice.
type ChoiceSpec struct {
	Knob   string `json:"knob"`
	Option string `json:"option"`
}

// Result is one shard's answer. A shard whose slice contains no feasible
// candidate (or no candidates at all) reports Feasible false with its
// evaluation count intact — the coordinator still needs that count for
// the merged total to match the unsharded search.
type Result struct {
	Version int       `json:"version"`
	Shard   ShardSpec `json:"shard"`
	// Feasible reports whether the shard found any candidate scoring
	// below +Inf. The solution fields below are only present when true.
	Feasible bool `json:"feasible"`
	// Evaluations counts candidates actually assessed; Pruned counts
	// candidates retired wholesale by an admissible bound without being
	// assessed. Their sum is the shard's slice size, so merged totals
	// stay honest whether or not the worker pruned.
	Evaluations    int `json:"evaluations"`
	Pruned         int `json:"pruned,omitempty"`
	BoundsComputed int `json:"boundsComputed,omitempty"`
	MemoHits       int `json:"memoHits,omitempty"`
	// CandidateIndex is the winner's global index (see opt.Solution);
	// -1 when infeasible.
	CandidateIndex int          `json:"candidateIndex"`
	Score          float64      `json:"score,omitempty"`
	Choices        []ChoiceSpec `json:"choices,omitempty"`
	// Design is the winning design in the internal/config schema.
	Design json.RawMessage `json:"design,omitempty"`
	// MC carries a Monte Carlo shard's observations (Feasible is false
	// and CandidateIndex -1 — a trial shard has no candidate to win).
	MC *MCResult `json:"mc,omitempty"`
}

// MCResult is one Monte Carlo shard's sampled observations.
type MCResult struct {
	// Lo, Hi is the half-open trial range sampled, in global trial
	// indices of the campaign.
	Lo int `json:"lo"`
	Hi int `json:"hi"`
	// Obs holds the per-trial observations, in trial order.
	Obs []mc.Obs `json:"obs"`
	// Digest is mc.Digest(Obs). Decoders and merges recompute it, so a
	// payload corrupted in transit (or truncated by a buggy worker) can
	// never fold into an estimate.
	Digest uint64 `json:"digest"`
}

// Validate checks the range shape and recomputes the payload digest.
func (m *MCResult) Validate() error {
	if m.Lo < 0 || m.Hi < m.Lo {
		return fmt.Errorf("%w: Monte Carlo trial range [%d, %d)", ErrBadResult, m.Lo, m.Hi)
	}
	if len(m.Obs) != m.Hi-m.Lo {
		return fmt.Errorf("%w: Monte Carlo shard carries %d observations for trial range [%d, %d)",
			ErrBadResult, len(m.Obs), m.Lo, m.Hi)
	}
	if d := mc.Digest(m.Obs); d != m.Digest {
		return fmt.Errorf("%w: Monte Carlo payload digest %x, observations hash to %x", ErrBadResult, m.Digest, d)
	}
	return nil
}

// Encode marshals the result, stamping the current wire version.
func (r *Result) Encode() ([]byte, error) {
	stamped := *r
	stamped.Version = Version
	data, err := json.Marshal(&stamped)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadResult, err)
	}
	return data, nil
}

// DecodeResult unmarshals and structurally validates a shard result.
func DecodeResult(data []byte) (*Result, error) {
	var r Result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadResult, err)
	}
	if r.Version != Version {
		return nil, fmt.Errorf("%w: result version %d, want %d", ErrVersion, r.Version, Version)
	}
	if err := r.Shard.Shard().Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadResult, err)
	}
	if r.Evaluations < 0 || r.Pruned < 0 || r.BoundsComputed < 0 {
		return nil, fmt.Errorf("%w: negative evaluation count", ErrBadResult)
	}
	if r.Feasible {
		if r.CandidateIndex < 0 {
			return nil, fmt.Errorf("%w: feasible result without a candidate index", ErrBadResult)
		}
		if len(r.Design) == 0 {
			return nil, fmt.Errorf("%w: feasible result without a design", ErrBadResult)
		}
	} else if r.CandidateIndex != -1 {
		return nil, fmt.Errorf("%w: infeasible result with candidate index %d", ErrBadResult, r.CandidateIndex)
	}
	if r.MC != nil {
		if r.Feasible {
			return nil, fmt.Errorf("%w: Monte Carlo result marked feasible", ErrBadResult)
		}
		if err := r.MC.Validate(); err != nil {
			return nil, err
		}
	}
	return &r, nil
}

// SolutionResult wraps a feasible exhaustive-search Solution for the
// wire; sol must come from exhaustive enumeration (CandidateIndex >= 0).
func SolutionResult(sol *opt.Solution, shard ShardSpec) (*Result, error) {
	if sol.CandidateIndex < 0 {
		return nil, fmt.Errorf("%w: solution has no candidate index (not from exhaustive enumeration)", ErrBadResult)
	}
	design, err := config.Marshal(sol.Design)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadResult, err)
	}
	r := &Result{
		Version:        Version,
		Shard:          shard,
		Feasible:       true,
		Evaluations:    sol.Evaluations,
		Pruned:         sol.CandidatesPruned,
		BoundsComputed: sol.BoundsComputed,
		MemoHits:       sol.MemoHits,
		CandidateIndex: sol.CandidateIndex,
		Score:          float64(sol.Score),
		Design:         design,
	}
	for _, c := range sol.Choices {
		r.Choices = append(r.Choices, ChoiceSpec{Knob: c.Knob, Option: c.Option})
	}
	return r, nil
}

// Solution rebuilds the search-layer Solution, decoding the winning
// design through internal/config. Infeasible results return (nil, nil) —
// the nil entry opt.MergeShards expects for an empty shard.
func (r *Result) Solution() (*opt.Solution, error) {
	if !r.Feasible {
		return nil, nil
	}
	design, err := config.Unmarshal(r.Design)
	if err != nil {
		return nil, fmt.Errorf("%w: design: %v", ErrBadResult, err)
	}
	sol := &opt.Solution{
		Design:           design,
		Score:            units.Money(r.Score),
		Evaluations:      r.Evaluations,
		CandidatesPruned: r.Pruned,
		BoundsComputed:   r.BoundsComputed,
		MemoHits:         r.MemoHits,
		Passes:           1,
		CandidateIndex:   r.CandidateIndex,
	}
	for _, c := range r.Choices {
		sol.Choices = append(sol.Choices, opt.Choice{Knob: c.Knob, Option: c.Option})
	}
	return sol, nil
}
