package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"stordep/internal/casestudy"
	"stordep/internal/config"
	"stordep/internal/core"
	"stordep/internal/failure"
	"stordep/internal/hierarchy"
	"stordep/internal/mc"
	"stordep/internal/opt"
	"stordep/internal/units"
	"stordep/internal/whatif"
)

// server answers one workload's requests. Every request passes through
// the same four layers, each wrapped in a span: decode (the design's
// config JSON), build (core.Build validates and derives the system), run
// (the search or the Monte Carlo trials) and report (the answer the user
// reads, re-derived or folded).
type server interface {
	// serve answers request i, checks the answer and adds to c. It
	// returns the work retired: candidates for a search, trials for a
	// Monte Carlo campaign.
	serve(i int, tr *tracer, c counters) (int, error)
	// verify re-checks the answers served against an independent oracle.
	verify() error
	// classify names the layer a CPU profile sample was spent in.
	classify(s profSample) string
}

// workloads maps each workload name to its set-up: generate the inputs
// from the seed, validate them and serve one warm-up request.
var workloads = map[string]func(seed int64) (server, error){
	"search":    newSearch,
	"mc-mirror": newMCMirror,
}

// penalty draws an hourly penalty rate around the case study's $50k/hr.
func penalty(r *rand.Rand) units.PenaltyRate {
	return units.PerHour(20_000 + 80_000*r.Float64())
}

// ---- search ----

const (
	// searchProblems distinct problems are served round-robin, so a run's
	// latency distribution is a dense mixture rather than a few clusters.
	searchProblems = 32
	// retOptions vault retention counts, times the 12 Table 7
	// combinations, give a 6144-candidate space.
	retOptions = 512
)

type searchProblem struct {
	design []byte // base design, config JSON
	knobs  []opt.Knob
	obj    opt.Objective
	floor  opt.ObjectiveFloor
	// The first answer served; every later answer must repeat it.
	answered bool
	score    units.Money
	index    int
}

type searchServer struct {
	problems []*searchProblem
	scs      []failure.Scenario
}

func newSearch(seed int64) (server, error) {
	r := rand.New(rand.NewSource(seed))
	s := &searchServer{scs: []failure.Scenario{{Scope: failure.ScopeArray}, {Scope: failure.ScopeSite}}}
	for k := 0; k < searchProblems; k++ {
		d := casestudy.Baseline()
		d.Requirements.UnavailPenaltyRate = penalty(r)
		d.Requirements.LossPenaltyRate = penalty(r)
		data, err := config.Marshal(d)
		if err != nil {
			return nil, err
		}
		p := &searchProblem{design: data, knobs: searchKnobs(r)}
		// Alternate the objective, so both floors' prune paths run.
		if k%2 == 0 {
			p.obj, p.floor = opt.WorstTotalObjective(), opt.WorstTotalFloor()
		} else {
			freqs := whatif.TypicalFrequencies()
			p.obj, p.floor = opt.ExpectedObjective(freqs), opt.ExpectedFloor(freqs)
		}
		s.problems = append(s.problems, p)
	}
	if _, err := s.serve(0, nil, counters{}); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return s, nil
}

// searchKnobs is the Table 7 knob space (vault policy, backup policy,
// split mirror or snapshot) times a sweep over retOptions vault retention
// counts drawn from 1..1024.
func searchKnobs(r *rand.Rand) []opt.Knob {
	weeklyVault := casestudy.VaultPolicy()
	weeklyVault.Primary.AccW = units.Week
	weeklyVault.Primary.HoldW = 12 * time.Hour
	weeklyVault.RetCnt = 156

	dailyF := casestudy.BackupPolicy()
	dailyF.Primary.AccW = units.Day
	dailyF.Primary.PropW = 12 * time.Hour
	dailyF.RetCnt = 28

	fi := casestudy.BackupPolicy()
	fi.Primary.AccW = 2 * units.Day
	fi.Primary.PropW = 2 * units.Day
	fi.Secondary = &hierarchy.WindowSet{
		AccW: units.Day, PropW: 12 * time.Hour, HoldW: time.Hour,
		Rep: hierarchy.RepPartial,
	}
	fi.CycleCnt = 5

	ret := r.Perm(2 * retOptions)[:retOptions]
	for i := range ret {
		ret[i]++
	}
	sort.Ints(ret)

	return []opt.Knob{
		opt.PolicyKnob("vaulting",
			[]string{"4-weekly", "weekly"},
			[]hierarchy.Policy{casestudy.VaultPolicy(), weeklyVault}),
		opt.PolicyKnob("backup",
			[]string{"weekly full", "F+I", "daily full"},
			[]hierarchy.Policy{casestudy.BackupPolicy(), fi, dailyF}),
		opt.PiTKnob("split-mirror"),
		opt.RetCntKnob("vaulting", ret),
	}
}

func (s *searchServer) serve(i int, tr *tracer, c counters) (int, error) {
	p := s.problems[i%len(s.problems)]
	d, err := decodeAndBuild(p.design, tr)
	if err != nil {
		return 0, err
	}
	var (
		sol *opt.Solution
		st  opt.SearchStats
	)
	if err := tr.layer("run", func() (err error) {
		sol, err = opt.ExhaustiveOpts(d, p.knobs, s.scs, p.obj, opt.ExhaustiveOptions{
			Workers: 1, Prune: true, Floor: p.floor, Stats: &st,
		})
		return err
	}); err != nil {
		return 0, err
	}
	c["assessed"] += float64(st.Assessed)
	c["pruned"] += float64(st.Pruned)
	c["bounds"] += float64(st.BoundsComputed)

	// The report re-assesses the winner through the full what-if path;
	// its score must equal the one the compiled search reported.
	var score units.Money
	_ = tr.layer("report", func() error {
		score = p.obj(whatif.EvaluateOne(sol.Design, s.scs))
		return nil
	})
	if score != sol.Score {
		return 0, fmt.Errorf("winner #%d re-assessed at %v, search reported %v", sol.CandidateIndex, score, sol.Score)
	}
	if !p.answered {
		p.answered, p.score, p.index = true, sol.Score, sol.CandidateIndex
	} else if sol.Score != p.score || sol.CandidateIndex != p.index {
		return 0, fmt.Errorf("answer changed: #%d %v, first #%d %v", sol.CandidateIndex, sol.Score, p.index, p.score)
	}
	return st.Assessed + st.Pruned, nil
}

// verify runs each answered problem once more without pruning; the
// unpruned search is the oracle the pruned one must match exactly.
func (s *searchServer) verify() error {
	for k, p := range s.problems {
		if !p.answered {
			continue
		}
		d, err := config.Unmarshal(p.design)
		if err != nil {
			return err
		}
		sol, err := opt.ExhaustiveOpts(d, p.knobs, s.scs, p.obj, opt.ExhaustiveOptions{Workers: 1})
		if err != nil {
			return fmt.Errorf("problem %d: %w", k, err)
		}
		if sol.Score != p.score || sol.CandidateIndex != p.index {
			return fmt.Errorf("problem %d: pruned answer #%d %v, unpruned #%d %v",
				k, p.index, p.score, sol.CandidateIndex, sol.Score)
		}
	}
	return nil
}

// classify splits search CPU by the optimizer's pprof phase labels.
func (s *searchServer) classify(p profSample) string {
	if p.gc() {
		return "gc"
	}
	switch ph := p.labels["phase"]; ph {
	case "compile", "batch", "prune", "reduce":
		return ph
	}
	return "other"
}

// ---- Monte Carlo ----

type mcServer struct {
	designs [][]byte // config JSON
	seed    int64
	// digests holds the report digests of the first few requests, which
	// verify re-samples on two workers.
	digests map[int]uint64
}

// mcVerified requests are re-run by verify.
const mcVerified = 2

// mcTrials is the trial count of one request's campaign: one trial is a
// one-year mission of one-minute mirror batches, about half a million
// retrieval points to replay.
const mcTrials = 1

// newMCMirror serves campaigns over four async-mirror designs with 1 to
// 10 WAN links. Operator faults stay off, so every trial replays its
// history exactly once.
func newMCMirror(seed int64) (server, error) {
	r := rand.New(rand.NewSource(seed))
	s := &mcServer{seed: seed, digests: map[int]uint64{}}
	for k := 0; k < 4; k++ {
		d := casestudy.AsyncBMirror(1 + r.Intn(10))
		d.Requirements.UnavailPenaltyRate = penalty(r)
		d.Requirements.LossPenaltyRate = penalty(r)
		data, err := config.Marshal(d)
		if err != nil {
			return nil, err
		}
		s.designs = append(s.designs, data)
	}
	if _, err := s.serve(0, nil, counters{}); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return s, nil
}

// campaign returns request i's campaign; every request samples its own
// trials.
func (s *mcServer) campaign(i int, d *core.Design, workers int) *mc.Campaign {
	return &mc.Campaign{
		Design:  d,
		Seed:    s.seed*1_000_003 + int64(i),
		Trials:  mcTrials,
		Workers: workers,
	}
}

func (s *mcServer) serve(i int, tr *tracer, c counters) (int, error) {
	d, err := decodeAndBuild(s.designs[i%len(s.designs)], tr)
	if err != nil {
		return 0, err
	}
	camp := s.campaign(i, d, 1)
	var obs []mc.Obs
	if err := tr.layer("run", func() (err error) {
		obs, err = camp.Sample(0, camp.Trials)
		return err
	}); err != nil {
		return 0, err
	}
	var rep *mc.Report
	if err := tr.layer("report", func() (err error) {
		rep, err = camp.Estimate(obs)
		return err
	}); err != nil {
		return 0, err
	}

	c["trials"] += float64(rep.Trials)
	c["events"] += float64(rep.Events)
	c["boundChecks"] += float64(rep.BoundChecks)
	for _, o := range obs {
		if o.Events == 0 && o.CorrEvents == 0 && o.OpEvents == 0 {
			c["eventless"]++
		}
	}

	if err := checkReport(rep); err != nil {
		return 0, err
	}
	if i < mcVerified {
		if prev, ok := s.digests[i]; ok && prev != rep.Digest {
			return 0, fmt.Errorf("digest %x, earlier run of the same request %x", rep.Digest, prev)
		}
		s.digests[i] = rep.Digest
	}
	return rep.Trials, nil
}

// checkReport checks a campaign report's invariants: every trial
// folded, no sampled event beyond its analytic bound, and estimates that
// are fractions.
func checkReport(rep *mc.Report) error {
	if rep.Trials != mcTrials {
		return fmt.Errorf("report folds %d trials, want %d", rep.Trials, mcTrials)
	}
	if rep.BoundViolations != 0 {
		return fmt.Errorf("%d analytic-bound violations", rep.BoundViolations)
	}
	for name, e := range map[string]mc.Estimate{
		"availability": rep.Availability, "durability": rep.Durability,
		"perf-availability": rep.PerfAvailability,
	} {
		if !(e.Lo <= e.Value && e.Value <= e.Hi && e.Lo >= 0 && e.Hi <= 1) {
			return fmt.Errorf("%s estimate %+v is not a fraction with its interval", name, e)
		}
	}
	return nil
}

// verify re-samples the first requests as two-trial campaigns on two
// workers. By the determinism contract a trial's observations depend only
// on the campaign seed and the trial index, whatever the worker count or
// trial range, so the first trial must digest as the one-trial request
// did.
func (s *mcServer) verify() error {
	for i, want := range s.digests {
		d, err := config.Unmarshal(s.designs[i%len(s.designs)])
		if err != nil {
			return err
		}
		c := s.campaign(i, d, 2)
		c.Trials = 2
		obs, err := c.Sample(0, c.Trials)
		if err != nil {
			return fmt.Errorf("request %d: %w", i, err)
		}
		if got := mc.Digest(obs[:mcTrials]); got != want {
			return fmt.Errorf("request %d: first trial digests %x in a two-trial campaign on two workers, %x alone", i, got, want)
		}
	}
	return nil
}

// classify splits Monte Carlo CPU by the trial step a sample was spent
// in, named by the function the trial loop called: sampling the fault
// schedule, replaying the RP history, or measuring events against it
// (the trial loop's own code counts as measuring). Folding is the
// estimator.
func (s *mcServer) classify(p profSample) string {
	const trial = "stordep/internal/mc.(*runner).trial"
	for k, fn := range p.funcs {
		switch {
		case fn == trial:
			if k == 0 {
				return "measure"
			}
			return trialStep(p.funcs[k-1])
		case fn == "stordep/internal/mc.(*Campaign).Estimate":
			return "fold"
		}
	}
	if p.gc() {
		return "gc"
	}
	return "other"
}

// trialStep names the trial step a function called from the trial loop
// belongs to.
func trialStep(callee string) string {
	switch {
	case strings.HasPrefix(callee, "stordep/internal/sim.(*Simulator).Run"),
		strings.HasPrefix(callee, "stordep/internal/sim.(*Simulator).Add"),
		strings.HasPrefix(callee, "stordep/internal/sim.New"):
		return "replay"
	case strings.HasPrefix(callee, "stordep/internal/mc.sampleDevice"),
		strings.HasPrefix(callee, "stordep/internal/mc.(*runner).sample"),
		strings.HasPrefix(callee, "stordep/internal/mc.mergeIntervals"),
		strings.HasPrefix(callee, "stordep/internal/mc.expGap"),
		strings.HasPrefix(callee, "stordep/internal/rng."),
		strings.HasPrefix(callee, "math/rand."),
		strings.HasPrefix(callee, "sort."): // ordering the sampled arrivals
		return "sample"
	}
	return "measure"
}

// decodeAndBuild runs the decode and build layers of a request.
func decodeAndBuild(data []byte, tr *tracer) (*core.Design, error) {
	var d *core.Design
	if err := tr.layer("decode", func() (err error) {
		d, err = config.Unmarshal(data)
		return err
	}); err != nil {
		return nil, err
	}
	if err := tr.layer("build", func() error {
		_, err := core.Build(d)
		return err
	}); err != nil {
		return nil, err
	}
	return d, nil
}
