// Package mc is the Monte Carlo dependability engine: where the paper's
// framework reports worst-case recovery time and data loss for one
// *specified* fault scenario, mc samples fault schedules from per-device
// failure/repair distributions (device.Reliability) and disaster
// arrivals from per-scope annual rates, replays each trial through the
// retrieval-point simulator (internal/sim), and aggregates trials into
// availability, durability and performance-availability "nines" with
// confidence intervals — the failure-rate-space view the related
// reliability literature works in, reported next to the analytic bounds.
//
// Determinism contract: every trial draws its streams from sub-seeds
// derived via internal/rng from (campaign seed, trial index) alone, and
// estimation is a sequential fold over observations in trial order, so
// a campaign is byte-identical for any worker count and for any
// distributed sharding that returns trial ranges in order.
//
// Cross-model invariant: every sampled trial checks its simulated loss
// against the analytic worst-case bound for the sampled scenario —
// chaos.AnalyticBound, the exact function the chaos engine defends,
// including its documented skip rules — and its simulated recovery time
// against the analytic worst-case assessment. Violations are counted in
// the observations and surfaced in the report; tests pin them to zero.
//
// Pooled storage: a trial draws one scratch from a package pool when it
// starts and returns it when it ends. The scratch holds everything the
// trial used to allocate: the device down intervals and their merge
// buffer, the level outages, disaster events, operator-fault arrivals,
// query instants and history windows, the simulator Histories the
// windows replay into (sim.Simulator.Run replays into storage handed
// back), the per-scope analytic contexts, the per-(level, age) bound
// cache with the trial's degraded chain (chaos.Bounds), and one random
// stream that rng.Reseed re-seeds for each process. A campaign's runner
// tables come from a second pool and return when its trials end. A
// trial reuses what the trials before it on the same scratch left, so
// once warm it allocates almost nothing; its Obs holds no pointer, so
// nothing pooled outlives the trial. TestTrialScratchReuse and
// TestTrialScratchConcurrent hold a trial on a used scratch to the Obs a
// fresh one gives.
package mc

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"time"

	"stordep/internal/chaos"
	"stordep/internal/core"
	"stordep/internal/cost"
	"stordep/internal/device"
	"stordep/internal/failure"
	"stordep/internal/hierarchy"
	"stordep/internal/parallel"
	"stordep/internal/protect"
	"stordep/internal/recovery"
	"stordep/internal/rng"
	"stordep/internal/sim"
	"stordep/internal/units"
	"stordep/internal/whatif"
)

// DefaultMission is the steady-state observation window per trial. One
// year keeps trials cheap and makes penalty sums read directly as
// annual figures.
const DefaultMission = units.Year

// Campaign configures one Monte Carlo dependability campaign over a
// single design.
type Campaign struct {
	// Design is the evaluated design. It is not mutated.
	Design *core.Design
	// Seed selects the campaign's random streams.
	Seed int64
	// Trials is the number of independent trials.
	Trials int
	// Workers bounds trial concurrency (anything < 1 means NumCPU).
	// The result is byte-identical for every worker count.
	Workers int
	// Mission is the steady-state observation window per trial
	// (DefaultMission when zero). It starts after the simulator's
	// warm-up, and each trial observes only the window.
	Mission time.Duration
	// Rates maps failure scopes to annual event rates
	// (whatif.TypicalFrequencies when nil).
	Rates whatif.Frequencies
	// Op holds annual arrival rates for operator faults and correlated
	// common-mode outages (all zero — disabled — by default). Enabling a
	// rate never perturbs the device or disaster schedules: each process
	// draws from its own stream.
	Op OpRates
}

// Obs is one trial's observations — the unit of exchange between
// workers, shards and the estimator. All aggregation happens in
// Estimate's sequential fold, so Obs must capture everything a trial
// contributes.
type Obs struct {
	// Events counts processed failure events.
	Events int `json:"events"`
	// Downtime is service downtime inside the mission window: the sum
	// of per-event recovery times (capped at the window).
	Downtime time.Duration `json:"downtime"`
	// DegTime is the time protection was degraded: the union of level
	// outages intersected with the mission window.
	DegTime time.Duration `json:"degTime"`
	// LossTime is the summed data-loss durations across events. An
	// unrecoverable event charges the entire history at the failure
	// instant (the age of the oldest update) rather than Forever, so
	// expected costs stay finite and comparable.
	LossTime time.Duration `json:"lossTime"`
	// Lost reports an unrecoverable event: the trial's data did not
	// survive the mission (a durability failure).
	Lost bool `json:"lost,omitempty"`
	// Penalty is the trial's summed penalty cost in dollars over the
	// mission window (unavailability plus loss penalties at the
	// design's rates).
	Penalty float64 `json:"penalty"`
	// BoundChecks / BoundSkips / BoundViolations are the cross-model
	// invariant ledger: per event and surviving level, the simulated
	// loss is compared against chaos.AnalyticBound, and the simulated
	// recovery time against the analytic worst-case assessment. Skips
	// are the bound's documented gaps (target past retention, covered
	// band under outage).
	BoundChecks     int `json:"boundChecks"`
	BoundSkips      int `json:"boundSkips,omitempty"`
	BoundViolations int `json:"boundViolations,omitempty"`
	// CorrEvents counts sampled correlated common-mode outages; OpEvents
	// counts sampled operator faults (wrong recovery, silent non-write).
	CorrEvents int `json:"corrEvents,omitempty"`
	OpEvents   int `json:"opEvents,omitempty"`
	// OpDetected / OpEscapes split the operator faults by whether the
	// detection-coverage model catches them (see internal/chaos's
	// op-detection invariant — the same classification rules).
	OpDetected int `json:"opDetected,omitempty"`
	OpEscapes  int `json:"opEscapes,omitempty"`
	// OpDowntime / OpLossTime are the shares of Downtime and LossTime
	// attributed to operator faults, so reports can show dependability
	// with and without the operator-fault contribution.
	OpDowntime time.Duration `json:"opDowntime,omitempty"`
	OpLossTime time.Duration `json:"opLossTime,omitempty"`
}

// Campaign validation errors.
var (
	ErrNoDesign   = errors.New("mc: campaign needs a design")
	ErrBadTrials  = errors.New("mc: trials must be positive")
	ErrBadRange   = errors.New("mc: invalid trial range")
	ErrBadMission = errors.New("mc: mission must not be negative")
	// ErrMultiSited refuses a design with a level whose copies span
	// several devices with a survival threshold (protect.MultiSited, an
	// erasure code). A trial takes a level out whenever any one of its
	// devices is down, where the analytic model keeps such a level
	// serving while SurvivalThreshold of them survive, so a campaign
	// would overstate its degraded time.
	ErrMultiSited = errors.New("mc: multi-sited levels are not modeled")
)

// systems pools the Systems campaigns build their designs into
// (core.System.Rebuild).
var systems = sync.Pool{New: func() any { return new(core.System) }}

// build builds the campaign's design into a System drawn from the pool.
// The caller returns it with releaseSystem when its call ends; nothing
// the call returns points into it.
func (c *Campaign) build() (*core.System, error) {
	if c.Design == nil {
		return nil, ErrNoDesign
	}
	sys := systems.Get().(*core.System)
	if err := sys.Rebuild(c.Design); err != nil {
		releaseSystem(sys)
		return nil, fmt.Errorf("mc: %w", err)
	}
	for _, tech := range c.Design.Levels {
		if _, ok := tech.(protect.MultiSited); ok {
			releaseSystem(sys)
			return nil, fmt.Errorf("%w: level %q", ErrMultiSited, tech.Name())
		}
	}
	return sys, nil
}

// releaseSystem resets a System build drew, dropping its references to
// the campaign's design, and returns it to the pool.
func releaseSystem(sys *core.System) {
	sys.Reset()
	systems.Put(sys)
}

// mission returns the per-trial mission window: Mission, or
// DefaultMission when it is zero.
func (c *Campaign) mission() (time.Duration, error) {
	switch {
	case c.Mission < 0:
		return 0, fmt.Errorf("%w: %v", ErrBadMission, c.Mission)
	case c.Mission == 0:
		return DefaultMission, nil
	}
	return c.Mission, nil
}

// Run samples every trial and estimates the dependability report,
// building the design once for both.
func (c *Campaign) Run() (*Report, error) {
	if err := c.checkRange(0, c.Trials); err != nil {
		return nil, err
	}
	sys, err := c.build()
	if err != nil {
		return nil, err
	}
	defer releaseSystem(sys)
	obs, err := c.sample(sys, 0, c.Trials)
	if err != nil {
		return nil, err
	}
	return c.estimate(sys, obs)
}

// Sample runs trials [lo, hi) and returns their observations in trial
// order. Distributed shards each sample a contiguous range; because a
// trial's streams depend only on (seed, trial), the concatenation of
// range results is byte-identical to a single-process run.
func (c *Campaign) Sample(lo, hi int) ([]Obs, error) {
	if err := c.checkRange(lo, hi); err != nil {
		return nil, err
	}
	sys, err := c.build()
	if err != nil {
		return nil, err
	}
	defer releaseSystem(sys)
	return c.sample(sys, lo, hi)
}

// checkRange validates the trial count and the range [lo, hi) of it.
func (c *Campaign) checkRange(lo, hi int) error {
	if c.Trials <= 0 {
		return fmt.Errorf("%w: %d", ErrBadTrials, c.Trials)
	}
	if lo < 0 || hi < lo || hi > c.Trials {
		return fmt.Errorf("%w: [%d, %d) of %d", ErrBadRange, lo, hi, c.Trials)
	}
	return nil
}

// sample runs trials [lo, hi) of the campaign over sys, its built
// design. Each trial runs on a scratch drawn from the pool and returned
// when the trial ends.
func (c *Campaign) sample(sys *core.System, lo, hi int) ([]Obs, error) {
	r, err := c.runner(sys)
	if err != nil {
		return nil, err
	}
	defer r.release()
	return parallel.Map(c.Workers, hi-lo, func(i int) (Obs, error) {
		s := scratches.Get().(*scratch)
		defer s.release()
		return r.trial(s, lo+i)
	})
}

// typicalRates is whatif.TypicalFrequencies, built once: a campaign with
// nil Rates reads it and never writes it.
var typicalRates = whatif.TypicalFrequencies()

// runner is the per-campaign state shared by all trials, immutable while
// they run: the built system, its simulator, the mission window, and the
// device/level wiring. Its tables come from a pool (runners) and return
// to it when the campaign's trials end, since a small campaign (one trial
// per request) would otherwise allocate them for every trial.
type runner struct {
	c       *Campaign
	sys     *core.System
	chain   hierarchy.Chain
	sm      *sim.Simulator
	start   time.Duration // mission window start (post warm-up)
	end     time.Duration // mission window end = simulation horizon
	mission time.Duration
	rates   whatif.Frequencies
	// levelDevs maps each chain level (0-based) to the indexes into
	// Design.Devices of the devices whose failure takes the level out.
	// All levels' indexes share one array, flat.
	levelDevs [][]int
	flat      []int
	// rel holds each sampled device's effective reliability model.
	rel []device.Reliability
	// sampled marks devices referenced by at least one level.
	sampled []bool
	// all lists every level (1-based), for queries over the whole chain.
	all []int
	// names holds one level's device names while levelDevs is built.
	names []string
}

var runners = sync.Pool{New: func() any { return new(runner) }}

// runner draws a runner from the pool and readies it for the campaign
// over sys, its built design. The caller returns it with release.
func (c *Campaign) runner(sys *core.System) (*runner, error) {
	chain := sys.Chain()
	sm, err := sim.New(chain)
	if err != nil {
		return nil, fmt.Errorf("mc: %w", err)
	}
	mission, err := c.mission()
	if err != nil {
		return nil, err
	}
	rates := c.Rates
	if rates == nil {
		rates = typicalRates
	}
	r := runners.Get().(*runner)
	r.c, r.sys, r.chain, r.sm = c, sys, chain, sm
	r.start = chaos.CeilMinute(sm.WarmUp())
	r.mission, r.end = mission, r.start+mission
	r.rates = rates
	nd := len(c.Design.Devices)
	r.rel = sized(r.rel, nd)
	r.sampled = sized(r.sampled, nd)
	for i := range c.Design.Devices {
		r.rel[i] = c.Design.Devices[i].Spec.Rates()
		r.sampled[i] = false
	}
	r.all = sized(r.all, len(chain))
	for i := range r.all {
		r.all[i] = i + 1
	}
	// Names are unique and few, so a scan finds each.
	r.levelDevs = sized(r.levelDevs, len(c.Design.Levels))
	r.flat = r.flat[:0]
	for li, tech := range c.Design.Levels {
		start := len(r.flat)
		r.names = core.LevelDeviceNames(r.names[:0], tech)
		for _, name := range r.names {
			for i := range c.Design.Devices {
				if c.Design.Devices[i].Spec.Name == name {
					r.flat = append(r.flat, i)
					r.sampled[i] = true
					break
				}
			}
		}
		r.levelDevs[li] = r.flat[start:len(r.flat):len(r.flat)]
	}
	return r, nil
}

// release returns the runner to the pool, dropping its references to
// the campaign's design.
func (r *runner) release() {
	r.c, r.sys, r.chain, r.sm, r.rates = nil, nil, nil, nil, nil
	clear(r.names)
	runners.Put(r)
}

// sized returns buf resliced to length n, reallocated when its capacity
// is short. Its elements keep whatever they held.
func sized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// interval is one closed-open down period.
type interval struct{ from, to time.Duration }

// scratch is one trial's working storage: every schedule, buffer, cache
// and random stream the trial fills, kept so that the next trial on the
// same scratch refills them in place. A trial draws a scratch from the
// pool (scratches) when it starts and returns it when it ends; nothing a
// trial returns points into it.
type scratch struct {
	// rand is every random stream of the trial, re-seeded by rng.Reseed
	// before each; the trial draws each stream to its end before it
	// seeds the next.
	rand *rand.Rand
	// downs holds each device's down intervals; ivs is the buffer each
	// level's intervals are merged in.
	downs   [][]interval
	ivs     []interval
	commons []interval
	outs    []sim.Outage
	evs     []event
	// arrivals holds one operator-fault process's arrival instants.
	arrivals []time.Duration
	silents  []sim.SilentFault
	wrongs   []wrongRecovery
	// ats are the trial's query instants; probes one silent fault's.
	ats    []time.Duration
	probes []time.Duration
	hist   histories
	// bounds derives the analytic bounds and the degraded chain once per
	// trial; boundCache memoizes each (level, age) bound it is asked.
	bounds     chaos.Bounds
	boundCache []boundEntry
	// ctxs caches the analytic context of each scope, valid where
	// resolved; plan is core's plan storage.
	ctxs [failure.ScopeRegion + 1]eventContext
	plan core.Scratch
	one  [1]int
}

var scratches = sync.Pool{New: func() any { return new(scratch) }}

// release returns the scratch to the pool, dropping its references to
// the trial's campaign.
func (s *scratch) release() {
	s.hist.r = nil
	s.bounds.Reset(nil, nil)
	scratches.Put(s)
}

// trial runs one trial on the scratch s and returns its observations.
func (r *runner) trial(s *scratch, trial int) (Obs, error) {
	tseed := rng.SubSeed(r.c.Seed, trial)

	// 1. Per-device down intervals. Each sampled device draws from its
	// own sub-stream (seeded by device index), so adding or removing an
	// unrelated device leaves other devices' schedules unchanged.
	s.downs = sized(s.downs, len(r.rel))
	for di := range r.rel {
		s.downs[di] = s.downs[di][:0]
		if r.sampled[di] {
			s.rand = rng.Reseed(s.rand, tseed, di)
			s.downs[di] = sampleDevice(s.downs[di], s.rand, r.rel[di], r.end)
		}
	}

	// 1b. Correlated common-mode outages: each sampled event takes every
	// protection level down at once (shared infrastructure, regional
	// scope) — the correlation the per-device renewal processes cannot
	// express.
	commons := r.sampleCommonOutages(s, tseed)

	// 2. Level outages: the union of the level's devices' down periods
	// plus every common-mode window. A failed device aborts in-flight
	// transfers — RPs mid-propagation when the device dies are
	// destroyed, and the analytic side charges the level's transfer lag
	// on top (chaos.EffectiveOutages).
	outs := s.outs[:0]
	for li, devs := range r.levelDevs {
		ivs := s.ivs[:0]
		for _, di := range devs {
			ivs = append(ivs, s.downs[di]...)
		}
		ivs = append(ivs, commons...)
		for _, iv := range mergeIntervals(ivs) {
			outs = append(outs, sim.Outage{Level: li + 1, From: iv.from, To: iv.to, AbortInFlight: true})
		}
		s.ivs = ivs
	}
	s.outs = outs

	// 3. Disaster arrivals, and 3b. operator faults: silent non-write
	// windows corrupt the RP history itself, wrong recoveries are
	// classified and charged after the event loop.
	evs := r.sampleDisasters(s, tseed)
	silents := r.sampleSilentFaults(s, tseed)
	wrongs := r.sampleWrongRecoveries(s, tseed)

	// 4. Lay out the RP history the trial's queries can observe: its event
	// instants, each silent fault's probe grid and its wrong recoveries.
	// A window replays on its first query, so the windows after the
	// query that ends the trial cost nothing, and a replay error fails
	// the trial there. When silent faults are present a clean shadow
	// history (same outages, no silents) anchors the cross-model bound
	// ledger and detection baselines: the analytic bound is fault-unaware
	// by design, so comparing it against the faulted history would
	// conflate model violations with the detection channel.
	ats := s.ats[:0]
	for _, ev := range evs {
		ats = append(ats, ev.at)
	}
	for _, f := range silents {
		ats = r.appendProbes(ats, f)
	}
	for _, wr := range wrongs {
		ats = append(ats, wr.at)
	}
	s.ats = ats
	hist := &s.hist
	r.replay(hist, ats, outs, silents)
	fail := func(err error) (Obs, error) {
		return Obs{}, fmt.Errorf("mc: trial %d: %w", trial, err)
	}

	var o Obs
	o.CorrEvents = len(commons)
	o.DegTime, s.ivs = unionWithin(s.ivs, outs, r.start, r.end)

	// 5. Measure each failure event. Analytic context is cached per
	// scope and bounds per level and age — they depend on the trial's
	// schedule, not the event instant.
	s.resetBounds(r.chain, outs)
	req := r.c.Design.Requirements
	lostAt := r.end
	for _, ev := range evs {
		sc := scenarioFor(ev.scope)
		ctx := r.context(s, sc)
		h, err := hist.at(ev.at)
		if err != nil {
			return fail(err)
		}
		o.Events++

		// Cross-model invariant: per surviving level, simulated loss
		// must respect the analytic bound (same function, same skip
		// rules as the chaos engine).
		for _, j := range ctx.surviving {
			bound, ok := s.bound(j, sc.TargetAge)
			if !ok {
				o.BoundSkips++
				continue
			}
			s.one[0] = j
			loss, _, lok := h.clean.Loss(s.one[:], ev.at, sc.TargetAge)
			if !lok {
				continue
			}
			o.BoundChecks++
			if loss > bound {
				o.BoundViolations++
			}
		}

		plan, ok := h.s.Plan(ctx.surviving, ev.at, sc.TargetAge)
		if !ok {
			// Unrecoverable: a durability failure. The service is down
			// for the rest of the mission and the whole history at the
			// failure instant is charged as loss (kept finite so
			// expected costs stay comparable across candidates).
			o.Lost = true
			o.LossTime += ev.at
			o.Downtime += r.end - ev.at
			o.Penalty += float64(req.UnavailPenaltyRate.Over(r.end-ev.at) + req.LossPenaltyRate.Over(ev.at))
			lostAt = ev.at
			break
		}
		o.LossTime += plan.Loss
		rt := r.eventRT(ctx, plan)
		if rt > ctx.rtBound {
			// By construction (data-bearing steps are scaled to at most
			// the simulated restore volume) this cannot fire while the
			// analytic assessment is finite; the ledger records it
			// anyway so the invariant is observable, not assumed.
			o.BoundViolations++
		} else if ctx.rtBound < units.Forever {
			o.BoundChecks++
		}
		if rt > r.end-ev.at {
			rt = r.end - ev.at // recovery runs past the mission window
		}
		o.Downtime += rt
		o.Penalty += float64(cost.Assess(req, rt, plan.Loss).Total())
	}

	// 6. Classify and charge the trial's operator faults. Silent windows
	// are always classified (detection coverage is observed even when
	// the trial later loses its data); wrong recoveries after an
	// unrecoverable event have nothing left to restore.
	for _, f := range silents {
		if err := r.classifySilentFault(s, &o, f); err != nil {
			return fail(err)
		}
	}
	for _, wr := range wrongs {
		if wr.at >= lostAt {
			break
		}
		h, err := hist.at(wr.at)
		if err != nil {
			return fail(err)
		}
		r.applyWrongRecovery(s, &o, h.clean, wr)
	}
	if o.Downtime > r.mission {
		o.Downtime = r.mission
	}
	return o, nil
}

// sampleDisasters draws the trial's disaster arrivals in time order: a
// Poisson process per failure scope over the mission window, each scope
// on its own sub-stream (negative index space, disjoint from the device
// streams). Gaps are drawn in float64 year space — rare scopes have mean
// gaps of centuries, which overflow time.Duration — and only in-window
// arrivals are converted back to instants.
func (r *runner) sampleDisasters(s *scratch, tseed int64) []event {
	evs := s.evs[:0]
	missionYears := float64(r.mission) / float64(units.Year)
	for si, scope := range failure.Scopes() {
		freq := r.rates[scope]
		if freq <= 0 {
			continue
		}
		s.rand = rng.Reseed(s.rand, tseed, -1-si)
		er := s.rand
		for t := expGap(er, freq); t < missionYears; t += expGap(er, freq) {
			at := chaos.CeilMinute(r.start + time.Duration(t*float64(units.Year)))
			if at >= r.end {
				break
			}
			evs = append(evs, event{at: at, scope: scope})
		}
	}
	slices.SortStableFunc(evs, func(a, b event) int { return cmp.Compare(a.at, b.at) })
	s.evs = evs
	return evs
}

type event struct {
	at    time.Duration
	scope failure.Scope
}

// history is the RP history of one query window: the faulted run and
// its clean shadow (the same simulator when the trial has no silent
// faults), both nil until the window's first query replays them.
type history struct {
	from, to time.Duration
	s, clean *sim.History
}

// histories are a trial's query windows in time order, disjoint, with
// the faults every window replays under. store holds the Histories
// earlier trials on the same scratch replayed into, the first used of
// them by this trial's replays.
type histories struct {
	r       *runner
	outs    []sim.Outage
	silents []sim.SilentFault
	wins    []history
	store   []*sim.History
	used    int
}

// at returns the history of the window holding query instant t, the
// first window that ends at or after it, replaying the window on its
// first query. A trial's queries often read few of its windows: an async
// mirror's first object-scope event is unrecoverable and ends the event
// loop. A replay error does not depend on the window: Run rejects a
// fault, and every window replays them all.
func (h *histories) at(t time.Duration) (*history, error) {
	i := 0
	for i < len(h.wins)-1 && h.wins[i].to < t {
		i++
	}
	w := &h.wins[i]
	if w.s != nil {
		return w, nil
	}
	s, err := h.run(h.silents, w)
	if err != nil {
		return nil, err
	}
	clean := s
	if len(h.silents) > 0 {
		if clean, err = h.run(nil, w); err != nil {
			return nil, err
		}
	}
	w.s, w.clean = s, clean
	return w, nil
}

// run replays window w under the trial's outages and the given silent
// faults into the next History of the store, adding one when the store
// is used up.
func (h *histories) run(silents []sim.SilentFault, w *history) (*sim.History, error) {
	var into *sim.History
	if h.used < len(h.store) {
		into = h.store[h.used]
	}
	s, err := h.r.sm.Run(into, h.outs, silents, w.from, w.to)
	if err != nil {
		return nil, err
	}
	if into == nil {
		h.store = append(h.store, s)
	}
	h.used++
	return s, nil
}

// replay lays out in h the RP history windows the query instants can
// observe; histories.at replays each on its first query. A query at T
// reads nothing that fired before T-lookback (sim.Simulator.Lookback
// gives the proof), so each instant needs the window
// [max(0, T-lookback), T], clamped to the mission end. Overlapping
// windows merge, and each merged window is replayed at most once, plus
// once more without the silent faults for the clean history when there
// are any.
func (r *runner) replay(h *histories, ats []time.Duration, outs []sim.Outage, silents []sim.SilentFault) {
	slices.Sort(ats)
	lookback := r.sm.Lookback()
	h.r, h.outs, h.silents = r, outs, silents
	h.wins, h.used = h.wins[:0], 0
	for _, at := range ats {
		to := min(at, r.end)
		from := max(0, to-lookback)
		if n := len(h.wins); n > 0 && from <= h.wins[n-1].to {
			h.wins[n-1].to = to
			continue
		}
		h.wins = append(h.wins, history{from: from, to: to})
	}
}

// expGap draws one exponential inter-arrival gap in years for a process
// with the given annual rate.
func expGap(r *rand.Rand, ratePerYear float64) float64 {
	return -math.Log(1-r.Float64()) / ratePerYear
}

// boundEntry is one memoized analytic bound of a trial.
type boundEntry struct {
	level int
	age   time.Duration
	bound time.Duration
	ok    bool
}

// resetBounds readies the trial's analytic side for its schedule: the
// bounds and degraded chain of outs, and no context or bound resolved.
func (s *scratch) resetBounds(chain hierarchy.Chain, outs []sim.Outage) {
	s.bounds.Reset(chain, outs)
	s.boundCache = s.boundCache[:0]
	for i := range s.ctxs {
		s.ctxs[i].resolved = false
	}
}

// bound returns chaos.AnalyticBound for level j at the target age under
// the trial's schedule, resolving each (level, age) once. A trial asks
// for a handful, so a scan finds them.
func (s *scratch) bound(j int, age time.Duration) (time.Duration, bool) {
	for _, b := range s.boundCache {
		if b.level == j && b.age == age {
			return b.bound, b.ok
		}
	}
	bound, ok := s.bounds.Bound(j, age)
	s.boundCache = append(s.boundCache, boundEntry{level: j, age: age, bound: bound, ok: ok})
	return bound, ok
}

// eventContext caches the analytic context for one scope under one
// trial's schedule: surviving levels, the worst-case recovery plan, and
// the analytic recovery-time bound. Its slices are the scratch's, reused
// by the next trial.
type eventContext struct {
	resolved  bool
	surviving []int
	// steps is the analytic recovery path (empty when the analytic model
	// deems the scenario unrecoverable even healthy).
	steps []recovery.Step
	// rtBound is the analytic recovery-time bound (units.Forever when
	// the analytic model cannot recover).
	rtBound time.Duration
}

// scenarioFor maps a sampled scope to the measured scenario, using the
// paper's case-study recovery goals: object corruption rolls back 24
// hours and restores 1 MB; hardware scopes restore everything to "now".
func scenarioFor(scope failure.Scope) failure.Scenario {
	sc := failure.Scenario{Name: scope.String(), Scope: scope}
	if scope == failure.ScopeObject {
		sc.TargetAge = 24 * time.Hour
		sc.RecoverSize = units.MB
	}
	return sc
}

// context resolves (and caches) the analytic context for a scope. The
// recovery-time bound is the time of the degraded analytic recovery plan
// under the trial's effective outages; when that is unrecoverable the
// healthy plan stands in (the degraded model's inflated outage totals can
// push every level past conservative retention even though RPs exist —
// the same optimism gap the chaos engine documents), and when even the
// healthy model cannot recover, recovery time is unbounded. Only the plan
// is resolved: the report fields of a core.Assessment are design
// constants no trial reads.
func (r *runner) context(s *scratch, sc failure.Scenario) *eventContext {
	ctx := &s.ctxs[sc.Scope]
	if ctx.resolved {
		return ctx
	}
	ctx.resolved = true
	ctx.surviving = r.sys.SurvivingLevels(ctx.surviving[:0], sc)
	ctx.steps, ctx.rtBound = ctx.steps[:0], units.Forever
	plan, lost, err := r.sys.PlanDegradedCompound(sc, s.bounds.Degraded(), &s.plan)
	if err != nil || lost || plan.Time() == units.Forever {
		plan, lost, err = r.sys.PlanDegradedCompound(sc, nil, &s.plan)
	}
	if err == nil && !lost {
		if rt := plan.Time(); rt < units.Forever {
			ctx.steps = append(ctx.steps, plan.Steps...)
			ctx.rtBound = rt
		}
	}
	return ctx
}

// eventRT estimates the event's recovery time: the analytic worst-case
// recovery path with its data-bearing steps scaled down to the volume
// of the simulated restore plan (full base plus unique bytes since the
// serving RP's base full), folded by recovery.Time. The scaling is
// min(), so the estimate never exceeds the analytic worst case; when the
// analytic model is unrecoverable the event charges the rest of the
// window.
func (r *runner) eventRT(ctx *eventContext, plan sim.RestorePlan) time.Duration {
	if len(ctx.steps) == 0 {
		return units.Forever
	}
	var buf [2]recovery.Step // a restore has at most two hops
	steps := append(buf[:0], ctx.steps...)
	vol := plan.Volume(r.c.Design.Workload)
	for i := range steps {
		steps[i].Size = min(steps[i].Size, vol)
	}
	return recovery.Time(steps)
}

// sampleDevice appends to out one device's down intervals over
// [0, horizon) as an alternating renewal process: up times from the
// failure distribution, down times from the repair distribution,
// quantized to whole minutes (the resolution every schedule generator in
// this repo emits). The stream consumes two draws per cycle regardless of
// parameters, so device streams stay aligned across candidate designs
// sharing a fleet (common random numbers).
func sampleDevice(out []interval, r *rand.Rand, rel device.Reliability, horizon time.Duration) []interval {
	var t time.Duration
	for {
		t += rel.Failure.Sample(r)
		if t >= horizon {
			return out
		}
		from := chaos.CeilMinute(t)
		down := chaos.Quantize(rel.Repair.Sample(r))
		t += down
		to := from + down
		if from >= horizon {
			return out
		}
		if to > horizon {
			to = horizon
		}
		if to > from {
			out = append(out, interval{from: from, to: to})
		}
	}
}

// mergeIntervals sorts and merges overlapping or touching intervals in
// place, returning the merged prefix of ivs.
func mergeIntervals(ivs []interval) []interval {
	if len(ivs) <= 1 {
		return ivs
	}
	slices.SortFunc(ivs, func(a, b interval) int { return cmp.Compare(a.from, b.from) })
	merged := ivs[:1]
	for _, iv := range ivs[1:] {
		last := &merged[len(merged)-1]
		if iv.from <= last.to {
			if iv.to > last.to {
				last.to = iv.to
			}
			continue
		}
		merged = append(merged, iv)
	}
	return merged
}

// unionWithin returns the total time any outage is active within
// [from, to), and buf, the buffer it merged the clipped outages in.
func unionWithin(buf []interval, outs []sim.Outage, from, to time.Duration) (time.Duration, []interval) {
	ivs := buf[:0]
	for _, o := range outs {
		f, t := o.From, o.To
		if f < from {
			f = from
		}
		if t > to {
			t = to
		}
		if t > f {
			ivs = append(ivs, interval{from: f, to: t})
		}
	}
	var sum time.Duration
	for _, iv := range mergeIntervals(ivs) {
		sum += iv.to - iv.from
	}
	return sum, ivs
}
