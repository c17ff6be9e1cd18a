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
package mc

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
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

// build builds the campaign's design.
func (c *Campaign) build() (*core.System, error) {
	if c.Design == nil {
		return nil, ErrNoDesign
	}
	sys, err := core.Build(c.Design)
	if err != nil {
		return nil, fmt.Errorf("mc: %w", err)
	}
	for _, tech := range c.Design.Levels {
		if _, ok := tech.(protect.MultiSited); ok {
			return nil, fmt.Errorf("%w: level %q", ErrMultiSited, tech.Name())
		}
	}
	return sys, nil
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

// Run samples every trial and estimates the dependability report.
func (c *Campaign) Run() (*Report, error) {
	obs, err := c.Sample(0, c.Trials)
	if err != nil {
		return nil, err
	}
	return c.Estimate(obs)
}

// Sample runs trials [lo, hi) and returns their observations in trial
// order. Distributed shards each sample a contiguous range; because a
// trial's streams depend only on (seed, trial), the concatenation of
// range results is byte-identical to a single-process run.
func (c *Campaign) Sample(lo, hi int) ([]Obs, error) {
	if c.Trials <= 0 {
		return nil, fmt.Errorf("%w: %d", ErrBadTrials, c.Trials)
	}
	if lo < 0 || hi < lo || hi > c.Trials {
		return nil, fmt.Errorf("%w: [%d, %d) of %d", ErrBadRange, lo, hi, c.Trials)
	}
	r, err := c.runner()
	if err != nil {
		return nil, err
	}
	return parallel.Map(c.Workers, hi-lo, func(i int) (Obs, error) {
		return r.trial(lo + i)
	})
}

// runner is the per-campaign immutable state shared by all trials: the
// built system, its simulator, the mission window, and the device/level
// wiring.
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
	levelDevs [][]int
	// rel holds each sampled device's effective reliability model.
	rel []device.Reliability
	// sampled marks devices referenced by at least one level.
	sampled []bool
}

func (c *Campaign) runner() (*runner, error) {
	sys, err := c.build()
	if err != nil {
		return nil, err
	}
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
		rates = whatif.TypicalFrequencies()
	}
	r := &runner{
		c:       c,
		sys:     sys,
		chain:   chain,
		sm:      sm,
		start:   chaos.CeilMinute(sm.WarmUp()),
		mission: mission,
		rates:   rates,
		rel:     make([]device.Reliability, len(c.Design.Devices)),
		sampled: make([]bool, len(c.Design.Devices)),
	}
	r.end = r.start + mission
	for i, pd := range c.Design.Devices {
		r.rel[i] = pd.Spec.Rates()
	}
	// All levels' indexes share one array; names are unique and few, so
	// a scan finds each.
	r.levelDevs = make([][]int, len(c.Design.Levels))
	flat := make([]int, 0, 2*len(c.Design.Levels))
	for li, tech := range c.Design.Levels {
		start := len(flat)
		for _, name := range core.LevelDeviceNames(tech) {
			for i, pd := range c.Design.Devices {
				if pd.Spec.Name == name {
					flat = append(flat, i)
					r.sampled[i] = true
					break
				}
			}
		}
		r.levelDevs[li] = flat[start:len(flat):len(flat)]
	}
	return r, nil
}

// interval is one closed-open down period.
type interval struct{ from, to time.Duration }

// trial runs one trial and returns its observations.
func (r *runner) trial(trial int) (Obs, error) {
	tseed := rng.SubSeed(r.c.Seed, trial)

	// 1. Per-device down intervals. Each sampled device draws from its
	// own sub-stream (seeded by device index), so adding or removing an
	// unrelated device leaves other devices' schedules unchanged.
	downs := make([][]interval, len(r.rel))
	for di := range r.rel {
		if !r.sampled[di] {
			continue
		}
		downs[di] = sampleDevice(rng.Run(tseed, di), r.rel[di], r.end)
	}

	// 1b. Correlated common-mode outages: each sampled event takes every
	// protection level down at once (shared infrastructure, regional
	// scope) — the correlation the per-device renewal processes cannot
	// express.
	commons := r.sampleCommonOutages(tseed)

	// 2. Level outages: the union of the level's devices' down periods
	// plus every common-mode window. A failed device aborts in-flight
	// transfers — RPs mid-propagation when the device dies are
	// destroyed, and the analytic side charges the level's transfer lag
	// on top (chaos.EffectiveOutages).
	var outs []sim.Outage
	for li, devs := range r.levelDevs {
		var ivs []interval
		for _, di := range devs {
			ivs = append(ivs, downs[di]...)
		}
		ivs = append(ivs, commons...)
		for _, iv := range mergeIntervals(ivs) {
			outs = append(outs, sim.Outage{Level: li + 1, From: iv.from, To: iv.to, AbortInFlight: true})
		}
	}

	// 3. Disaster arrivals: a Poisson process per failure scope over the
	// mission window, each scope on its own sub-stream (negative index
	// space, disjoint from the device streams).
	// Gaps are drawn in float64 year space — rare scopes have mean gaps
	// of centuries, which overflow time.Duration — and only in-window
	// arrivals are converted back to instants.
	var evs []event
	missionYears := float64(r.mission) / float64(units.Year)
	for si, scope := range failure.Scopes() {
		freq := r.rates[scope]
		if freq <= 0 {
			continue
		}
		er := rng.Run(tseed, -1-si)
		for t := expGap(er, freq); t < missionYears; t += expGap(er, freq) {
			at := chaos.CeilMinute(r.start + time.Duration(t*float64(units.Year)))
			if at >= r.end {
				break
			}
			evs = append(evs, event{at: at, scope: scope})
		}
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].at < evs[j].at })

	// 3b. Operator faults: silent non-write windows corrupt the RP
	// history itself, wrong recoveries are classified and charged after
	// the event loop.
	silents := r.sampleSilentFaults(tseed)
	wrongs := r.sampleWrongRecoveries(tseed)

	// 4. Lay out the RP history the trial's queries can observe: its event
	// instants, each silent fault's probe grid and its wrong recoveries.
	// A window replays on its first query, so the windows after the
	// query that ends the trial cost nothing, and a replay error fails
	// the trial there. When silent faults are present a clean shadow
	// history (same outages, no silents) anchors the cross-model bound
	// ledger and detection baselines: the analytic bound is fault-unaware
	// by design, so comparing it against the faulted history would
	// conflate model violations with the detection channel.
	ats := make([]time.Duration, 0, len(evs)+len(wrongs))
	for _, ev := range evs {
		ats = append(ats, ev.at)
	}
	for _, f := range silents {
		ats = append(ats, r.probes(f)...)
	}
	for _, wr := range wrongs {
		ats = append(ats, wr.at)
	}
	hist := r.replay(ats, outs, silents)
	fail := func(err error) (Obs, error) {
		return Obs{}, fmt.Errorf("mc: trial %d: %w", trial, err)
	}

	var o Obs
	o.CorrEvents = len(commons)
	o.DegTime = unionWithin(outs, r.start, r.end)

	// 5. Measure each failure event. Analytic context is cached per
	// scope/age — it depends on the trial's schedule, not the event
	// instant.
	effOuts := chaos.EffectiveOutages(r.chain, outs)
	req := r.c.Design.Requirements
	actx := make(map[failure.Scope]*eventContext, 4)
	bounds := make(map[boundKey]boundVal, 2*len(r.chain))
	one := make([]int, 1)
	lostAt := r.end
	for _, ev := range evs {
		sc := scenarioFor(ev.scope)
		ctx := r.context(sc, effOuts, actx)
		h, err := hist.at(ev.at)
		if err != nil {
			return fail(err)
		}
		o.Events++

		// Cross-model invariant: per surviving level, simulated loss
		// must respect the analytic bound (same function, same skip
		// rules as the chaos engine).
		for _, j := range ctx.surviving {
			key := boundKey{level: j, age: sc.TargetAge}
			b, seen := bounds[key]
			if !seen {
				b.bound, b.ok = chaos.AnalyticBound(r.chain, outs, j, sc.TargetAge)
				bounds[key] = b
			}
			if !b.ok {
				o.BoundSkips++
				continue
			}
			one[0] = j
			loss, _, lok := h.clean.Loss(one, ev.at, sc.TargetAge)
			if !lok {
				continue
			}
			o.BoundChecks++
			if loss > b.bound {
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
		if err := r.classifySilentFault(&o, &hist, outs, f); err != nil {
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
		r.applyWrongRecovery(&o, h.clean, outs, effOuts, actx, wr)
	}
	if o.Downtime > r.mission {
		o.Downtime = r.mission
	}
	return o, nil
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
// the faults every window replays under.
type histories struct {
	r       *runner
	outs    []sim.Outage
	silents []sim.SilentFault
	wins    []history
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
	s, err := h.r.sm.Run(h.outs, h.silents, w.from, w.to)
	if err != nil {
		return nil, err
	}
	clean := s
	if len(h.silents) > 0 {
		if clean, err = h.r.sm.Run(h.outs, nil, w.from, w.to); err != nil {
			return nil, err
		}
	}
	w.s, w.clean = s, clean
	return w, nil
}

// replay lays out the RP history windows the query instants can observe;
// histories.at replays each on its first query. A query at T reads
// nothing that fired before T-lookback (sim.Simulator.Lookback gives the
// proof), so each instant needs the window [max(0, T-lookback), T],
// clamped to the mission end. Overlapping windows merge, and each merged
// window is replayed at most once, plus once more without the silent
// faults for the clean history when there are any.
func (r *runner) replay(ats []time.Duration, outs []sim.Outage, silents []sim.SilentFault) histories {
	slices.Sort(ats)
	lookback := r.sm.Lookback()
	h := histories{r: r, outs: outs, silents: silents, wins: make([]history, 0, len(ats))}
	for _, at := range ats {
		to := min(at, r.end)
		from := max(0, to-lookback)
		if n := len(h.wins); n > 0 && from <= h.wins[n-1].to {
			h.wins[n-1].to = to
			continue
		}
		h.wins = append(h.wins, history{from: from, to: to})
	}
	return h
}

// expGap draws one exponential inter-arrival gap in years for a process
// with the given annual rate.
func expGap(r *rand.Rand, ratePerYear float64) float64 {
	return -math.Log(1-r.Float64()) / ratePerYear
}

type boundKey struct {
	level int
	age   time.Duration
}

type boundVal struct {
	bound time.Duration
	ok    bool
}

// eventContext caches the analytic context for one scope under one
// trial's schedule: surviving levels, the worst-case recovery plan, and
// the analytic recovery-time bound.
type eventContext struct {
	surviving []int
	// steps is the analytic recovery path (nil when the analytic model
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
func (r *runner) context(sc failure.Scenario, effOuts []hierarchy.LevelOutage, cache map[failure.Scope]*eventContext) *eventContext {
	if ctx, ok := cache[sc.Scope]; ok {
		return ctx
	}
	ctx := &eventContext{surviving: r.sys.SurvivingLevels(sc), rtBound: units.Forever}
	plan, lost, err := r.sys.PlanDegradedCompound(sc, effOuts)
	if err != nil || lost || plan.Time() == units.Forever {
		plan, lost, err = r.sys.PlanDegradedCompound(sc, nil)
	}
	if err == nil && !lost {
		if rt := plan.Time(); rt < units.Forever {
			ctx.steps = plan.Steps
			ctx.rtBound = rt
		}
	}
	cache[sc.Scope] = ctx
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
	if ctx.steps == nil {
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

// sampleDevice draws one device's down intervals over [0, horizon) as
// an alternating renewal process: up times from the failure
// distribution, down times from the repair distribution, quantized to
// whole minutes (the resolution every schedule generator in this repo
// emits). The stream consumes two draws per cycle regardless of
// parameters, so device streams stay aligned across candidate designs
// sharing a fleet (common random numbers).
func sampleDevice(r *rand.Rand, rel device.Reliability, horizon time.Duration) []interval {
	var out []interval
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

// mergeIntervals sorts and merges overlapping or touching intervals.
func mergeIntervals(ivs []interval) []interval {
	if len(ivs) <= 1 {
		return ivs
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].from < ivs[j].from })
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
// [from, to).
func unionWithin(outs []sim.Outage, from, to time.Duration) time.Duration {
	ivs := make([]interval, 0, len(outs))
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
	return sum
}
