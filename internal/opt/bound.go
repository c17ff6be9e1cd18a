package opt

import (
	"math"
	"sync/atomic"
	"time"

	"stordep/internal/core"
	"stordep/internal/device"
	"stordep/internal/failure"
	"stordep/internal/units"
	"stordep/internal/whatif"
)

// This file implements the branch-and-bound layer over the batched
// sweep of a compiled space (sweep.go, compile.go): before a batch of
// candidates is filled and assessed, an admissible lower bound on every
// candidate's objective score in that contiguous index range is computed
// from the compiled group tables, and the whole batch is pruned when the
// bound exceeds the best score achieved so far (the incumbent, shared
// across workers via an atomic).
//
// A bound visits only the group-table entries its batch can reach. A
// knob's digit runs through its options in blocks of its weight (the
// product of the radices after it), so a batch reaches, per knob, a
// cyclic run of options: one per digit block it touches, at most all of
// them (computeAllowed). Each group walks the product of its members'
// runs with an odometer and folds every entry it visits. The folds are
// minima, so the floor does not depend on the visit order.
//
// The bound exploits the paper's utility decomposition (§4.2): a
// candidate's score is outlays (scenario-independent) plus penalties
// that are monotone nondecreasing in recovery time and data loss. Three
// component floors are assembled per batch:
//
//   - Outlay floor: the candidate outlay total is a sum of per-device
//     terms (fixed cost + per-demand marginal annual cost, spare and
//     facility-retainer multipliers). Terms from the base design are
//     constant; terms a knob group controls are tabulated per joint
//     option entry, and the floor takes the cheapest entry the batch
//     reaches, independently per group. Devices whose
//     spec one group owns but whose demands another group feeds are
//     dropped from the floor entirely (their contribution is verified
//     nonnegative at construction).
//   - Recovery-time floor, per scenario: core's RecoveryFloor is the
//     restore assessOne evaluates for a serving level, with every device
//     at its bandwidth ceiling (the most bandwidth any spec the device
//     can take offers); the restore time never rises with a bandwidth.
//     It is tabulated per group entry, owned level and scenario, and the
//     floor is its min over may-serve levels.
//   - Data-loss floor, per scenario: every loss assessOne can report for
//     a level is at least the level's accumulation window (cumulative
//     lags are nonnegative), so the floor is the min accW over may-serve
//     levels. "May serve" over-approximates true serving (it ignores the
//     guaranteed-range and target-age checks, which only remove levels),
//     keeping the min a valid floor.
//
// Scenarios where the primary array cannot be replaced (or no level can
// possibly serve) lose the object for every candidate; their penalty
// floor is the exact whole-object-lost penalty.
//
// Admissibility discipline: the floors rely on every folded component
// being nonnegative (penalty rates, cost marginals, fixed costs,
// discounts, policy lags and windows, device delays, provisioning times
// and bandwidth ceilings). newPruner verifies all of them numerically
// and refuses to build a pruner — disabling pruning, never correctness
// — on any violation. Candidates the tables cannot represent keep their
// exact error semantics: a batch whose index range can reach any
// suspect knob option or suspect group entry is never bounded.
// Candidates that fail the duplicate-level-name or device-capacity
// checks score +Inf through the slow path, which no finite bound can
// exceed. Finally the prune test is strict with a relative slack
// (boundSlack) absorbing float non-associativity between the floor's
// fold order and fill's, and the incumbent is only ever an achieved
// candidate score — so a pruned candidate scores strictly worse than
// the incumbent and can never be the argmin nor tie with it. The pruned
// search's Solution is byte-identical to the exhaustive one.

const (
	// boundSlack is the relative slack applied to a subtree bound before
	// comparing it to the incumbent: prune only when
	// bound*(1-boundSlack) > incumbent. It absorbs the float rounding
	// difference between the floor's sum order and fill's outlay fold.
	boundSlack = 1e-9
	// seedProbes is how many spread candidate indices are assessed up
	// front to seed the incumbent, so pruning can begin with the first
	// batch instead of waiting for enumeration to reach a good score.
	seedProbes = 16
)

// SubtreeFloor carries admissible per-component lower bounds holding for
// every candidate in one contiguous slice of the enumeration: any
// candidate's outlay total is >= Outlays, and under scenario si its
// recovery time, data loss and penalties are >= the si-th entries. The
// recovery-time floor charges the serving level's whole restore path
// (media return, provisioning, access delay and the transfer at the
// devices' bandwidth ceilings); the data-loss floor charges its
// accumulation window and, for a zero target age, the transfer lags up
// to it. Lost[si] means every candidate in the slice loses the object
// under scenario si (certain loss, not merely possible loss).
type SubtreeFloor struct {
	Outlays   units.Money
	Scenarios []failure.Scenario
	// RecoveryTime, DataLoss, Penalties and Lost are indexed like
	// Scenarios. Penalties[si] is the penalty arithmetic applied to the
	// (RecoveryTime[si], DataLoss[si]) floor — monotone, so itself a
	// floor on every candidate's penalties.
	RecoveryTime []time.Duration
	DataLoss     []time.Duration
	Penalties    []units.Money
	Lost         []bool
}

// ObjectiveFloor maps a subtree's component floors to a lower bound on
// the Objective score of every candidate in the subtree. It must be
// paired with the search's Objective: WorstTotalFloor with
// WorstTotalObjective, and so on. A floor may always return
// -Inf ("no bound"); it must never exceed any candidate's true score,
// or pruning would change the search result.
type ObjectiveFloor func(*SubtreeFloor) units.Money

// WorstTotalFloor lower-bounds WorstTotalObjective: outlay floor plus
// the worst per-scenario penalty floor.
func WorstTotalFloor() ObjectiveFloor {
	return func(fl *SubtreeFloor) units.Money {
		if len(fl.Penalties) == 0 {
			return fl.Outlays
		}
		worst := fl.Penalties[0]
		for _, p := range fl.Penalties[1:] {
			if p > worst {
				worst = p
			}
		}
		return fl.Outlays + worst
	}
}

// ExpectedFloor lower-bounds ExpectedObjective under the same frequency
// table: outlay floor plus the frequency-weighted penalty floors. A
// certainly-lost scenario with nonzero frequency bounds every candidate
// at +Inf, mirroring whatif.ExpectedAnnualCost. Negative or NaN
// frequencies disable the floor (it returns -Inf).
func ExpectedFloor(freqs whatif.Frequencies) ObjectiveFloor {
	bad := false
	for _, f := range freqs {
		if f < 0 || math.IsNaN(f) {
			bad = true
		}
	}
	return func(fl *SubtreeFloor) units.Money {
		if bad {
			return units.Money(math.Inf(-1))
		}
		total := fl.Outlays
		for si, sc := range fl.Scenarios {
			f := freqs[sc.Scope]
			if f == 0 {
				continue
			}
			if fl.Lost[si] {
				return units.Money(math.Inf(1))
			}
			total += units.Money(f) * fl.Penalties[si]
		}
		return total
	}
}

// ConstrainedOutlayFloor lower-bounds ConstrainedOutlayObjective: when
// any scenario's floor already violates the objectives (certain loss, or
// RT/DL floor beyond RTO/RPO), every candidate in the subtree scores
// +Inf; otherwise candidates may conform and the bound is the outlay
// floor.
func ConstrainedOutlayFloor(obj whatif.Objectives) ObjectiveFloor {
	return func(fl *SubtreeFloor) units.Money {
		for si := range fl.Scenarios {
			if fl.Lost[si] || fl.RecoveryTime[si] > obj.RTO || fl.DataLoss[si] > obj.RPO {
				return units.Money(math.Inf(1))
			}
		}
		return fl.Outlays
	}
}

// atomicScore is a float64 score behind an atomic, with a
// compare-by-value min so concurrent workers can tighten a shared
// incumbent without locks.
type atomicScore struct{ bits atomic.Uint64 }

func (a *atomicScore) store(v units.Money) { a.bits.Store(math.Float64bits(float64(v))) }
func (a *atomicScore) load() units.Money   { return units.Money(math.Float64frombits(a.bits.Load())) }

// min lowers the stored score to v when v is smaller. Comparison is on
// the float values, not the bit patterns, so it is correct for every
// ordering of scores; NaN never replaces anything.
func (a *atomicScore) min(v units.Money) {
	f := float64(v)
	for {
		cur := a.bits.Load()
		if !(f < math.Float64frombits(cur)) {
			return
		}
		if a.bits.CompareAndSwap(cur, math.Float64bits(f)) {
			return
		}
	}
}

// prunedGroup is one knob group's bound tables: per joint-option entry,
// the outlay floor delta and the owned levels' serve parameters. Like
// the group's own tables they are flat, carved from the search's arena
// (arena.go) and returned with it; suspect is the group's own table. A
// suspect entry's rows are zero, and a bound that reaches one stops
// before reading them.
type prunedGroup struct {
	members []int
	radix   []int
	size    int
	suspect []bool
	// outlay[t] is entry t's exact additive contribution to the
	// candidate outlay total (over the devices attributable to this
	// group); nonnegativity is verified at construction.
	outlay []units.Money
	// levels lists the group's owned level indices; multi marks
	// kernel-resolved multi-sited ones. copyIdx/accW/lag are flattened
	// [t*len(levels)+li], rec (core's RecoveryFloor per scenario) is
	// [(t*len(levels)+li)*ns+si].
	levels  []int
	multi   []bool
	copyIdx []int32
	accW    []time.Duration
	lag     []time.Duration
	rec     []time.Duration
}

// pruner holds every precomputed table the per-batch bound needs. Built
// once per compiled search by newPruner; immutable afterwards except for
// the shared incumbent, so concurrent workers bound batches with
// distinct pruneScratch.
type pruner struct {
	cs    *compiledSpace
	floor ObjectiveFloor

	ns, nLevels, nDevices int

	knobRadix  []int
	knobWeight []int // mixed-radix suffix weights (last knob = 1)

	outlayConst units.Money
	groups      []prunedGroup

	// Candidate-independent serve parameters for levels no group owns,
	// indexed [si*nLevels+j]; owned levels hold (false, Forever, Forever)
	// so a straight copy initializes a batch's scan state.
	baseServe []bool
	baseAccW  []time.Duration
	baseRec   []time.Duration

	mServe   []bool // [si*nLevels+j]: multi-sited level j survives si
	intact   []bool // [si*nDevices+di]: device survives untouched
	destLost []bool
	lostPen  units.Money

	// baseLag[j] is level j's transfer-lag floor when no group owns it
	// (the base design's constant lag); owned levels hold Forever and are
	// minimized over reachable entries per batch. tgtZero[si] marks
	// scenarios with TargetAge 0, where the kernel's loss is exactly the
	// cumulative lag through the serving level plus its accumulation
	// window — so the data-loss floor may add the lag prefix sum.
	baseLag []time.Duration
	tgtZero []bool

	incumbent atomicScore
}

// pruneScratch is one worker's reusable bound-computation state.
type pruneScratch struct {
	// runStart[k] and runLen[k] are knob k's reachable options over the
	// batch: the cyclic run of runLen[k] options from runStart[k].
	runStart, runLen []int
	// step[mi] and opt[mi] are a group member's odometer position: how
	// far along its run, and the option there.
	step, opt []int

	serve   []bool
	minAccW []time.Duration
	minRec  []time.Duration
	minLag  []time.Duration // per level; cum holds its prefix sums
	cum     []time.Duration

	fl SubtreeFloor
}

// newPruner builds the bound tables for a compiled space, returning nil
// when any admissibility precondition fails — negative penalty rates,
// negative cost components, negative policy windows, negative or
// unbounded delays and bandwidth ceilings — so pruning is silently
// disabled rather than ever risking a wrong prune. incumbent
// (> 0) pre-seeds the shared best score with an externally achieved
// candidate score (e.g. another shard's winner).
func newPruner(cs *compiledSpace, floor ObjectiveFloor, incumbent units.Money) *pruner {
	if floor == nil {
		return nil
	}
	kern := cs.kern
	if !kern.NonNegativeRates() {
		return nil
	}
	ns, nL, nD := len(cs.scs), cs.nLevels, cs.nDevices
	p := &pruner{
		cs:       cs,
		floor:    floor,
		ns:       ns,
		nLevels:  nL,
		nDevices: nD,
	}

	nk := len(cs.knobs)
	p.knobRadix = make([]int, nk)
	p.knobWeight = make([]int, nk)
	w := 1
	for k := nk - 1; k >= 0; k-- {
		p.knobRadix[k] = len(cs.knobs[k].Options)
		p.knobWeight[k] = w
		w *= p.knobRadix[k] // cannot overflow: spaceSize validated the product
	}

	p.intact = make([]bool, ns*nD)
	for si := 0; si < ns; si++ {
		for di := 0; di < nD; di++ {
			p.intact[si*nD+di] = kern.DeviceIntact(si, di)
		}
	}
	p.destLost = make([]bool, ns)
	for si := 0; si < ns; si++ {
		lost, prov := kern.PrimaryResolution(si)
		if prov < 0 {
			return nil
		}
		p.destLost[si] = lost
	}
	ceil := bandwidthCeil(cs)
	if ceil == nil {
		return nil
	}
	p.lostPen = kern.PenaltyFloor(units.Forever, units.Forever)

	p.mServe = make([]bool, ns*nL)
	for j := 0; j < nL; j++ {
		if !kern.MultiLevel(j) {
			continue
		}
		for si := 0; si < ns; si++ {
			p.mServe[si*nL+j] = kern.MultiServe(si, j)
		}
	}

	p.tgtZero = make([]bool, ns)
	for si := 0; si < ns; si++ {
		p.tgtZero[si] = cs.scs[si].TargetAge == 0
	}

	p.baseServe = make([]bool, ns*nL)
	p.baseAccW = make([]time.Duration, ns*nL)
	p.baseRec = make([]time.Duration, ns*nL)
	p.baseLag = make([]time.Duration, nL)
	for i := range p.baseAccW {
		p.baseAccW[i] = units.Forever
		p.baseRec[i] = units.Forever
	}
	for j := 0; j < nL; j++ {
		f := kern.BaseFragment(j)
		if !fragSane(f) {
			return nil
		}
		if cs.levelOwner[j] >= 0 {
			p.baseLag[j] = units.Forever
			continue
		}
		p.baseLag[j] = f.Lag
		for si := 0; si < ns; si++ {
			idx := si*nL + j
			if kern.MultiLevel(j) {
				p.baseServe[idx] = p.mServe[idx]
			} else {
				p.baseServe[idx] = p.intact[si*nD+int(f.Copy)]
			}
			p.baseAccW[idx] = f.AccW
			p.baseRec[idx] = kern.RecoveryFloor(si, j, f, ceil)
		}
	}

	if !p.buildGroups(ceil) {
		return nil
	}
	if !p.buildOutlays() {
		return nil
	}

	p.incumbent.store(units.Money(math.Inf(1)))
	if incumbent > 0 {
		p.incumbent.min(incumbent)
	}
	return p
}

// bandwidthCeil returns, per device, the most bandwidth the device
// offers any candidate of cs: its base spec's, or the most among its
// owning group's entries. RecoveryFloor adds delays, provisioning times
// and transfers at these ceilings, so it returns nil, refusing the
// floor, when any of them is negative or unbounded.
func bandwidthCeil(cs *compiledSpace) []units.Rate {
	kern := cs.kern
	if f := cs.base.Facility; f != nil && !boundedDelay(f.ProvisionTime) {
		return nil
	}
	ceil := make([]units.Rate, cs.nDevices)
	for di := range ceil {
		sp := kern.BaseSpec(di)
		if !boundedDelay(kern.DeviceFixedDelay(di)) || sp.HasSpare() && !boundedDelay(sp.Spare.ProvisionTime) {
			return nil
		}
		if gi := cs.specOwner[di]; gi < 0 {
			ceil[di] = sp.MaxBandwidth()
		} else {
			g := &cs.groups[gi]
			for t := 0; t < g.size; t++ {
				if !g.suspect[t] {
					ceil[di] = max(ceil[di], g.entrySpecs(t)[cs.specSlot[di]].MaxBandwidth())
				}
			}
		}
		if c := float64(ceil[di]); !(c >= 0) || math.IsInf(c, 1) {
			return nil
		}
	}
	return ceil
}

// fragSane verifies the nonnegativity the duration floors rely on:
// cumulative lags stay nonnegative and every loss is >= the level's
// accumulation window.
func fragSane(f *core.Fragment) bool {
	return f.Lag >= 0 && f.AccW >= 0 && f.RetSpan >= 0
}

// boundedDelay reports whether a delay is nonnegative and below Forever,
// so RecoveryFloor's sums over it stay floors of assessOne's.
func boundedDelay(d time.Duration) bool { return d >= 0 && d < units.Forever }

// buildGroups carves each group's bound tables from the arena and fills
// the owned-level ones (outlay deltas are added by buildOutlays), with
// each entry's recovery-time floors at the bandwidth ceilings ceil.
// RecoveryFloor reads only a fragment's copy, read and transport devices
// and its restore size, so a level whose four equal those of the
// previous non-suspect entry copies that entry's floors. Returns false
// on any frag sanity violation.
func (p *pruner) buildGroups(ceil []units.Rate) bool {
	cs := p.cs
	ar := cs.ar
	entries, rows := 0, 0
	for gi := range cs.groups {
		g := &cs.groups[gi]
		entries += g.size
		rows += g.size * len(g.levels)
	}
	ar.outlay = sized(ar.outlay, entries)
	clear(ar.outlay) // buildOutlays sums into it
	ar.copyIdx, ar.accW, ar.lag = sized(ar.copyIdx, rows), sized(ar.accW, rows), sized(ar.lag, rows)
	ar.rec = sized(ar.rec, rows*p.ns)
	p.groups = make([]prunedGroup, len(cs.groups))
	outlay, copyIdx, accW, lag, recs := ar.outlay, ar.copyIdx, ar.accW, ar.lag, ar.rec
	for gi := range cs.groups {
		g := &cs.groups[gi]
		pg := &p.groups[gi]
		nl := len(g.levels)
		*pg = prunedGroup{
			members: g.members,
			radix:   g.radix,
			size:    g.size,
			suspect: g.suspect,
			levels:  g.levels,
			multi:   make([]bool, nl),
		}
		for li, j := range g.levels {
			pg.multi[li] = cs.kern.MultiLevel(j)
		}
		pg.outlay, outlay = carve(outlay, g.size)
		pg.copyIdx, copyIdx = carve(copyIdx, g.size*nl)
		pg.accW, accW = carve(accW, g.size*nl)
		pg.lag, lag = carve(lag, g.size*nl)
		pg.rec, recs = carve(recs, g.size*nl*p.ns)
		prev := -1 // the previous non-suspect entry
		for t := 0; t < g.size; t++ {
			if g.suspect[t] {
				clear(pg.copyIdx[t*nl : (t+1)*nl])
				clear(pg.accW[t*nl : (t+1)*nl])
				clear(pg.lag[t*nl : (t+1)*nl])
				clear(pg.rec[t*nl*p.ns : (t+1)*nl*p.ns])
				continue
			}
			frags := g.entryFrags(t)
			for li := range frags {
				f := &frags[li]
				if !fragSane(f) {
					return false
				}
				at := t*nl + li
				pg.copyIdx[at] = f.Copy
				pg.accW[at] = f.AccW
				pg.lag[at] = f.Lag
				rec := pg.rec[at*p.ns : (at+1)*p.ns]
				if prev >= 0 && sameRestore(f, &g.entryFrags(prev)[li]) {
					was := prev*nl + li
					copy(rec, pg.rec[was*p.ns:(was+1)*p.ns])
					continue
				}
				for si := range rec {
					rec[si] = cs.kern.RecoveryFloor(si, g.levels[li], f, ceil)
				}
			}
			prev = t
		}
	}
	return true
}

// sameRestore reports whether two fragments of one level restore alike:
// the same copy, read and transport devices and the same restore size,
// everything core's RecoveryFloor reads of a fragment.
func sameRestore(a, b *core.Fragment) bool {
	return a.Copy == b.Copy && a.Read == b.Read && a.Transport == b.Transport && a.Restore == b.Restore
}

// buildOutlays decomposes the candidate outlay total into a constant
// part plus one exact additive delta per group entry, verifying every
// folded component is nonnegative and finite. Returns false on any
// violation (pruning is then disabled).
//
// Per device, fill's outlay fold sums to
//
//	mult * (fixedTerm*[present] + sum of per-demand marginals)
//
// where mult folds the spare discount and facility-retainer factor
// (both frozen by the compile diff), fixedTerm is the spec's
// FixedOutlay, present means the device received any demand, and each
// marginal is the spec's DemandOutlay of one record. Devices with a
// base (constant) spec split exactly into constant-source terms plus
// per-group own-record terms; devices whose spec a group owns are
// tabulated per entry of that group — unless another group also feeds
// them demands, in which case the device's (verified nonnegative)
// contribution is dropped from the floor entirely.
func (p *pruner) buildOutlays() bool {
	cs := p.cs
	kern := cs.kern
	nD := cs.nDevices

	mult := make([]float64, nD)
	for di := 0; di < nD; di++ {
		m := 1.0
		sp := kern.BaseSpec(di)
		if sp.HasSpare() {
			if sp.Spare.Discount < 0 {
				return false
			}
			m += sp.Spare.Discount
		}
		f := kern.Retainer(di)
		if f < 0 {
			return false
		}
		mult[di] = m + f
	}

	// Constant-source records per device: the primary plus every level
	// no group owns.
	constRecs := make([][]*core.IndexedDemand, nD)
	prim := kern.PrimaryDemands()
	for i := range prim {
		constRecs[prim[i].Dev] = append(constRecs[prim[i].Dev], &prim[i])
	}
	for j := 0; j < cs.nLevels; j++ {
		if cs.levelOwner[j] >= 0 {
			continue
		}
		f := kern.BaseFragment(j)
		for i := range f.Demands {
			r := &f.Demands[i]
			constRecs[r.Dev] = append(constRecs[r.Dev], r)
		}
	}

	// feeds[gi][di]: any non-suspect entry of group gi demands device di.
	feeds := make([][]bool, len(cs.groups))
	for gi := range cs.groups {
		feeds[gi] = make([]bool, nD)
		g := &cs.groups[gi]
		for t := 0; t < g.size; t++ {
			if g.suspect[t] {
				continue
			}
			frags := g.entryFrags(t)
			for li := range frags {
				for _, r := range frags[li].Demands {
					feeds[gi][r.Dev] = true
				}
			}
		}
	}

	marginal := func(sp *device.Spec, r *core.IndexedDemand) (units.Money, bool) {
		m := sp.DemandOutlay(r.Demand)
		return m, finiteNonNeg(m)
	}
	fixedTerm := func(sp *device.Spec) (units.Money, bool) {
		ft := sp.FixedOutlay()
		return ft, finiteNonNeg(ft)
	}

	var constTotal units.Money
	for di := 0; di < nD; di++ {
		owner := cs.specOwner[di]
		if owner < 0 {
			// Base spec governs for every candidate: constant-source terms
			// are constant, own-record terms are added per group entry
			// below.
			sp := kern.BaseSpec(di)
			ft, ok := fixedTerm(sp)
			if !ok {
				return false
			}
			var constMarg units.Money
			for _, r := range constRecs[di] {
				m, ok := marginal(sp, r)
				if !ok {
					return false
				}
				constMarg += m
			}
			if len(constRecs[di]) > 0 {
				constTotal += units.Money(mult[di]) * (ft + constMarg)
			}
			continue
		}

		crossFed := false
		for gi := range cs.groups {
			if gi != owner && feeds[gi][di] {
				crossFed = true
			}
		}
		slot := cs.specSlot[di]
		g := &cs.groups[owner]
		for t := 0; t < g.size; t++ {
			if g.suspect[t] {
				continue
			}
			frags := g.entryFrags(t)
			sp := &g.entrySpecs(t)[slot]
			ft, ok := fixedTerm(sp)
			if !ok {
				return false
			}
			present := len(constRecs[di]) > 0
			var margSum units.Money
			for _, r := range constRecs[di] {
				m, ok := marginal(sp, r)
				if !ok {
					return false
				}
				margSum += m
			}
			for li := range frags {
				for ri := range frags[li].Demands {
					r := &frags[li].Demands[ri]
					if int(r.Dev) != di {
						continue
					}
					m, ok := marginal(sp, r)
					if !ok {
						return false
					}
					margSum += m
					present = true
				}
			}
			if crossFed {
				// Another group's chosen entry also lands demands here, so
				// the device's cost is not separable per group. Drop it
				// from the floor — admissible only if its true
				// contribution is nonnegative under every reachable spec,
				// so verify those foreign marginals too.
				for gj := range cs.groups {
					if gj == owner || !feeds[gj][di] {
						continue
					}
					gg := &cs.groups[gj]
					for tt := 0; tt < gg.size; tt++ {
						if gg.suspect[tt] {
							continue
						}
						ff := gg.entryFrags(tt)
						for li := range ff {
							for ri := range ff[li].Demands {
								r := &ff[li].Demands[ri]
								if int(r.Dev) != di {
									continue
								}
								if _, ok := marginal(sp, r); !ok {
									return false
								}
							}
						}
					}
				}
				continue
			}
			var delta units.Money
			if present {
				delta = units.Money(mult[di]) * (ft + margSum)
			}
			p.groups[owner].outlay[t] += delta
		}
	}

	// Own-record marginals on base-spec devices, per group entry.
	for gi := range cs.groups {
		g := &cs.groups[gi]
		pg := &p.groups[gi]
		for t := 0; t < g.size; t++ {
			if g.suspect[t] {
				continue
			}
			frags := g.entryFrags(t)
			for li := range frags {
				for ri := range frags[li].Demands {
					r := &frags[li].Demands[ri]
					di := int(r.Dev)
					if cs.specOwner[di] >= 0 {
						// Own-group devices were handled in the per-entry
						// pass above; other groups' devices were dropped
						// (crossFed) there, with this record's marginal
						// verified under every reachable spec.
						continue
					}
					m, ok := marginal(kern.BaseSpec(di), r)
					if !ok {
						return false
					}
					pg.outlay[t] += units.Money(mult[di]) * m
				}
			}
		}
	}

	if !finiteNonNeg(constTotal) {
		return false
	}
	for gi := range p.groups {
		pg := &p.groups[gi]
		for t, v := range pg.outlay {
			if !pg.suspect[t] && !finiteNonNeg(v) {
				return false
			}
		}
	}
	p.outlayConst = constTotal
	return true
}

// finiteNonNeg reports whether an outlay term is a finite value >= 0
// (false for NaN), the sign the outlay floor relies on.
func finiteNonNeg(m units.Money) bool {
	return m >= 0 && !math.IsInf(float64(m), 1)
}

// readyScratch sizes one worker's bound-computation state for p,
// reusing its arrays. bound writes every element it reads before
// reading it.
func (p *pruner) readyScratch(ps *pruneScratch) {
	nk := len(p.knobRadix)
	n := p.ns * p.nLevels
	ps.runStart, ps.runLen = sized(ps.runStart, nk), sized(ps.runLen, nk)
	ps.step, ps.opt = sized(ps.step, nk), sized(ps.opt, nk)
	ps.serve = sized(ps.serve, n)
	ps.minAccW, ps.minRec = sized(ps.minAccW, n), sized(ps.minRec, n)
	ps.minLag, ps.cum = sized(ps.minLag, p.nLevels), sized(ps.cum, p.nLevels)
	fl := &ps.fl
	fl.Scenarios = p.cs.scs
	fl.RecoveryTime, fl.DataLoss = sized(fl.RecoveryTime, p.ns), sized(fl.DataLoss, p.ns)
	fl.Penalties, fl.Lost = sized(fl.Penalties, p.ns), sized(fl.Lost, p.ns)
}

// computeAllowed derives, per knob, the options candidates in
// [blo, bhi) take (blo < bhi). Knob k's digit at index i is (i/w) mod n,
// with w its weight and n its radix, and i/w takes every value from
// blo/w to (bhi-1)/w: the batch touches (bhi-1)/w - blo/w + 1 digit
// blocks. Its reachable options are therefore the cyclic run of
// min(blocks, n) options starting at (blo/w) mod n: exactly the options
// visited, also when the batch wraps the digit's cycle without spanning
// all of it. bound walks each group's product of runs with an
// odometer. Returns false — no bound — when any reachable option is
// suspect, preserving the slow path's exact apply-error semantics.
func (p *pruner) computeAllowed(ps *pruneScratch, blo, bhi int) bool {
	for k, n := range p.knobRadix {
		w := p.knobWeight[k]
		first := blo / w
		a, m := first%n, min((bhi-1)/w-first+1, n)
		ps.runStart[k], ps.runLen[k] = a, m
		sus := p.cs.knobSuspect[k]
		for o := a; m > 0; m-- {
			if sus[o] {
				return false
			}
			if o++; o == n {
				o = 0
			}
		}
	}
	return true
}

// bound computes the batch objective floor for candidates [blo, bhi),
// filling ps.fl. ok=false means no admissible bound exists for this
// slice (a suspect option or entry is reachable); the batch must then be
// assessed normally.
func (p *pruner) bound(ps *pruneScratch, blo, bhi int) (units.Money, bool) {
	if !p.computeAllowed(ps, blo, bhi) {
		return 0, false
	}
	p.resetFloors(ps)
	outlay := p.outlayConst
	for gi := range p.groups {
		pg := &p.groups[gi]
		last := len(pg.members) - 1
		for mi, k := range pg.members {
			ps.step[mi], ps.opt[mi] = 0, ps.runStart[k]
		}
		n, lastK := pg.radix[last], pg.members[last]
		minOut := units.Money(math.Inf(1))
		for {
			// t0 is the entry of the other members' options with the
			// last member at option 0; the last member's run follows.
			t0 := 0
			for mi := 0; mi < last; mi++ {
				t0 = (t0 + ps.opt[mi]) * pg.radix[mi+1]
			}
			o := ps.runStart[lastK]
			for m := ps.runLen[lastK]; m > 0; m-- {
				t := t0 + o
				if pg.suspect[t] {
					return 0, false
				}
				minOut = min(minOut, pg.outlay[t])
				p.foldEntry(ps, pg, t)
				if o++; o == n {
					o = 0
				}
			}
			// Advance the other members' odometer: a member at the end of
			// its run restarts it and carries into the one before.
			mi := last - 1
			for ; mi >= 0; mi-- {
				k := pg.members[mi]
				if ps.step[mi]++; ps.step[mi] < ps.runLen[k] {
					if ps.opt[mi]++; ps.opt[mi] == pg.radix[mi] {
						ps.opt[mi] = 0
					}
					break
				}
				ps.step[mi], ps.opt[mi] = 0, ps.runStart[k]
			}
			if mi < 0 {
				break
			}
		}
		outlay += minOut
	}
	return p.finishFloor(ps, outlay), true
}

// resetFloors readies ps's per-level floors for a new batch: levels no
// group owns take their constant parameters, owned ones start unserved.
func (p *pruner) resetFloors(ps *pruneScratch) {
	copy(ps.serve, p.baseServe)
	copy(ps.minAccW, p.baseAccW)
	copy(ps.minRec, p.baseRec)
	copy(ps.minLag, p.baseLag)
}

// foldEntry lowers ps's per-level floors by entry t of group pg: its
// owned levels' transfer lags, and per scenario in which a level may
// serve, its accumulation window and recovery-time floor. Owned levels
// start at Forever (resetFloors), so the first serving entry sets them.
func (p *pruner) foldEntry(ps *pruneScratch, pg *prunedGroup, t int) {
	nL, nl, ns := p.nLevels, len(pg.levels), p.ns
	for li, j := range pg.levels {
		e := t*nl + li
		accW, rec := pg.accW[e], pg.rec[e*ns:(e+1)*ns]
		ps.minLag[j] = min(ps.minLag[j], pg.lag[e])
		ci := int(pg.copyIdx[e])
		for si := 0; si < ns; si++ {
			idx := si*nL + j
			if pg.multi[li] {
				if !p.mServe[idx] {
					continue
				}
			} else if !p.intact[si*p.nDevices+ci] {
				continue
			}
			ps.serve[idx] = true
			ps.minAccW[idx] = min(ps.minAccW[idx], accW)
			ps.minRec[idx] = min(ps.minRec[idx], rec[si])
		}
	}
}

// finishFloor assembles ps.fl from the folded per-level floors and the
// outlay floor, and returns the objective floor.
func (p *pruner) finishFloor(ps *pruneScratch, outlay units.Money) units.Money {
	ns, nL := p.ns, p.nLevels
	// Lag prefix sums: the kernel accumulates every level's transfer lag
	// in level order before the serving level, so the per-level data-loss
	// floor under a TargetAge-0 scenario is this prefix plus the level's
	// own accumulation-window floor. Every group folded at least one
	// entry, so owned levels' minLag is finite.
	var cum time.Duration
	for j := 0; j < nL; j++ {
		cum += ps.minLag[j]
		ps.cum[j] = cum
	}

	fl := &ps.fl
	fl.Outlays = outlay
	for si := 0; si < ns; si++ {
		lost := p.destLost[si]
		minRec := units.Forever
		minAccW := units.Forever
		if !lost {
			any := false
			for j := 0; j < nL; j++ {
				idx := si*nL + j
				if !ps.serve[idx] {
					continue
				}
				any = true
				minRec = min(minRec, ps.minRec[idx])
				loss := ps.minAccW[idx]
				if p.tgtZero[si] {
					loss += ps.cum[j]
				}
				if loss < minAccW {
					minAccW = loss
				}
			}
			lost = !any
		}
		if lost {
			fl.Lost[si] = true
			fl.RecoveryTime[si] = units.Forever
			fl.DataLoss[si] = units.Forever
			fl.Penalties[si] = p.lostPen
			continue
		}
		fl.Lost[si] = false
		fl.RecoveryTime[si] = minRec
		fl.DataLoss[si] = minAccW
		fl.Penalties[si] = p.cs.kern.PenaltyFloor(minRec, minAccW)
	}
	return p.floor(fl)
}

// pruneBatch decides whether every candidate in [blo, bhi) can be
// eliminated: computed reports whether a bound was evaluated at all,
// pruned whether it (with slack) exceeds the current incumbent. With no
// incumbent yet, no bound is computed — nothing could prune.
func (p *pruner) pruneBatch(ps *pruneScratch, blo, bhi int) (computed, pruned bool) {
	inc := p.incumbent.load()
	if math.IsInf(float64(inc), 1) {
		return false, false
	}
	v, ok := p.bound(ps, blo, bhi)
	if !ok {
		return false, false
	}
	return true, float64(v)*(1-boundSlack) > float64(inc)
}

// noteScore offers an achieved candidate score to the shared incumbent.
func (p *pruner) noteScore(s units.Money) { p.incumbent.min(s) }

// seed assesses up to seedProbes evenly spread candidates of [lo, hi)
// through the compiled fast path and seeds the incumbent with the best
// achieved score, so enumeration order cannot delay pruning (a good
// candidate in the last shard half would otherwise leave early batches
// unbounded). Slow-path probes are skipped — seeding is an accelerator
// and must not duplicate the slow path's error semantics. Probe
// scores are achieved scores, so seeding never changes the argmin; the
// probes are not counted as Evaluations. It fills and assesses on slot
// 0's batch scratch, before the sweep starts.
func (p *pruner) seed(objective Objective, lo, hi int) {
	cs := p.cs
	n := hi - lo
	probes := seedProbes
	if n < probes {
		probes = n
	}
	if probes <= 0 {
		return
	}
	s := cs.ar.slot(0, cs)
	cols, bs, choice := s.batchCols(1), &s.bs, s.choice
	var res whatif.Result
	for pi := 0; pi < probes; pi++ {
		decodeChoice(choice, cs.knobs, lo+spreadIndex(pi, probes, n))
		if cs.fill(&s.fs, cols, 0, choice) {
			continue
		}
		cs.kern.AssessBatch(1, cols, bs)
		res.SetBriefs(cs.base.Name, cols.OutlaysTotal[0], cs.scs, bs.Briefs)
		p.noteScore(objective(res))
	}
}
