// Package sim is a discrete-event simulator for retrieval-point (RP)
// propagation through a protection hierarchy. Where package hierarchy
// derives closed-form worst-case bounds (§3.3.2–3.3.3 of the paper), this
// simulator plays the actual RP lifecycle — accumulation windows closing,
// holds, propagations, retention expiry — on a simulated clock, injects
// failures at arbitrary instants, and measures the data loss that a
// recovery would really incur.
//
// Its purpose is validation (the paper's own future work: "validate these
// models using measurements of recovery behavior"): for every failure
// instant, the simulated loss must never exceed the analytic worst case,
// and the supremum over failure instants should approach it.
//
// A Simulator holds one validated chain and answers the chain's own
// facts (WarmUp, Lookback). Run replays the chain under a fault schedule
// over a time window and returns an immutable History, which answers
// every query about the RPs the replay produced. A Simulator is never
// modified after New, so one may serve many Runs, concurrently too. A
// caller replaying window after window (a Monte Carlo trial) hands Run
// a History it has finished reading, and Run replays into its storage.
package sim

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"stordep/internal/hierarchy"
)

// RP is one retrieval point held at a level.
type RP struct {
	// Cut is the instant the RP reflects: updates up to Cut are in it.
	Cut time.Duration
	// AvailableAt is when the RP finished propagating to the level.
	AvailableAt time.Duration
	// ExpiresAt is when retention discards it.
	ExpiresAt time.Duration
	// Secondary marks an incremental (partial) RP from a cyclic policy's
	// secondary window; a restore from it also needs its base full.
	Secondary bool
	// Phantom marks an RP whose capture silently failed (a silent
	// non-write fault, or corrupt source data): the level reported
	// success, the RP occupies the schedule and still propagates its
	// phantomness upward, but no restore can use it.
	Phantom bool
}

// Covers reports whether the RP is usable at observation time `at`.
func (r RP) Covers(at time.Duration) bool {
	return r.AvailableAt <= at && at < r.ExpiresAt
}

// event is a scheduled RP propagation start at one level.
type event struct {
	at    time.Duration
	level int // 1-based
	// secondary marks a cyclic policy's incremental window.
	secondary bool
	// seq breaks ties deterministically (FIFO for equal times).
	seq int64
}

// eventQueue is a binary min-heap on (at, level, seq), typed so that
// pushing and popping an event does not box it.
type eventQueue []event

func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	// Lower levels fire first at equal instants so a level snapshotting
	// its source sees data that lands "at the same time" (the aligned
	// schedules of Figure 2 depend on this).
	if q[i].level != q[j].level {
		return q[i].level < q[j].level
	}
	return q[i].seq < q[j].seq
}

func (q *eventQueue) push(e event) {
	*q = append(*q, e)
	h := *q
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h.Less(i, p) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (q *eventQueue) pop() event {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && h.Less(r, m) {
			m = r
		}
		if !h.Less(m, i) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	*q = h
	return top
}

// Outage suspends one level's RP propagation for a time span: windows
// that close inside [From, To) produce no RP (the technique is out of
// service). A run may take several, including overlapping windows on
// distinct levels (compound failures) or on the same level. Used to
// validate the analytic degraded-mode model.
type Outage struct {
	Level    int // 1-based
	From, To time.Duration
	// AbortInFlight additionally destroys RPs whose hold+propagation span
	// overlaps the outage: a failure landing mid-propagation aborts the
	// transfer instead of letting it complete. The corresponding analytic
	// bound must then charge the level's transfer lag on top of the
	// outage duration (the newest surviving RP finished propagating
	// before the outage began).
	AbortInFlight bool
}

// contains reports whether the instant falls inside the outage.
func (o Outage) contains(at time.Duration) bool {
	return at >= o.From && at < o.To
}

// SilentFault makes one level's captures lie for a time span: windows
// that close inside [From, To) report success and schedule normally, but
// the RPs they produce are phantoms — present in the schedule, useless
// at restore. Unlike an Outage the failure is invisible to the level
// itself, which is what makes the silent non-write and correlated
// corruption operator faults undetectable by status checks alone.
type SilentFault struct {
	Level    int // 1-based
	From, To time.Duration
}

// contains reports whether the instant falls inside the fault window.
func (f SilentFault) contains(at time.Duration) bool {
	return at >= f.From && at < f.To
}

// Simulator holds one validated chain to replay.
type Simulator struct {
	chain hierarchy.Chain
}

// ErrCountOnlyRetention reports a level retained by count alone (RetW
// 0). The simulator expires each RP RetW after it lands, so such a level
// would hold nothing, where the analytic model keeps RetCnt cycles.
var ErrCountOnlyRetention = errors.New("sim: count-only retention (retW 0) is not simulated; give the level a retention window")

// New validates the chain and returns a simulator over a copy of it.
func New(c hierarchy.Chain) (*Simulator, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	for i, lvl := range c {
		if lvl.Policy.RetW == 0 {
			return nil, fmt.Errorf("%w: level %d (%s)", ErrCountOnlyRetention, i+1, lvl.Name)
		}
	}
	return &Simulator{chain: slices.Clone(c)}, nil
}

// History is the RP history one Run produced: every RP each level fired
// in the run's window, retained or expired. It is never modified after
// Run returns it, unless it is handed to a later Run to replay into.
type History struct {
	chain   hierarchy.Chain
	levels  [][]RP // retained and expired RPs per level, in fire order (span relies on it)
	outages []Outage
	silents []SilentFault
	until   time.Duration
	// block backs the levels' RP lists and queue is the replay's event
	// queue, both kept for a later Run into the same History.
	block []RP
	queue eventQueue
}

// Run replays the RP propagation that fires in [from, until] under the
// outages and silent faults and returns the History it produced. With
// from 0 the replay is the whole history from a cold start (no RPs
// exist). Otherwise the History answers Loss and Plan at an instant T
// exactly as a run from 0 to any horizon H >= T would, provided
// T-from >= Lookback() (Lookback's doc gives the proof).
//
// into, when not nil, is a History an earlier Run returned (of this or
// any Simulator) that the caller has finished reading: Run replays into
// its RP block and event queue, growing them only when the window needs
// more room, and returns it. With into nil Run replays into fresh
// storage.
//
// Run rejects a fault on a level outside the chain or with an empty or
// negative window, leaving into untouched. It keeps outs and silents by
// reference, without copying them: callers may not modify them while the
// History is in use.
func (s *Simulator) Run(into *History, outs []Outage, silents []SilentFault, from, until time.Duration) (*History, error) {
	for _, o := range outs {
		if o.Level < 1 || o.Level > len(s.chain) {
			return nil, fmt.Errorf("sim: outage level %d out of range", o.Level)
		}
		if o.To <= o.From || o.From < 0 {
			return nil, fmt.Errorf("sim: outage window [%v, %v) invalid", o.From, o.To)
		}
	}
	for _, f := range silents {
		if f.Level < 1 || f.Level > len(s.chain) {
			return nil, fmt.Errorf("sim: silent fault level %d out of range", f.Level)
		}
		if f.To <= f.From || f.From < 0 {
			return nil, fmt.Errorf("sim: silent fault window [%v, %v) invalid", f.From, f.To)
		}
	}
	if until <= 0 {
		return nil, fmt.Errorf("sim: horizon must be positive, got %v", until)
	}
	if from < 0 || from > until {
		return nil, fmt.Errorf("sim: run start %v outside [0, %v]", from, until)
	}
	h := into
	if h == nil {
		h = new(History)
	}
	h.chain, h.outages, h.silents, h.until = s.chain, outs, silents, until
	s.rpLists(h, until-from)
	q := h.queue[:0]
	if n := s.streams(); cap(q) < n {
		q = make(eventQueue, 0, n)
	}
	var seq int64
	push := func(e event) {
		e.seq = seq
		seq++
		q.push(e)
	}
	// Seed every stream at its first grid instant at or after from.
	// Primary windows fire once per cycle period; secondary (incremental)
	// windows fire between them. Each level is phase-aligned to fire just
	// after fresh data lands from below (the paper's Figure 2
	// construction: backup propagation begins right after the
	// Saturday-midnight split; vault shipments catch the just-expired
	// backup), which is what makes the closed-form worst case
	// Σ(holdW+propW)+accW achievable. The grid ignores outages, so a run
	// from any instant fires the whole run's fires from there on.
	for j := 1; j <= len(s.chain); j++ {
		pol := s.chain[j-1].Policy
		period := pol.CyclePeriod()
		first := s.chain.CumTransferLag(j-1) + pol.Primary.AccW
		push(event{at: gridFrom(first, period, from), level: j})
		if pol.Secondary != nil {
			for k := 1; k <= pol.CycleCnt; k++ {
				at := first + time.Duration(k)*pol.Secondary.AccW
				push(event{at: gridFrom(at, period, from), level: j, secondary: true})
			}
		}
	}
	for len(q) > 0 {
		e := q.pop()
		if e.at > until {
			break
		}
		h.fire(e)
		// Reschedule one cycle later.
		e.at += s.chain[e.level-1].Policy.CyclePeriod()
		push(e)
	}
	h.queue = q
	return h, nil
}

// maxPresizedRPs bounds the RPs rpLists allocates room for up front; a
// longer run grows its lists as it fires.
const maxPresizedRPs = 1 << 20

// rpLists sets each of h's level RP lists empty for a run over a window
// of length span, all backed by h's block, which grows to the size where
// no list regrows. Sizing by the replayed window rather than the mission
// keeps a windowed replay of one-minute mirror cycles at a few RPs.
func (s *Simulator) rpLists(h *History, span time.Duration) {
	n := len(s.chain)
	if cap(h.levels) < n {
		h.levels = make([][]RP, n)
	}
	h.levels = h.levels[:n]
	total := 0
	for _, lvl := range s.chain {
		if total += levelRPs(&lvl.Policy, span); total > maxPresizedRPs {
			clear(h.levels)
			return
		}
	}
	if cap(h.block) < total {
		h.block = make([]RP, total)
	}
	block := h.block[:total]
	for j := range s.chain {
		n := levelRPs(&s.chain[j].Policy, span)
		h.levels[j], block = block[:0:n], block[n:]
	}
}

// levelRPs bounds the RPs a level of policy pol appends in a window of
// length span: each of its streams fires at most span/period + 1 times
// in it, and a fire appends at most one RP. A bound above maxPresizedRPs
// may be reported as maxPresizedRPs + 1.
func levelRPs(pol *hierarchy.Policy, span time.Duration) int {
	per, streams := pol.CyclePeriod(), 1
	if pol.Secondary != nil {
		streams += pol.CycleCnt
	}
	if per <= 0 || streams > maxPresizedRPs || span/per >= maxPresizedRPs {
		return maxPresizedRPs + 1
	}
	return streams * int(span/per+1)
}

// streams returns the number of RP streams in the chain: one primary per
// level plus each cyclic level's secondary windows.
func (s *Simulator) streams() int {
	n := len(s.chain)
	for _, lvl := range s.chain {
		n += lvl.Policy.CycleCnt
	}
	return n
}

// gridFrom returns the first instant of the grid first + k*period (k >= 0)
// at or after from.
func gridFrom(first, period, from time.Duration) time.Duration {
	if from <= first {
		return first
	}
	return first + (from-first+period-1)/period*period
}

// Lookback bounds how far back of a query instant the RP history the
// query can observe reaches: for every instant T and every horizon
// H >= T, Run(outs, silents, max(0, T-Lookback()), T) answers Loss and
// Plan at T exactly as Run(outs, silents, 0, H). It is Σ_j D_j, where
// D_j = RetW_j + TransferLag_j is the longest an RP of level j outlives
// its window close.
//
// Proof. Each stream's fire grid depends on the chain alone, and no two
// streams of one level share an instant, so a run from F fires the whole
// run's fires in [F, T], in the same order. An RP of level j fired at f
// is retained until f + holdW + propW + RetW_j <= f + D_j, so only RPs
// fired after t-D_j can cover instant t. Call a fire exact when it
// produces the same RP, or none, in both runs.
//  1. A level-1 fire at or after F is exact: its RP depends on its
//     instant and the faults only.
//  2. A level-j fire at f >= F + Σ_{i<j} D_i is exact: it copies the
//     newest level-(j-1) RP covering f, every RP that can cover f fired
//     after f-D_{j-1} >= F + Σ_{i<j-1} D_i, and by induction those fires
//     are exact, so both runs hold the same covering RPs.
//  3. With F = T-Lookback(), every RP covering T at level j fired after
//     T-D_j >= F + Σ_{i<j} D_i, so both runs hold the same RPs at T. An
//     incremental's base is the latest full closed before it whose cut
//     does not postdate it. Scanning back from the incremental, the fulls
//     fired after T-D_j are exact and fulls fired earlier cannot cover
//     T, so either both runs find the same base or neither finds one
//     that covers T, and the incremental is unusable in both.
//
// Queries at T read nothing fired after T, so H does not matter; with
// F = 0 the two runs fire alike throughout.
func (s *Simulator) Lookback() time.Duration {
	var l time.Duration
	for _, lvl := range s.chain {
		l += lvl.Policy.RetW + lvl.Policy.TransferLag()
	}
	return l
}

// WarmUp returns a horizon after which every level is in steady state:
// each has filled its retention and absorbed the full propagation lag.
func (s *Simulator) WarmUp() time.Duration {
	var warm time.Duration
	for j := 1; j <= len(s.chain); j++ {
		pol := s.chain[j-1].Policy
		candidate := s.chain.CumTransferLag(j) +
			time.Duration(pol.RetCnt+1)*pol.CyclePeriod() + pol.RetW
		if candidate > warm {
			warm = candidate
		}
	}
	return warm
}

// Chain returns the simulated chain.
func (s *Simulator) Chain() hierarchy.Chain { return s.chain }

// fire executes one propagation: the level snapshots the newest content
// available below it and the RP becomes available after hold+prop.
func (h *History) fire(e event) {
	pol := h.chain[e.level-1].Policy
	win := pol.Primary
	if e.secondary {
		win = *pol.Secondary
	}
	avail := e.at + win.HoldW + win.PropW
	for _, o := range h.outages {
		if o.Level != e.level {
			continue
		}
		if o.contains(e.at) {
			return // technique out of service: the window produces nothing
		}
		if o.AbortInFlight && e.at < o.To && avail > o.From {
			return // the transfer was in flight when the outage struck
		}
	}
	// What does this RP reflect? Level 1 draws from the always-current
	// primary copy: the RP covers updates through the window close (now).
	// Deeper levels forward the newest RP available below at this instant.
	// A silent fault poisons the capture without changing the schedule,
	// and a phantom source poisons every copy taken from it.
	cut := e.at
	phantom := h.inSilent(e.level, e.at)
	if e.level > 1 {
		below, ok := h.newest(e.level-1, e.at)
		if !ok {
			return // nothing to propagate yet (cold start)
		}
		cut = below.Cut
		phantom = phantom || below.Phantom
	}
	h.levels[e.level-1] = append(h.levels[e.level-1], RP{
		Cut:         cut,
		AvailableAt: avail,
		ExpiresAt:   avail + pol.RetW,
		Secondary:   e.secondary,
		Phantom:     phantom,
	})
}

// inSilent reports whether a window closing at `at` on the level falls
// inside a silent fault.
func (h *History) inSilent(level int, at time.Duration) bool {
	for _, f := range h.silents {
		if f.Level == level && f.contains(at) {
			return true
		}
	}
	return false
}

// newest returns the freshest RP usable at `at` on the level.
func (h *History) newest(level int, at time.Duration) (RP, bool) {
	var best RP
	found := false
	// RPs are appended in window-close order, which is not availability
	// order for cyclic policies (a slow full can land after a later fast
	// incremental), so scan every RP that can cover the instant.
	lo, hi := h.span(level, at)
	for _, rp := range h.levels[level-1][lo:hi] {
		if rp.Covers(at) && (!found || rp.Cut > best.Cut) {
			best, found = rp, true
		}
	}
	return best, found
}

// span returns the index range [lo, hi) of the level's RPs that can
// cover instant at: those fired in (at-D_j, at], where D_j = RetW_j +
// TransferLag_j is Lookback's per-level term. An RP fired at f lands by
// f + TransferLag_j and expires RetW_j after landing, so one fired at or
// before at-D_j has expired by at, and one fired after at has not
// landed. RPs are appended in fire order, and an RP's fire instant is its
// AvailableAt less its window's HoldW + PropW, so two binary searches
// find the range without storing the instants.
func (h *History) span(level int, at time.Duration) (lo, hi int) {
	pol := &h.chain[level-1].Policy
	rps := h.levels[level-1]
	hi = firedAfter(rps, pol, at)
	lo = firedAfter(rps[:hi], pol, at-pol.RetW-pol.TransferLag())
	return lo, hi
}

// firedAfter returns the index of the first RP fired after t, in a list
// of the policy's RPs in fire order.
func firedAfter(rps []RP, pol *hierarchy.Policy, t time.Duration) int {
	lo, hi := 0, len(rps)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		win := &pol.Primary
		if rps[m].Secondary {
			win = pol.Secondary
		}
		if rps[m].AvailableAt-win.TransferLag() <= t {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// Available returns the RPs usable at observation time `at` on a level.
func (h *History) Available(level int, at time.Duration) ([]RP, error) {
	if level < 1 || level > len(h.chain) {
		return nil, fmt.Errorf("sim: level %d out of range", level)
	}
	var out []RP
	lo, hi := h.span(level, at)
	for _, rp := range h.levels[level-1][lo:hi] {
		if rp.Covers(at) {
			out = append(out, rp)
		}
	}
	return out, nil
}

// baseFull returns the base the level's i-th RP, a cumulative
// incremental, must be applied over: the latest full closed before it
// whose cut does not postdate the incremental's. The incremental covers
// updates since that full only, so no older full can substitute, and a
// full closed later cannot serve even when it re-captured the same source
// RP while the level below was out.
func (h *History) baseFull(level, i int) (RP, bool) {
	rps := h.levels[level-1]
	for k := i - 1; k >= 0; k-- {
		if !rps[k].Secondary && rps[k].Cut <= rps[i].Cut {
			return rps[k], true
		}
	}
	return RP{}, false
}

// usableAt reports whether the level's i-th RP can actually serve a
// restore at failAt: it must cover the instant itself, hold real data
// (phantoms from silent faults still occupy the schedule — and still
// propagate, because the level believes them good — but cannot serve),
// and, for incrementals, so must its base full (an incremental that lands
// while its full is still propagating is useless until the full arrives).
func (h *History) usableAt(level, i int, failAt time.Duration) bool {
	rp := h.levels[level-1][i]
	if rp.Phantom || !rp.Covers(failAt) {
		return false
	}
	if !rp.Secondary {
		return true
	}
	base, ok := h.baseFull(level, i)
	return ok && !base.Phantom && base.Covers(failAt)
}

// Loss measures the data loss a recovery would incur if a failure struck
// at failAt with the given surviving levels, restoring to the target
// instant failAt-targetAge: the loss and serving level of Plan's restore.
// ok is false when no usable RP survives (the object is lost), failAt is
// past the run, or the target precedes time zero.
func (h *History) Loss(surviving []int, failAt, targetAge time.Duration) (loss time.Duration, level int, ok bool) {
	p, ok := h.Plan(surviving, failAt, targetAge)
	return p.Loss, p.Level, ok
}

// Stats summarizes a loss study across failure instants.
type Stats struct {
	// Samples is the number of failure instants evaluated.
	Samples int
	// Unrecoverable counts instants where no usable RP survived.
	Unrecoverable int
	// Max and Mean summarize the loss over recoverable instants.
	Max  time.Duration
	Mean time.Duration
}

// LossStudy sweeps failure instants from `from` to `to` (inclusive) every
// `step` and aggregates the measured losses. The losses are summed in
// float64: a few thousand instants losing weeks each overflow a
// time.Duration sum.
func (h *History) LossStudy(surviving []int, targetAge, from, to, step time.Duration) (Stats, error) {
	if step <= 0 || to < from {
		return Stats{}, fmt.Errorf("sim: bad study window [%v, %v] step %v", from, to, step)
	}
	var st Stats
	var sum float64
	for at := from; at <= to; at += step {
		st.Samples++
		loss, _, ok := h.Loss(surviving, at, targetAge)
		if !ok {
			st.Unrecoverable++
			continue
		}
		if loss > st.Max {
			st.Max = loss
		}
		sum += float64(loss)
	}
	if n := st.Samples - st.Unrecoverable; n > 0 {
		st.Mean = time.Duration(sum / float64(n))
	}
	return st, nil
}

// RPs returns a copy of every RP the level produced during the run,
// retained or expired, in window-close order. Callers use it to probe
// edge instants (availability and expiry boundaries) without re-deriving
// the schedule.
func (h *History) RPs(level int) ([]RP, error) {
	if level < 1 || level > len(h.chain) {
		return nil, fmt.Errorf("sim: level %d out of range", level)
	}
	return append([]RP(nil), h.levels[level-1]...), nil
}
