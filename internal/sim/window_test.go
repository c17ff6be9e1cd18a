package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"stordep/internal/hierarchy"
	"stordep/internal/units"
)

// fiUnderSnapshots is a 6-hour snapshot level under an F+I level: a
// 12-hour full with 6 hours of propagation, then two 6-hour incrementals
// with 1 hour each. While the snapshots are out, a later full re-captures
// the source RP an earlier incremental copied.
func fiUnderSnapshots() hierarchy.Chain {
	return hierarchy.Chain{
		{Name: "snapshot", Policy: hierarchy.Policy{
			Primary: hierarchy.WindowSet{AccW: 6 * time.Hour, Rep: hierarchy.RepFull},
			RetCnt:  4, RetW: 10 * units.Day, CopyRep: hierarchy.RepFull,
		}},
		{Name: "fi-backup", Policy: hierarchy.Policy{
			Primary:   hierarchy.WindowSet{AccW: 12 * time.Hour, PropW: 6 * time.Hour, Rep: hierarchy.RepFull},
			Secondary: &hierarchy.WindowSet{AccW: 6 * time.Hour, PropW: time.Hour, Rep: hierarchy.RepPartial},
			CycleCnt:  2,
			RetCnt:    2, RetW: 4 * units.Day, CopyRep: hierarchy.RepFull,
		}},
	}
}

// runWith runs the chain over [from, until] under the given faults.
func runWith(t *testing.T, c hierarchy.Chain, outs []Outage, silents []SilentFault, from, until time.Duration) *History {
	t.Helper()
	s, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	h, err := s.Run(nil, outs, silents, from, until)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// sameAnswers reports the first query on which two simulators disagree:
// Loss and Plan at instant at, for every non-empty subset of levels and
// every target age.
func sameAnswers(got, want *History, at time.Duration, ages []time.Duration) error {
	n := len(want.chain)
	for mask := 1; mask < 1<<n; mask++ {
		var surviving []int
		for j := 1; j <= n; j++ {
			if mask&(1<<(j-1)) != 0 {
				surviving = append(surviving, j)
			}
		}
		for _, age := range ages {
			gl, gj, gok := got.Loss(surviving, at, age)
			wl, wj, wok := want.Loss(surviving, at, age)
			if gl != wl || gj != wj || gok != wok {
				return fmt.Errorf("Loss(%v, %v, age %v) = %v/%d/%v, want %v/%d/%v", surviving, at, age, gl, gj, gok, wl, wj, wok)
			}
			gp, gok := got.Plan(surviving, at, age)
			wp, wok := want.Plan(surviving, at, age)
			if gp != wp || gok != wok {
				return fmt.Errorf("Plan(%v, %v, age %v) = %+v/%v, want %+v/%v", surviving, at, age, gp, gok, wp, wok)
			}
		}
	}
	return nil
}

// TestAnswerIndependentOfHorizon is the prefix property: the answer at T
// is the same whether the run stopped at T or later. An incremental's
// base must come from the fulls closed before it; a full closed after T
// that re-captures the incremental's source RP must not disqualify it.
func TestAnswerIndependentOfHorizon(t *testing.T) {
	c := fiUnderSnapshots()
	var ages []time.Duration
	for age := time.Duration(0); age <= 4*units.Day; age += 6 * time.Hour {
		ages = append(ages, age)
	}
	// The case that exposed the bug: at 251.5h an incremental is usable,
	// and a full closed at 264h re-captures its source snapshot.
	outs := []Outage{{Level: 1, From: 240 * time.Hour, To: 270 * time.Hour}}
	at := 251*time.Hour + 30*time.Minute
	long := runWith(t, c, outs, nil, 0, 40*units.Day)
	if loss, _, ok := long.Loss([]int{2}, at, 0); !ok || loss != 17*time.Hour+30*time.Minute {
		t.Errorf("level-2 loss at %v = %v/%v, want 17h30m", at, loss, ok)
	}
	for start := 200 * time.Hour; start <= 260*time.Hour; start += 10 * time.Hour {
		outs := []Outage{{Level: 1, From: start, To: start + 30*time.Hour}}
		long := runWith(t, c, outs, nil, 0, 40*units.Day)
		for at := 230 * time.Hour; at <= 300*time.Hour; at += 30 * time.Minute {
			short := runWith(t, c, outs, nil, 0, at)
			if err := sameAnswers(short, long, at, ages); err != nil {
				t.Fatalf("outage from %v: run to %v vs %v: %v", start, at, 40*units.Day, err)
			}
		}
	}
}

// quantum is the grid of every duration randomChain draws: coarse enough
// that streams of different levels often fire, land and expire at the
// same instant.
const quantum = 30 * time.Minute

func quanta(r *rand.Rand, lo, hi int) time.Duration {
	return time.Duration(lo+r.Intn(hi-lo+1)) * quantum
}

// randomChain draws a 1-3 level chain with retention short next to the
// horizons the tests run. A cyclic level's secondary window does not
// divide its primary one, so its cycle grid is uneven.
func randomChain(r *rand.Rand) hierarchy.Chain {
	win := func(acc time.Duration, rep hierarchy.Representation) hierarchy.WindowSet {
		return hierarchy.WindowSet{AccW: acc, PropW: quanta(r, 0, int(acc/quantum)), HoldW: quanta(r, 0, int(acc/quantum)), Rep: rep}
	}
	c := make(hierarchy.Chain, 1+r.Intn(3))
	acc := quanta(r, 1, 8)
	for j := range c {
		pol := hierarchy.Policy{Primary: win(acc, hierarchy.RepFull), CopyRep: hierarchy.RepFull}
		if r.Intn(2) == 0 {
			sec := win(quanta(r, 1, 5), hierarchy.RepPartial)
			pol.Secondary = &sec
			pol.CycleCnt = 1 + r.Intn(3)
		}
		pol.RetCnt = 1 + r.Intn(3)
		pol.RetW = pol.RetentionSpan() + quanta(r, 1, 12)
		c[j] = hierarchy.Level{Name: fmt.Sprintf("level-%d", j+1), Policy: pol}
		acc = pol.CyclePeriod() + quanta(r, 0, 8)
	}
	return c
}

// randomFaults draws outages, some aborting in-flight transfers, and
// silent faults over [0, horizon).
func randomFaults(r *rand.Rand, c hierarchy.Chain, horizon time.Duration) ([]Outage, []SilentFault) {
	var outs []Outage
	var silents []SilentFault
	for k := r.Intn(5); k > 0; k-- {
		from := time.Duration(r.Int63n(int64(horizon/quantum))) * quantum
		level := 1 + r.Intn(len(c))
		span := c[level-1].Policy.CyclePeriod()
		outs = append(outs, Outage{Level: level, From: from, To: from + quanta(r, 1, 2+int(3*span/quantum)), AbortInFlight: r.Intn(2) == 0})
	}
	for k := r.Intn(3); k > 0; k-- {
		from := time.Duration(r.Int63n(int64(horizon/quantum))) * quantum
		level := 1 + r.Intn(len(c))
		span := c[level-1].Policy.CyclePeriod()
		silents = append(silents, SilentFault{Level: level, From: from, To: from + quanta(r, 1, 2+int(2*span/quantum))})
	}
	return outs, silents
}

// TestWindowedRunExact checks Lookback's claim on random chains: a run
// from T-Lookback() answers Loss and Plan at T exactly as the whole
// run, for every surviving subset and target ages up to each level's
// retention span. Query instants include the instants RPs land and
// expire, where an off-by-one in the window would show.
func TestWindowedRunExact(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var windows, late int
	for trial := 0; trial < 150; trial++ {
		c := randomChain(r)
		s, err := New(c)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		lookback := s.Lookback()
		horizon := 4*lookback + quanta(r, 0, 48)
		outs, silents := randomFaults(r, c, horizon)
		full := runWith(t, c, outs, silents, 0, horizon)

		var ats []time.Duration
		for j := 1; j <= len(c); j++ {
			rps, err := full.RPs(j)
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < 4 && len(rps) > 0; k++ {
				rp := rps[r.Intn(len(rps))]
				ats = append(ats, rp.AvailableAt, rp.ExpiresAt, rp.ExpiresAt-time.Nanosecond)
			}
		}
		for k := 0; k < 4; k++ {
			ats = append(ats, time.Duration(r.Int63n(int64(horizon))))
		}
		var span time.Duration
		for _, lvl := range c {
			if s := lvl.Policy.RetentionSpan() + lvl.Policy.CyclePeriod(); s > span {
				span = s
			}
		}
		var ages []time.Duration
		for age := time.Duration(0); age <= span; age += span / 8 {
			ages = append(ages, age)
		}
		for _, at := range ats {
			if at <= 0 || at > horizon {
				continue
			}
			from := at - lookback
			if from < 0 {
				from = 0
			}
			windows++
			if from > 0 {
				late++
			}
			win := runWith(t, c, outs, silents, from, at)
			if err := sameAnswers(win, full, at, ages); err != nil {
				t.Fatalf("trial %d, chain %v, outages %+v, silents %+v, window [%v, %v]: %v",
					trial, c, outs, silents, from, at, err)
			}
		}
	}
	// The property is only tested where windows start after time zero.
	if late*2 < windows {
		t.Errorf("only %d of %d windows start after time zero", late, windows)
	}
}

// scanServing is the whole-list scan that Loss and Plan bound to the
// RPs that can cover failAt: the level and list index of the serving RP,
// or level 0 when no usable RP survives.
func scanServing(s *History, surviving []int, failAt, targetAge time.Duration) (level, index int) {
	target := failAt - targetAge
	if failAt > s.until || target < 0 {
		return 0, -1
	}
	var bestCut time.Duration = -1
	for _, j := range surviving {
		for i, rp := range s.levels[j-1] {
			if rp.Cut <= target && rp.Cut > bestCut && s.usableAt(j, i, failAt) {
				bestCut, level, index = rp.Cut, j, i
			}
		}
	}
	return level, index
}

// boundedScansAgree reports the first query at instant at on which a
// bounded scan (newest, Available, Loss, Plan) differs from the
// whole-list scan, for every non-empty subset of levels and target age.
func boundedScansAgree(s *History, at time.Duration, ages []time.Duration) error {
	n := len(s.chain)
	for j := 1; j <= n; j++ {
		var want []RP
		var newest RP
		found := false
		for _, rp := range s.levels[j-1] {
			if rp.Covers(at) {
				want = append(want, rp)
				if !found || rp.Cut > newest.Cut {
					newest, found = rp, true
				}
			}
		}
		got, err := s.Available(j, at)
		if err != nil {
			return err
		}
		if !slices.Equal(got, want) {
			return fmt.Errorf("Available(%d, %v) = %+v, want %+v", j, at, got, want)
		}
		if rp, ok := s.newest(j, at); rp != newest || ok != found {
			return fmt.Errorf("newest(%d, %v) = %+v/%v, want %+v/%v", j, at, rp, ok, newest, found)
		}
	}
	for mask := 1; mask < 1<<n; mask++ {
		var surviving []int
		for j := 1; j <= n; j++ {
			if mask&(1<<(j-1)) != 0 {
				surviving = append(surviving, j)
			}
		}
		for _, age := range ages {
			var wantLoss time.Duration
			var wantPlan RestorePlan
			level, i := scanServing(s, surviving, at, age)
			if level > 0 {
				rp := s.levels[level-1][i]
				wantLoss = at - age - rp.Cut
				wantPlan = RestorePlan{Serving: rp, Level: level, Loss: wantLoss, FullCut: rp.Cut, Incremental: rp.Secondary}
				if rp.Secondary {
					base, _ := s.baseFull(level, i)
					wantPlan.FullCut = base.Cut
				}
			}
			loss, lj, ok := s.Loss(surviving, at, age)
			if loss != wantLoss || lj != level || ok != (level > 0) {
				return fmt.Errorf("Loss(%v, %v, age %v) = %v/%d/%v, want %v/%d/%v", surviving, at, age, loss, lj, ok, wantLoss, level, level > 0)
			}
			plan, ok := s.Plan(surviving, at, age)
			if plan != wantPlan || ok != (level > 0) {
				return fmt.Errorf("Plan(%v, %v, age %v) = %+v/%v, want %+v/%v", surviving, at, age, plan, ok, wantPlan, level > 0)
			}
		}
	}
	return nil
}

// TestBoundedScansExact checks that the scans bounded to the RPs fired in
// (at - RetW_j - TransferLag_j, at] answer as whole-list scans do, on
// random chains whose cyclic levels land a slow full after a later fast
// incremental, so AvailableAt is not monotone in list order. Queries sit
// at every RP's landing and expiry and a nanosecond before its expiry,
// where a reach one nanosecond short drops an RP that still covers the
// instant, and at random instants.
func TestBoundedScansExact(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	var unordered int
	for trial := 0; trial < 100; trial++ {
		c := randomChain(r)
		sm, err := New(c)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		horizon := 3*sm.Lookback() + quanta(r, 0, 48)
		outs, silents := randomFaults(r, c, horizon)
		s := runWith(t, c, outs, silents, 0, horizon)

		var ats []time.Duration
		for j := 1; j <= len(c); j++ {
			for i, rp := range s.levels[j-1] {
				ats = append(ats, rp.AvailableAt, rp.ExpiresAt, rp.ExpiresAt-time.Nanosecond)
				if i > 0 && rp.AvailableAt < s.levels[j-1][i-1].AvailableAt {
					unordered++
				}
			}
		}
		for k := 0; k < 8; k++ {
			ats = append(ats, time.Duration(r.Int63n(int64(horizon))))
		}
		span := c[len(c)-1].Policy.RetentionSpan() + c[len(c)-1].Policy.CyclePeriod()
		ages := []time.Duration{0, span / 3, span}
		for _, at := range ats {
			if err := boundedScansAgree(s, at, ages); err != nil {
				t.Fatalf("trial %d, chain %v, outages %+v, silents %+v: %v", trial, c, outs, silents, err)
			}
		}
	}
	if unordered == 0 {
		t.Error("no level landed an RP before one fired earlier; the unordered case went untested")
	}
}

func TestRunFromGuards(t *testing.T) {
	for _, tc := range []struct {
		from, until time.Duration
		want        string
	}{
		{-time.Hour, units.Week, "sim: run start -1h0m0s outside [0, 168h0m0s]"},
		{2 * units.Week, units.Week, "sim: run start 336h0m0s outside [0, 168h0m0s]"},
	} {
		if err := runErr(t, nil, nil, tc.from, tc.until); err == nil || err.Error() != tc.want {
			t.Errorf("run over [%v, %v] accepted: %v, want %q", tc.from, tc.until, err, tc.want)
		}
	}
}

// TestLookback pins the bound for the paper's baseline: each level's
// retention window plus its hold and propagation lag.
func TestLookback(t *testing.T) {
	s, err := New(baselineChain())
	if err != nil {
		t.Fatal(err)
	}
	want := 2*units.Day + (4*units.Week + 49*time.Hour) + (3*units.Year + 4*units.Week + 36*time.Hour)
	if got := s.Lookback(); got != want {
		t.Errorf("Lookback() = %v, want %v", got, want)
	}
}

// TestRPListsSizedOnce checks the bound Run sizes each level's RP list
// by, on random chains over windows whose ends fall on the quantum grid
// every fire instant lies on: no fault-free run appends more RPs than
// levelRPs allows, so no list regrows out of the shared array, and some
// runs reach the bound, so its one fire more than the period count is
// needed.
func TestRPListsSizedOnce(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	var runs, tight int
	for trial := 0; trial < 300; trial++ {
		c := randomChain(r)
		from := quanta(r, 0, 400)
		until := from + quanta(r, 1, 400)
		h := runWith(t, c, nil, nil, from, until)
		for j, rps := range h.levels {
			bound := levelRPs(&c[j].Policy, until-from)
			if len(rps) > bound || cap(rps) != bound {
				t.Fatalf("trial %d, chain %v, window [%v, %v]: level %d holds %d RPs in %d, bound %d",
					trial, c, from, until, j+1, len(rps), cap(rps), bound)
			}
			runs++
			if len(rps) == bound {
				tight++
			}
		}
	}
	t.Logf("%d of %d level runs reach the bound", tight, runs)
	if tight == 0 {
		t.Error("no run reaches the bound")
	}
}

// TestRunIntoReusedHistory: a Run into a History an earlier Run returned
// fires exactly the RPs a Run into fresh storage does, whatever chain,
// faults and window the earlier Run had (more levels or fewer, a longer
// window or a shorter one), and returns the History it was handed.
func TestRunIntoReusedHistory(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	var reused *History
	for trial := 0; trial < 200; trial++ {
		c := randomChain(r)
		s, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		from := quanta(r, 0, 400)
		until := from + quanta(r, 1, 400)
		outs, silents := randomFaults(r, c, until)
		want := runWith(t, c, outs, silents, from, until)
		got, err := s.Run(reused, outs, silents, from, until)
		if err != nil {
			t.Fatal(err)
		}
		if reused != nil && got != reused {
			t.Fatalf("trial %d: Run returned new storage, not the History it was handed", trial)
		}
		reused = got
		if len(got.levels) != len(c) {
			t.Fatalf("trial %d: %d level lists for %d levels", trial, len(got.levels), len(c))
		}
		for j := range c {
			if !slices.Equal(got.levels[j], want.levels[j]) {
				t.Fatalf("trial %d, chain %v, window [%v, %v]: level %d fired %v into reused storage, %v into fresh",
					trial, c, from, until, j+1, got.levels[j], want.levels[j])
			}
		}
		if err := sameAnswers(got, want, until, []time.Duration{0, quanta(r, 1, 24)}); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}
