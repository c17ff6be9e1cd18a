package mc

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"stordep/internal/casestudy"
	"stordep/internal/core"
	"stordep/internal/device"
	"stordep/internal/failure"
	"stordep/internal/protect"
	"stordep/internal/sim"
	"stordep/internal/units"
	"stordep/internal/whatif"
)

func TestRunBasic(t *testing.T) {
	c := &Campaign{Design: casestudy.Baseline(), Seed: 1, Trials: 50, Workers: 2}
	rep, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trials != 50 || rep.Mission != DefaultMission {
		t.Errorf("header wrong: %d trials, mission %v", rep.Trials, rep.Mission)
	}
	if rep.Events == 0 {
		t.Error("no failure events sampled in 50 trial-years")
	}
	for _, e := range []Estimate{rep.Availability, rep.Durability, rep.PerfAvailability} {
		if e.Lo > e.Value || e.Value > e.Hi {
			t.Errorf("estimate not ordered: %+v", e)
		}
		if e.Lo < 0 || e.Hi > 1 {
			t.Errorf("estimate outside [0,1]: %+v", e)
		}
	}
	if rep.Availability.Value < rep.PerfAvailability.Value {
		t.Errorf("availability %v below perf-availability %v (perf adds degraded time)",
			rep.Availability.Value, rep.PerfAvailability.Value)
	}
	if rep.ExpectedCost() < rep.Outlay {
		t.Errorf("expected cost %v below outlay %v", rep.ExpectedCost(), rep.Outlay)
	}
	if rep.PenaltyMean < 0 || rep.PenaltyStdErr < 0 {
		t.Errorf("negative penalty stats: %v +- %v", rep.PenaltyMean, rep.PenaltyStdErr)
	}
	if rep.String() == "" {
		t.Error("empty rendering")
	}
}

// TestCrossModelInvariant is the acceptance criterion: across every
// case-study design, no sampled trial's simulated loss or recovery time
// may exceed the analytic worst-case bound for its sampled scenario.
func TestCrossModelInvariant(t *testing.T) {
	for _, d := range casestudy.WhatIfDesigns() {
		c := &Campaign{Design: d, Seed: 7, Trials: 60, Workers: 4}
		rep, err := c.Run()
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		if rep.BoundChecks == 0 {
			t.Errorf("%s: invariant never fired (0 checks)", d.Name)
		}
		if rep.BoundViolations != 0 {
			t.Errorf("%s: %d bound violations across %d checks",
				d.Name, rep.BoundViolations, rep.BoundChecks)
		}
	}
}

// TestWorkerDeterminism pins the campaign contract: byte-identical
// reports for workers {1, 2, 8}.
func TestWorkerDeterminism(t *testing.T) {
	var want *Report
	var wantJSON []byte
	for _, w := range []int{1, 2, 8} {
		c := &Campaign{Design: casestudy.WeeklyVault(), Seed: 42, Trials: 40, Workers: w}
		rep, err := c.Run()
		if err != nil {
			t.Fatalf("workers %d: %v", w, err)
		}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want, wantJSON = rep, data
			continue
		}
		if string(data) != string(wantJSON) {
			t.Errorf("workers %d: report differs from workers 1:\n%s\nvs\n%s", w, data, wantJSON)
		}
		if rep.Digest != want.Digest {
			t.Errorf("workers %d: digest %x != %x", w, rep.Digest, want.Digest)
		}
	}
}

// TestShardedDeterminism proves trial-range sharding composes: sampling
// disjoint contiguous ranges separately and concatenating them is
// byte-identical to one full run, for every split of 30 trials.
func TestShardedDeterminism(t *testing.T) {
	c := &Campaign{Design: casestudy.Baseline(), Seed: 3, Trials: 30, Workers: 2}
	whole, err := c.Sample(0, c.Trials)
	if err != nil {
		t.Fatal(err)
	}
	wholeRep, err := c.Estimate(whole)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < c.Trials; cut++ {
		a, err := c.Sample(0, cut)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		b, err := c.Sample(cut, c.Trials)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		merged := append(append([]Obs{}, a...), b...)
		if Digest(merged) != wholeRep.Digest {
			t.Fatalf("cut %d: merged digest differs", cut)
		}
	}
}

// TestObsJSONRoundTrip checks Obs survives the wire exactly (shards
// exchange observation slices as JSON).
func TestObsJSONRoundTrip(t *testing.T) {
	c := &Campaign{Design: casestudy.Baseline(), Seed: 11, Trials: 10}
	obs, err := c.Sample(0, 10)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(obs)
	if err != nil {
		t.Fatal(err)
	}
	var back []Obs
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if Digest(back) != Digest(obs) {
		t.Fatal("observations did not survive JSON round trip")
	}
}

// TestEstimateNoOverflow: summing per-trial downtime as time.Duration
// overflows past ~292 trial-years; a campaign where every trial is down
// for the whole mission must still report sane means. Regression test
// for the float64 accumulation in Estimate.
func TestEstimateNoOverflow(t *testing.T) {
	const n = 1500 // 1500 trial-years of downtime overflows int64 ns
	c := &Campaign{Design: casestudy.Baseline(), Seed: 1, Trials: n}
	obs := make([]Obs, n)
	for i := range obs {
		obs[i] = Obs{Events: 1, Downtime: units.Year, LossTime: units.Year, Lost: true}
	}
	rep, err := c.Estimate(obs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MeanDowntime != units.Year {
		t.Errorf("mean downtime %v, want %v", rep.MeanDowntime, units.Year)
	}
	if rep.MeanLoss != units.Year {
		t.Errorf("mean loss %v, want %v", rep.MeanLoss, units.Year)
	}
	if rep.Availability.Value != 0 {
		t.Errorf("availability %v for always-down trials, want 0", rep.Availability.Value)
	}
}

func TestCampaignValidation(t *testing.T) {
	if _, err := (&Campaign{Seed: 1, Trials: 5}).Run(); !errors.Is(err, ErrNoDesign) {
		t.Errorf("no design: got %v", err)
	}
	if _, err := (&Campaign{Design: casestudy.Baseline()}).Run(); !errors.Is(err, ErrBadTrials) {
		t.Errorf("no trials: got %v", err)
	}
	c := &Campaign{Design: casestudy.Baseline(), Trials: 5}
	if _, err := c.Sample(3, 2); !errors.Is(err, ErrBadRange) {
		t.Errorf("inverted range: got %v", err)
	}
	if _, err := c.Sample(0, 6); !errors.Is(err, ErrBadRange) {
		t.Errorf("range past trials: got %v", err)
	}
	if _, err := c.Estimate(nil); !errors.Is(err, ErrBadTrials) {
		t.Errorf("empty estimate: got %v", err)
	}
	// A negative mission is an error, not the default one-year window.
	neg := &Campaign{Design: casestudy.Baseline(), Trials: 5, Mission: -26 * units.Week}
	if _, err := neg.Run(); !errors.Is(err, ErrBadMission) {
		t.Errorf("negative mission: Run got %v", err)
	}
	if _, err := neg.Estimate(make([]Obs, 5)); !errors.Is(err, ErrBadMission) {
		t.Errorf("negative mission: Estimate got %v", err)
	}
	// A vault retained by count alone validates, and the analytic model
	// keeps its cycles, but the simulator cannot replay it: the campaign
	// must refuse rather than report every site disaster as a loss.
	countOnly := casestudy.Baseline()
	countOnly.Levels[2].(*protect.Vaulting).Pol.RetW = 0
	site := whatif.Frequencies{failure.ScopeSite: 2}
	if _, err := (&Campaign{Design: countOnly, Trials: 30, Rates: site}).Run(); !errors.Is(err, sim.ErrCountOnlyRetention) {
		t.Errorf("count-only vault retention: got %v", err)
	}
}

// TestMultiSitedLevelRefused: a trial takes a level out whenever one of
// its devices is down, which overstates a 2-of-3 erasure code's degraded
// time, so every entry point refuses a design with such a level and
// names it.
func TestMultiSitedLevelRefused(t *testing.T) {
	d := casestudy.Baseline()
	var sites []string
	for i, region := range []string{"north", "south", "east"} {
		spec := device.EconomyArray()
		spec.Name = fmt.Sprintf("frag-%d", i+1)
		sites = append(sites, spec.Name)
		d.Devices = append(d.Devices, core.PlacedDevice{Spec: spec, Placement: failure.Placement{
			Array: spec.Name, Building: "colo-" + region, Site: "colo-" + region, Region: region,
		}})
	}
	d.Devices = append(d.Devices, core.PlacedDevice{Spec: device.GigELinks(2)})
	d.Levels = append([]protect.Technique{&protect.ErasureCode{
		InstanceName: "fragments", Fragments: 3, Threshold: 2, Sites: sites,
		Links: device.NameGigELinks, Pol: casestudy.SplitMirrorPolicy(),
	}}, d.Levels...)
	if err := d.Validate(); err != nil {
		t.Fatalf("erasure design invalid: %v", err)
	}

	c := &Campaign{Design: d, Seed: 1, Trials: 10, Workers: 1}
	check := func(entry string, err error) {
		t.Helper()
		if !errors.Is(err, ErrMultiSited) || !strings.Contains(err.Error(), `"fragments"`) {
			t.Errorf("%s: got %v, want ErrMultiSited naming the level", entry, err)
		}
	}
	_, err := c.Run()
	check("Run", err)
	_, err = c.Sample(0, 5)
	check("Sample", err)
	_, err = c.Estimate(make([]Obs, 5))
	check("Estimate", err)
	_, err = c.Scorer()(d)
	check("Scorer", err)
}

// TestTrialReplayError: a window replays on its first query, and a
// simulator error there fails the trial with the trial's wrapping. A
// level past the chain, wired to no device, is taken down by every
// common-mode outage, and Run rejects the outage; at twenty a year every
// trial has one, and every trial with a window queries one, so no trial
// that has one succeeds.
func TestTrialReplayError(t *testing.T) {
	c := &Campaign{Design: casestudy.AsyncBMirror(4), Seed: 3, Trials: 20, Op: OpRates{CommonOutage: 20}}
	r := testRunner(t, c)
	r.levelDevs = append(r.levelDevs, nil)
	var failed int
	for i := 0; i < c.Trials; i++ {
		o, err := r.trial(new(scratch), i)
		if err == nil {
			if o.Events+o.OpEvents > 0 {
				t.Errorf("trial %d queried a history without replaying it: %+v", i, o)
			}
			continue
		}
		failed++
		if want := fmt.Sprintf("mc: trial %d: sim: outage level %d out of range", i, len(r.chain)+1); err.Error() != want {
			t.Errorf("trial %d: %v, want %q", i, err, want)
		}
	}
	if failed == 0 {
		t.Error("no trial queried a history")
	}
}

func TestSeedSensitivity(t *testing.T) {
	a, err := (&Campaign{Design: casestudy.Baseline(), Seed: 1, Trials: 15}).Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := (&Campaign{Design: casestudy.Baseline(), Seed: 2, Trials: 15}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest == b.Digest {
		t.Error("different seeds produced identical campaigns")
	}
}

func TestWilsonEstimate(t *testing.T) {
	e := wilsonEstimate(100, 100)
	if e.Value != 1 || e.Hi != 1 {
		t.Errorf("perfect run: %+v", e)
	}
	// 100/100 at 95%: Wilson lower bound ~0.963 — informative where the
	// normal interval would collapse to [1, 1].
	if e.Lo < 0.95 || e.Lo >= 1 {
		t.Errorf("wilson lower bound %v, want ~0.963", e.Lo)
	}
	half := wilsonEstimate(50, 100)
	if half.Value != 0.5 || half.Lo >= 0.5 || half.Hi <= 0.5 {
		t.Errorf("half: %+v", half)
	}
	// Interval widens as n shrinks.
	small := wilsonEstimate(5, 10)
	if small.Hi-small.Lo <= half.Hi-half.Lo {
		t.Errorf("smaller n should widen the interval: %+v vs %+v", small, half)
	}
}

func TestNines(t *testing.T) {
	if n := Nines(0.999); n < 2.99 || n > 3.01 {
		t.Errorf("Nines(0.999) = %v", n)
	}
	if n := Nines(1); !isInf(n) {
		t.Errorf("Nines(1) = %v, want +Inf", n)
	}
	if s := ninesStr(1); s != "inf" {
		t.Errorf("ninesStr(1) = %q", s)
	}
}

func isInf(f float64) bool { return f > 1e308 }

// TestMissionScaling checks a longer mission window observes
// proportionally more events.
func TestMissionScaling(t *testing.T) {
	short, err := (&Campaign{Design: casestudy.Baseline(), Seed: 5, Trials: 20, Mission: 26 * units.Week}).Run()
	if err != nil {
		t.Fatal(err)
	}
	long, err := (&Campaign{Design: casestudy.Baseline(), Seed: 5, Trials: 20, Mission: 2 * units.Year}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if long.Events <= short.Events {
		t.Errorf("2yr mission saw %d events, 26wk saw %d", long.Events, short.Events)
	}
	if short.Mission != 26*units.Week || long.Mission != 2*units.Year {
		t.Error("mission not recorded")
	}
}

func TestIntervalHelpers(t *testing.T) {
	m := mergeIntervals([]interval{{5, 8}, {1, 3}, {2, 4}, {8, 9}})
	want := []interval{{1, 4}, {5, 9}}
	if len(m) != len(want) {
		t.Fatalf("merged %v, want %v", m, want)
	}
	for i := range want {
		if m[i] != want[i] {
			t.Fatalf("merged %v, want %v", m, want)
		}
	}
	if got := mergeIntervals(nil); len(got) != 0 {
		t.Fatalf("merge of nothing: %v", got)
	}
	single := mergeIntervals([]interval{{2 * time.Hour, 3 * time.Hour}})
	if len(single) != 1 || single[0] != (interval{2 * time.Hour, 3 * time.Hour}) {
		t.Fatalf("singleton: %v", single)
	}
}
