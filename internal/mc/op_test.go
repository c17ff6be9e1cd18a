package mc

import (
	"encoding/json"
	"strings"
	"testing"

	"stordep/internal/casestudy"
)

// opCampaign is the shared fixture: all three operator-fault processes
// enabled at rates high enough that 40 trial-years observe each class.
func opCampaign(workers int) *Campaign {
	return &Campaign{
		Design:  casestudy.Baseline(),
		Seed:    9,
		Trials:  40,
		Workers: workers,
		Op:      OpRates{WrongRecovery: 2, SilentNonWrite: 2, CommonOutage: 1},
	}
}

// TestOpCampaign exercises the operator-fault channel end to end: every
// fault class is sampled, every operator fault is classified exactly
// once, the cross-model bound ledger stays clean (the clean shadow
// history anchors it), and the ex-op availability view is no worse than
// the full one.
func TestOpCampaign(t *testing.T) {
	rep, err := opCampaign(2).Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.CorrEvents == 0 {
		t.Error("no correlated outages sampled at rate 1/yr over 40 trial-years")
	}
	if rep.OpEvents == 0 {
		t.Error("no operator faults sampled at rate 4/yr over 40 trial-years")
	}
	if rep.OpDetected+rep.OpEscapes != rep.OpEvents {
		t.Errorf("classification not total: %d detected + %d escaped != %d events",
			rep.OpDetected, rep.OpEscapes, rep.OpEvents)
	}
	if rep.OpDetected == 0 {
		t.Error("no operator fault detected")
	}
	if rep.BoundViolations != 0 {
		t.Errorf("%d bound violations: operator faults leaked into the cross-model ledger", rep.BoundViolations)
	}
	if rep.BoundChecks == 0 {
		t.Error("bound ledger never checked")
	}
	if rep.AvailabilityExOp.Value < rep.Availability.Value {
		t.Errorf("ex-op availability %v below full availability %v",
			rep.AvailabilityExOp.Value, rep.Availability.Value)
	}
	out := rep.String()
	if !strings.Contains(out, "operator faults") || !strings.Contains(out, "availability-ex-op") {
		t.Errorf("report omits the operator-fault lines:\n%s", out)
	}
}

// TestOpRatesDisabled pins the default: zero rates sample nothing, all
// operator-fault fields stay zero, and the report omits the op lines.
func TestOpRatesDisabled(t *testing.T) {
	c := opCampaign(2)
	c.Op = OpRates{}
	rep, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.CorrEvents != 0 || rep.OpEvents != 0 || rep.OpDetected != 0 || rep.OpEscapes != 0 {
		t.Errorf("disabled rates left op counts: %+v", rep)
	}
	if rep.MeanOpDowntime != 0 || rep.MeanOpLoss != 0 {
		t.Errorf("disabled rates charged op time: %v / %v", rep.MeanOpDowntime, rep.MeanOpLoss)
	}
	if strings.Contains(rep.String(), "operator faults") {
		t.Error("report prints operator-fault lines with zero rates")
	}
}

// TestOpWorkerDeterminism: the operator-fault channel preserves the
// campaign determinism contract — byte-identical reports for workers
// {1, 2, 8}.
func TestOpWorkerDeterminism(t *testing.T) {
	var wantJSON []byte
	for _, w := range []int{1, 2, 8} {
		rep, err := opCampaign(w).Run()
		if err != nil {
			t.Fatalf("workers %d: %v", w, err)
		}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if wantJSON == nil {
			wantJSON = data
			continue
		}
		if string(data) != string(wantJSON) {
			t.Errorf("workers %d: report differs:\n%s\nvs\n%s", w, data, wantJSON)
		}
	}
}

// TestOpStreamIsolation: enabling wrong-recovery sampling must not
// perturb the device or disaster schedules — the disaster event count
// is identical with and without the rate (each process draws from its
// own stream).
func TestOpStreamIsolation(t *testing.T) {
	base := opCampaign(2)
	base.Op = OpRates{}
	without, err := base.Run()
	if err != nil {
		t.Fatal(err)
	}
	withWR := opCampaign(2)
	withWR.Op = OpRates{WrongRecovery: 3}
	with, err := withWR.Run()
	if err != nil {
		t.Fatal(err)
	}
	if with.Events != without.Events {
		t.Errorf("enabling wrong-recovery changed disaster events: %d vs %d",
			with.Events, without.Events)
	}
	if with.OpEvents == 0 {
		t.Error("wrong-recovery rate 3/yr sampled nothing over 40 trial-years")
	}
}

// TestOpNinesShift: operator faults at realistic rates must cost
// dependability — escaped wrong recoveries surface as data loss and
// penalties, which is the shift EXPERIMENTS.md tabulates. Common random
// numbers (shared seed, per-process streams) make the with/without
// comparison noise-free.
func TestOpNinesShift(t *testing.T) {
	base := opCampaign(2)
	base.Op = OpRates{}
	without, err := base.Run()
	if err != nil {
		t.Fatal(err)
	}
	with, err := opCampaign(2).Run()
	if err != nil {
		t.Fatal(err)
	}
	if with.MeanOpLoss <= 0 {
		t.Fatal("no operator-attributed loss at rate 2/yr over 40 trial-years")
	}
	if with.MeanLoss < with.MeanOpLoss {
		t.Errorf("op loss %v not contained in total loss %v", with.MeanOpLoss, with.MeanLoss)
	}
	if with.MeanLoss <= without.MeanLoss {
		t.Errorf("operator faults did not shift mean loss: %v vs %v", with.MeanLoss, without.MeanLoss)
	}
	if with.ExpectedCost() <= without.ExpectedCost() {
		t.Errorf("operator faults did not shift expected cost: %v vs %v",
			with.ExpectedCost(), without.ExpectedCost())
	}
}

// TestWrongRecoveryDetectedRedo exercises the detected branch directly:
// a restore landing on a point staler than every retention window
// cannot pass any check — the fault is detected and the redo charges
// one recovery pass of downtime.
func TestWrongRecoveryDetectedRedo(t *testing.T) {
	c := opCampaign(1)
	r := testRunner(t, c)
	clean, err := r.sm.Run(nil, nil, nil, 0, r.end)
	if err != nil {
		t.Fatal(err)
	}
	var o Obs
	s := new(scratch)
	s.resetBounds(r.chain, nil)
	r.applyWrongRecovery(s, &o, clean, wrongRecovery{
		at:      r.start + r.mission/2,
		staleBy: r.mission, // far past every retention window
	})
	if o.OpEvents != 1 || o.OpDetected != 1 || o.OpEscapes != 0 {
		t.Fatalf("extreme staleness not detected: %+v", o)
	}
	if o.OpDowntime <= 0 || o.Downtime != o.OpDowntime {
		t.Errorf("detected wrong recovery charged no redo downtime: %+v", o)
	}
	if o.Penalty <= 0 {
		t.Error("detected wrong recovery charged no penalty")
	}
	if o.OpLossTime != 0 {
		t.Errorf("detected (redone) restore charged permanent loss %v", o.OpLossTime)
	}
}
