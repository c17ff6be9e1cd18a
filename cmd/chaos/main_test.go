package main

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"stordep/internal/casestudy"
	"stordep/internal/chaos"
	"stordep/internal/core"
	"stordep/internal/cost"
	"stordep/internal/device"
	"stordep/internal/failure"
	"stordep/internal/protect"
	"stordep/internal/units"
	"stordep/internal/workload"
)

func TestRunCampaign(t *testing.T) {
	var buf strings.Builder
	if err := run(&buf, 1, 10, "", "", 0, false, false); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"chaos campaign: seed 1, 10 runs", "violations:        0", "case digest:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunDeterministicOutput(t *testing.T) {
	var a, b strings.Builder
	if err := run(&a, 4, 6, "", "", 1, false, false); err != nil {
		t.Fatal(err)
	}
	if err := run(&b, 4, 6, "", "", 8, false, false); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("same seed, different output:\n%s\n---\n%s", a.String(), b.String())
	}
}

func TestRunRejectsBadRuns(t *testing.T) {
	var buf strings.Builder
	if err := run(&buf, 1, 0, "", "", 0, false, false); err == nil {
		t.Error("zero runs accepted")
	}
	if err := run(&buf, 1, -5, "", "", 0, false, false); err == nil {
		t.Error("negative runs accepted")
	}
}

func TestRunRejectsNegativeWorkers(t *testing.T) {
	var buf strings.Builder
	err := run(&buf, 1, 10, "", "", -2, false, false)
	if err == nil || !strings.Contains(err.Error(), "-workers") {
		t.Errorf("negative workers: err = %v", err)
	}
}

func TestReplayCleanRepro(t *testing.T) {
	// A hand-written repro around the case-study baseline replays with no
	// violations and reports that.
	cs := &chaos.Case{
		Design:   casestudy.Baseline(),
		Scenario: failure.Scenario{Scope: failure.ScopeArray},
		Horizon:  40 * units.Week,
	}
	path := filepath.Join(t.TempDir(), "repro.json")
	meta := chaos.ReproMeta{Invariant: "loss-bound", Detail: "synthetic", Seed: 9, Run: 2}
	if err := chaos.SaveRepro(path, cs, meta); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := run(&buf, 0, 0, "", path, 0, false, false); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "replaying") || !strings.Contains(out, "no violations reproduced") {
		t.Errorf("replay output:\n%s", out)
	}
}

func TestRunMultiCampaign(t *testing.T) {
	var buf strings.Builder
	if err := run(&buf, 1, 8, "", "", 0, true, false); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"chaos campaign: seed 1, 8 runs", "violations:        0", "multi-dep-order=", "multi-critical-path="} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunMultiDeterministicOutput(t *testing.T) {
	var a, b strings.Builder
	if err := run(&a, 4, 6, "", "", 1, true, false); err != nil {
		t.Fatal(err)
	}
	if err := run(&b, 4, 6, "", "", 8, true, false); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("same multi seed, different output:\n%s\n---\n%s", a.String(), b.String())
	}
}

func TestReplayMultiRepro(t *testing.T) {
	// A hand-written multi repro (two objects over the case-study fleet,
	// orders depending on catalog) decodes as a multi case by its
	// "multiDesign" key and replays through the multi battery with no
	// violations.
	base := casestudy.Baseline()
	small := &workload.Workload{
		Name:          "catalog",
		DataCap:       50 * units.GB,
		AvgAccessRate: 200 * units.KBPerSec,
		AvgUpdateRate: 100 * units.KBPerSec,
		BurstMult:     4,
		BatchCurve: []workload.BatchPoint{
			{Window: time.Minute, Rate: 90 * units.KBPerSec},
			{Window: 12 * time.Hour, Rate: 40 * units.KBPerSec},
		},
	}
	mcs := &chaos.MultiCase{
		Design: &core.MultiDesign{
			Name:         "replay-service",
			Requirements: cost.CaseStudyRequirements(),
			Devices:      base.Devices,
			Facility:     base.Facility,
			Objects: []core.ObjectSpec{
				{
					Name:     "catalog",
					Workload: small,
					Primary:  &protect.Primary{Array: device.NameDiskArray},
					Levels: []protect.Technique{
						&protect.Backup{InstanceName: "catalog-backup", SourceArray: device.NameDiskArray,
							Target: device.NameTapeLibrary, Pol: casestudy.BackupPolicy()},
					},
				},
				{
					Name:      "orders",
					Workload:  workload.Cello(),
					Primary:   &protect.Primary{Array: device.NameDiskArray},
					DependsOn: []string{"catalog"},
					Levels: []protect.Technique{
						&protect.SplitMirror{InstanceName: "orders-mirror", Array: device.NameDiskArray,
							Pol: casestudy.SplitMirrorPolicy()},
						&protect.Backup{InstanceName: "orders-backup", SourceArray: device.NameDiskArray,
							Target: device.NameTapeLibrary, Pol: casestudy.BackupPolicy()},
					},
				},
			},
		},
		Scenario: failure.Scenario{Scope: failure.ScopeArray},
		Horizon:  40 * units.Week,
	}
	path := filepath.Join(t.TempDir(), "multi-repro.json")
	if err := chaos.SaveRepro(path, mcs, chaos.ReproMeta{Invariant: "multi-dep-order", Seed: 9}); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := run(&buf, 0, 0, "", path, 0, false, false); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "replaying") || !strings.Contains(out, "(multi,") ||
		!strings.Contains(out, "no violations reproduced") {
		t.Errorf("multi replay output:\n%s", out)
	}
}

func TestReplayMissingFile(t *testing.T) {
	var buf strings.Builder
	if err := run(&buf, 0, 0, "", filepath.Join(t.TempDir(), "nope.json"), 0, false, false); err == nil {
		t.Error("missing replay file accepted")
	}
}
