package stordep_test

import (
	"stordep"
	"stordep/internal/casestudy"
	"stordep/internal/failure"
	"stordep/internal/hierarchy"
	"stordep/internal/opt"
)

// optimizerKnobs exposes the Table 7 moves for root-level benchmarks.
func optimizerKnobs() []opt.Knob {
	return []opt.Knob{
		opt.PolicyKnob("vaulting",
			[]string{"4-weekly", "weekly"},
			[]hierarchy.Policy{casestudy.VaultPolicy(), casestudy.WeeklyVaultPolicy()}),
		opt.PolicyKnob("backup",
			[]string{"weekly full", "F+I", "daily full"},
			[]hierarchy.Policy{casestudy.BackupPolicy(), casestudy.FIBackupPolicy(), casestudy.DailyFBackupPolicy()}),
		opt.PiTKnob("split-mirror"),
	}
}

func tuneBaseline(knobs []opt.Knob, scenarios []failure.Scenario) (*stordep.Solution, error) {
	return stordep.Tune(casestudy.Baseline(), knobs, scenarios, stordep.WorstTotalObjective())
}
