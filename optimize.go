package stordep

import (
	"stordep/internal/opt"
)

// Automated design optimization (the paper's §1 "inner-most loop of an
// automated optimization loop", following Keeton et al., FAST 2004).
type (
	// Knob is one tunable aspect of a design.
	Knob = opt.Knob
	// OptObjective scores a candidate; lower is better.
	OptObjective = opt.Objective
	// Solution is a tuning result: the tuned design, its score and the
	// chosen option per knob.
	Solution = opt.Solution
)

// Tune runs coordinate descent over the knobs from the base design,
// minimizing the objective across the scenarios.
func Tune(base *Design, knobs []Knob, scenarios []Scenario, objective OptObjective) (*Solution, error) {
	return opt.Tune(base, knobs, scenarios, objective)
}

// TuneExhaustive enumerates every knob combination and returns the
// global optimum; use when knobs interact and coordinate descent might
// stall. Enumeration is streaming (O(workers) memory), so the space size
// is limited only by time; opt.ExhaustiveOpts adds budgets and sharding.
func TuneExhaustive(base *Design, knobs []Knob, scenarios []Scenario, objective OptObjective) (*Solution, error) {
	return opt.Exhaustive(base, knobs, scenarios, objective)
}

// CloneDesign deep-copies a design with a structural copy
// (core.Design.Clone), so it can be mutated without touching the
// original.
func CloneDesign(d *Design) (*Design, error) { return opt.Clone(d) }

// WorstTotalObjective minimizes the worst-scenario total cost.
func WorstTotalObjective() OptObjective { return opt.WorstTotalObjective() }

// ExpectedObjective minimizes frequency-weighted expected annual cost.
func ExpectedObjective(freqs Frequencies) OptObjective { return opt.ExpectedObjective(freqs) }

// ConstrainedOutlayObjective minimizes outlays among designs meeting the
// RTO/RPO objectives under every scenario.
func ConstrainedOutlayObjective(obj Objectives) OptObjective {
	return opt.ConstrainedOutlayObjective(obj)
}

// Standard knob constructors.
var (
	// PolicyKnob selects among complete policies for one level.
	PolicyKnob = opt.PolicyKnob
	// AccWKnob sweeps a level's accumulation window, keeping retention
	// covered.
	AccWKnob = opt.AccWKnob
	// RetCntKnob sweeps a level's retention count, scaling its window.
	RetCntKnob = opt.RetCntKnob
	// PiTKnob swaps split mirrors for virtual snapshots and back.
	PiTKnob = opt.PiTKnob
	// LinkCountKnob sweeps an interconnect's provisioned link count.
	LinkCountKnob = opt.LinkCountKnob
)
