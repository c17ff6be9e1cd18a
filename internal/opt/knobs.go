package opt

import (
	"fmt"
	"time"

	"stordep/internal/core"
	"stordep/internal/hierarchy"
	"stordep/internal/protect"
	"stordep/internal/units"
)

// This file provides knob constructors for the built-in techniques, so
// common tunings don't require hand-written Apply functions.

// findLevel locates a level by technique name.
func findLevel(d *core.Design, name string) (int, error) {
	for i, tech := range d.Levels {
		if tech.Name() == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("opt: design has no level %q", name)
}

// levelPolicy returns the policy of level i for rewriting in place, so a
// knob changes it while preserving the technique's other configuration.
func levelPolicy(d *core.Design, i int) (*hierarchy.Policy, error) {
	switch t := d.Levels[i].(type) {
	case *protect.SplitMirror:
		return &t.Pol, nil
	case *protect.Snapshot:
		return &t.Pol, nil
	case *protect.Backup:
		return &t.Pol, nil
	case *protect.Vaulting:
		return &t.Pol, nil
	case *protect.Mirror:
		return &t.Pol, nil
	case *protect.ErasureCode:
		return &t.Pol, nil
	}
	return nil, fmt.Errorf("opt: level %q has unsupported type %T", d.Levels[i].Name(), d.Levels[i])
}

// namedPolicy finds the named level and returns its policy for
// rewriting in place.
func namedPolicy(d *core.Design, level string) (*hierarchy.Policy, error) {
	i, err := findLevel(d, level)
	if err != nil {
		return nil, err
	}
	return levelPolicy(d, i)
}

// setPolicy rewrites the policy of the named level, preserving the
// technique's other configuration.
func setPolicy(d *core.Design, level string, pol hierarchy.Policy) error {
	p, err := namedPolicy(d, level)
	if err != nil {
		return err
	}
	*p = pol
	return nil
}

// PolicyKnob selects among complete policies for one level. Option names
// are supplied alongside the policies.
func PolicyKnob(level string, names []string, policies []hierarchy.Policy) Knob {
	return Knob{
		Name:    level + " policy",
		Options: names,
		Apply: func(d *core.Design, i int) error {
			if i < 0 || i >= len(policies) {
				return fmt.Errorf("opt: policy option %d out of range", i)
			}
			// A clone, so the design never shares the option's
			// secondary window set with the table or another design.
			return setPolicy(d, level, policies[i].Clone())
		},
		// Overwrites the level's whole policy from the option table —
		// nothing read from the design survives into the result.
		Revertible: true,
	}
}

// AccWKnob sweeps one level's primary accumulation window, scaling the
// retention count to keep the retention window covered (retCnt =
// ceil(retW / cyclePer), at least 1). The propagation window is clamped
// to the new accW to preserve the propW <= accW convention; the hold
// window is left as it is.
//
// Not Revertible: the propW clamp reads the design's current propagation
// window, which a previous application may itself have clamped and
// nothing restores — re-applying on a reused design can diverge from a
// fresh clone, so the exhaustive enumerator clones per candidate when
// this knob is in the set.
func AccWKnob(level string, options []time.Duration) Knob {
	names := make([]string, len(options))
	for i, o := range options {
		names[i] = units.FormatDuration(o)
	}
	return Knob{
		Name:    level + " accW",
		Options: names,
		Apply: func(d *core.Design, i int) error {
			pol, err := namedPolicy(d, level)
			if err != nil {
				return err
			}
			pol.Primary.AccW = options[i]
			if pol.Primary.PropW > options[i] {
				pol.Primary.PropW = options[i]
			}
			if pol.RetW > 0 {
				cycle := pol.CyclePeriod()
				if cycle > 0 {
					ret := int((pol.RetW + cycle - 1) / cycle)
					if ret < 1 {
						ret = 1
					}
					pol.RetCnt = ret
				}
			}
			return nil
		},
	}
}

// RetCntKnob sweeps one level's retention count, scaling retW to match
// (retW = retCnt x cyclePer).
func RetCntKnob(level string, options []int) Knob {
	names := make([]string, len(options))
	for i, o := range options {
		names[i] = fmt.Sprintf("%d", o)
	}
	return Knob{
		Name:    level + " retCnt",
		Options: names,
		Apply: func(d *core.Design, i int) error {
			pol, err := namedPolicy(d, level)
			if err != nil {
				return err
			}
			pol.RetCnt = options[i]
			pol.RetW = time.Duration(options[i]) * pol.CyclePeriod()
			return nil
		},
		// Overwrites retCnt and retW unconditionally; the cycle period it
		// reads is derived from the primary windows, which only knobs
		// applied earlier in the same vector may set.
		Revertible: true,
	}
}

// PiTKnob chooses between split mirrors and virtual snapshots for the
// named level (the Table 7 "snapshot" substitution), keeping the policy.
//
// Not Revertible: the knob locates its level by the technique's current
// name, and (unless an InstanceName pins the name) its own swap renames
// the level — re-applying on a reused design would no longer find it, so
// the exhaustive enumerator clones per candidate when this knob is in
// the set.
func PiTKnob(level string) Knob {
	return Knob{
		Name:    level + " PiT technique",
		Options: []string{"split-mirror", "virtual-snapshot"},
		Apply: func(d *core.Design, i int) error {
			li, err := findLevel(d, level)
			if err != nil {
				return err
			}
			pol := d.Levels[li].Level().Policy
			var array, instance string
			switch t := d.Levels[li].(type) {
			case *protect.SplitMirror:
				array, instance = t.Array, t.InstanceName
			case *protect.Snapshot:
				array, instance = t.Array, t.InstanceName
			default:
				return fmt.Errorf("opt: level %q is not a PiT technique (%T)", level, d.Levels[li])
			}
			if i == 0 {
				d.Levels[li] = &protect.SplitMirror{InstanceName: instance, Array: array, Pol: pol}
			} else {
				d.Levels[li] = &protect.Snapshot{InstanceName: instance, Array: array, Pol: pol}
			}
			return nil
		},
	}
}

// LinkCountKnob sweeps the provisioned WAN link count by rewriting the
// named interconnect device's bandwidth slots.
func LinkCountKnob(deviceName string, options []int) Knob {
	names := make([]string, len(options))
	for i, o := range options {
		names[i] = fmt.Sprintf("%d links", o)
	}
	return Knob{
		Name:    deviceName + " count",
		Options: names,
		Apply: func(d *core.Design, i int) error {
			for di := range d.Devices {
				if d.Devices[di].Spec.Name == deviceName {
					d.Devices[di].Spec.MaxBWSlots = options[i]
					return nil
				}
			}
			return fmt.Errorf("opt: design has no device %q", deviceName)
		},
		// Overwrites the slot count from the option table.
		Revertible: true,
	}
}
