package chaos

import (
	"time"

	"stordep/internal/core"
	"stordep/internal/hierarchy"
	"stordep/internal/protect"
	"stordep/internal/sim"
)

// The shrinker reduces a violating case to a minimal counterexample by
// greedy mutation: a candidate simplification is kept only if the case
// is still viable (the design validates and builds) AND the same
// invariant still fails. Each kind orders its mutations to drop whole
// dimensions first (objects, edges, events, outages, hierarchy levels)
// before fine-grained simplifications (horizon, facility, secondary
// windows, hold windows).

// shrinkInvariant returns the smallest case it can find (within maxSteps
// battery evaluations) that still violates the named invariant. The
// original case is returned unchanged if nothing smaller reproduces it.
func shrinkInvariant(t Trial, invariant string, maxSteps int) Trial {
	return shrinkWith(t, maxSteps, func(c Trial) bool {
		res, err := c.check()
		if err != nil {
			return false
		}
		for _, v := range res.violations {
			if v.Invariant == invariant {
				return true
			}
		}
		return false
	})
}

// shrinkWith runs the greedy reduction against an arbitrary
// still-failing predicate. Each kind's mutations are of that kind, so
// the predicate may take the concrete *Case or *MultiCase.
func shrinkWith[T Trial](t T, maxSteps int, fails func(T) bool) T {
	best := t
	steps := 0
	for steps < maxSteps {
		improved := false
		for _, m := range best.mutations() {
			if steps >= maxSteps {
				break
			}
			if !m.viable() {
				continue
			}
			steps++
			if cand := m.(T); fails(cand) {
				best = cand
				improved = true
				break
			}
		}
		if !improved {
			break
		}
	}
	return best
}

// viable reports whether a mutated case is still well-formed: the design
// validates and builds, and the horizon leaves a sampling window past
// warm-up and every outage.
func (cs *Case) viable() bool {
	if cs.Design.Validate() != nil {
		return false
	}
	sys, err := core.Build(cs.Design)
	if err != nil {
		return false
	}
	floor, err := chainHorizonFloor(sys.Chain(), cs.Outages, 0)
	return err == nil && cs.Horizon > floor
}

// chainHorizonFloor is the smallest horizon one chain's simulation may
// shrink to while keeping the sampling window meaningful: past warm-up,
// every outage and the end of any fleet-wide event window (evEnd), with
// two cycles of slack.
func chainHorizonFloor(chain hierarchy.Chain, outs []sim.Outage, evEnd time.Duration) (time.Duration, error) {
	sm, err := sim.New(chain)
	if err != nil {
		return 0, err
	}
	floor := max(sm.WarmUp(), evEnd)
	for _, o := range outs {
		floor = max(floor, o.To)
	}
	return floor + 2*MaxCycle(chain), nil
}

// mutations builds the ordered candidate simplifications of a case.
func (cs *Case) mutations() []Trial {
	var out []Trial
	// Drop each outage in turn.
	for i := range cs.Outages {
		if c, err := copyTrial(cs); err == nil {
			c.Outages = append(c.Outages[:i], c.Outages[i+1:]...)
			out = append(out, c)
		}
	}
	// Truncate the hierarchy from the end (dependencies point backward).
	if len(cs.Design.Levels) > 1 {
		if c, err := copyTrial(cs); err == nil {
			c.Design.Levels = c.Design.Levels[:len(c.Design.Levels)-1]
			kept := c.Outages[:0]
			for _, o := range c.Outages {
				if o.Level <= len(c.Design.Levels) {
					kept = append(kept, o)
				}
			}
			c.Outages = kept
			c.Design.Devices = usedDevices(c.Design.Devices,
				core.ObjectSpec{Primary: c.Design.Primary, Levels: c.Design.Levels})
			out = append(out, c)
		}
	}
	// Shorten the horizon.
	if c, err := copyTrial(cs); err == nil {
		c.Horizon = Quantize(c.Horizon * 3 / 4)
		out = append(out, c)
	}
	// Drop the recovery facility.
	if cs.Design.Facility != nil {
		if c, err := copyTrial(cs); err == nil {
			c.Design.Facility = nil
			out = append(out, c)
		}
	}
	// Drop secondary (incremental) windows per level.
	for i := range cs.Design.Levels {
		if pol := levelPolicy(cs.Design.Levels[i]); pol == nil || pol.Secondary == nil {
			continue
		}
		if c, err := copyTrial(cs); err == nil {
			pol := levelPolicy(c.Design.Levels[i])
			pol.Secondary = nil
			pol.CycleCnt = 0
			out = append(out, c)
		}
	}
	// Zero hold windows per level.
	for i := range cs.Design.Levels {
		if pol := levelPolicy(cs.Design.Levels[i]); pol == nil || pol.Primary.HoldW == 0 {
			continue
		}
		if c, err := copyTrial(cs); err == nil {
			pol := levelPolicy(c.Design.Levels[i])
			pol.Primary.HoldW = 0
			if pol.Secondary != nil {
				pol.Secondary.HoldW = 0
			}
			out = append(out, c)
		}
	}
	return out
}

// levelPolicy exposes a technique's RP policy for mutation.
func levelPolicy(t protect.Technique) *hierarchy.Policy {
	switch v := t.(type) {
	case *protect.SplitMirror:
		return &v.Pol
	case *protect.Snapshot:
		return &v.Pol
	case *protect.Mirror:
		return &v.Pol
	case *protect.Backup:
		return &v.Pol
	case *protect.Vaulting:
		return &v.Pol
	case *protect.ErasureCode:
		return &v.Pol
	}
	return nil
}

// usedDevices returns the devices, in fleet order, that some object's
// primary array or protection level uses. A level uses every device
// core.LevelDeviceNames lists (each fragment site of a multi-sited level
// and its transport) plus the device it restores from.
func usedDevices(devices []core.PlacedDevice, objects ...core.ObjectSpec) []core.PlacedDevice {
	used := make(map[string]bool)
	for _, obj := range objects {
		used[obj.Primary.Array] = true
		for _, t := range obj.Levels {
			used[t.ReadDevice()] = true
			for _, name := range core.LevelDeviceNames(nil, t) {
				used[name] = true
			}
		}
	}
	kept := devices[:0:0]
	for _, pd := range devices {
		if used[pd.Spec.Name] {
			kept = append(kept, pd)
		}
	}
	return kept
}
