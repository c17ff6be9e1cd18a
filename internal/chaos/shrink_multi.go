package chaos

import (
	"time"

	"stordep/internal/core"
	"stordep/internal/failure"
)

// A multi-object case shrinks along the dimensions that only exist in a
// service as well: whole objects, dependency edges, correlated events
// and operator faults. Mutation order again drops coarse structure
// first — objects, edges, events, faults, outages, levels — before
// fine-grained simplifications.

// viable reports whether a mutated multi case is still well-formed: the
// design validates and builds, the horizon leaves a sampling window past
// every object's warm-up, outage and correlated-event window, every
// correlated event still affects at least one object, and every operator
// fault still targets a real object and level.
func (mcs *MultiCase) viable() bool {
	if mcs.Design.Validate() != nil {
		return false
	}
	if len(mcs.Events) > 0 {
		if _, err := deriveEvents(mcs.Design, mcs.Events); err != nil {
			return false
		}
	}
	if !opFaultsViable(mcs) {
		return false
	}
	ms, err := core.BuildMulti(mcs.Design)
	if err != nil {
		return false
	}
	// Correlated events and operator faults apply fleet-wide, so their
	// window ends raise every object's floor.
	var evEnd time.Duration
	for _, e := range mcs.Events {
		evEnd = max(evEnd, e.To)
	}
	for _, f := range mcs.OpFaults {
		evEnd = max(evEnd, f.To, f.At+time.Minute)
	}
	for _, obj := range mcs.Design.Objects {
		floor, err := chainHorizonFloor(ms.Object(obj.Name).Chain(), mcs.outagesFor(obj.Name), evEnd)
		if err != nil || mcs.Horizon <= floor {
			return false
		}
	}
	return true
}

// opFaultsViable checks every operator fault against the (possibly
// mutated) design: the target object exists, silent non-writes name a
// surviving level, and misdirected restores land on a surviving object.
func opFaultsViable(mcs *MultiCase) bool {
	levels := make(map[string]int, len(mcs.Design.Objects))
	for _, obj := range mcs.Design.Objects {
		levels[obj.Name] = len(obj.Levels)
	}
	for _, f := range mcs.OpFaults {
		n, ok := levels[f.Object]
		if !ok || n == 0 {
			return false
		}
		switch f.Kind {
		case failure.OpSilentNonWrite:
			if f.Level > n {
				return false
			}
		case failure.OpMisdirectedRestore:
			if _, ok := levels[f.WrongObject]; !ok {
				return false
			}
		}
	}
	return true
}

// mutations builds the ordered candidate simplifications of a multi
// case.
func (mcs *MultiCase) mutations() []Trial {
	var out []Trial
	// Drop each object in turn: its outages go with it and every edge
	// pointing at it is removed from the survivors.
	if len(mcs.Design.Objects) > 1 {
		for i := range mcs.Design.Objects {
			c, err := copyTrial(mcs)
			if err != nil {
				continue
			}
			dropObject(c, c.Design.Objects[i].Name, i)
			out = append(out, c)
		}
	}
	// Drop each dependency edge in turn.
	for i, obj := range mcs.Design.Objects {
		for k := range obj.DependsOn {
			c, err := copyTrial(mcs)
			if err != nil {
				continue
			}
			deps := c.Design.Objects[i].DependsOn
			c.Design.Objects[i].DependsOn = append(deps[:k:k], deps[k+1:]...)
			out = append(out, c)
		}
	}
	// Drop each correlated event in turn.
	for i := range mcs.Events {
		if c, err := copyTrial(mcs); err == nil {
			c.Events = append(c.Events[:i:i], c.Events[i+1:]...)
			out = append(out, c)
		}
	}
	// Drop each operator fault in turn.
	for i := range mcs.OpFaults {
		if c, err := copyTrial(mcs); err == nil {
			c.OpFaults = append(c.OpFaults[:i:i], c.OpFaults[i+1:]...)
			out = append(out, c)
		}
	}
	// Drop each outage in turn.
	for i := range mcs.Outages {
		if c, err := copyTrial(mcs); err == nil {
			c.Outages = append(c.Outages[:i:i], c.Outages[i+1:]...)
			out = append(out, c)
		}
	}
	// Truncate each object's hierarchy from the end.
	for i, obj := range mcs.Design.Objects {
		if len(obj.Levels) <= 1 {
			continue
		}
		c, err := copyTrial(mcs)
		if err != nil {
			continue
		}
		o := &c.Design.Objects[i]
		o.Levels = o.Levels[:len(o.Levels)-1]
		kept := c.Outages[:0:0]
		for _, ou := range c.Outages {
			if ou.Object != o.Name || ou.Level <= len(o.Levels) {
				kept = append(kept, ou)
			}
		}
		c.Outages = kept
		faults := c.OpFaults[:0:0]
		for _, f := range c.OpFaults {
			if f.Kind == failure.OpSilentNonWrite && f.Object == o.Name && f.Level > len(o.Levels) {
				continue
			}
			faults = append(faults, f)
		}
		c.OpFaults = faults
		c.Design.Devices = usedDevices(c.Design.Devices, c.Design.Objects...)
		out = append(out, c)
	}
	// Shorten the horizon.
	if c, err := copyTrial(mcs); err == nil {
		c.Horizon = Quantize(c.Horizon * 3 / 4)
		out = append(out, c)
	}
	// Drop the recovery facility.
	if mcs.Design.Facility != nil {
		if c, err := copyTrial(mcs); err == nil {
			c.Design.Facility = nil
			out = append(out, c)
		}
	}
	// Fine-grained policy simplifications, per object and level.
	for i, obj := range mcs.Design.Objects {
		for j := range obj.Levels {
			if pol := levelPolicy(obj.Levels[j]); pol != nil && pol.Secondary != nil {
				if c, err := copyTrial(mcs); err == nil {
					pol := levelPolicy(c.Design.Objects[i].Levels[j])
					pol.Secondary = nil
					pol.CycleCnt = 0
					out = append(out, c)
				}
			}
			if pol := levelPolicy(obj.Levels[j]); pol != nil && pol.Primary.HoldW != 0 {
				if c, err := copyTrial(mcs); err == nil {
					pol := levelPolicy(c.Design.Objects[i].Levels[j])
					pol.Primary.HoldW = 0
					if pol.Secondary != nil {
						pol.Secondary.HoldW = 0
					}
					out = append(out, c)
				}
			}
		}
	}
	return out
}

// dropObject removes object i (named name) from the case: the object
// itself, every dependency edge pointing at it, its outages, and any
// devices no surviving object references.
func dropObject(c *MultiCase, name string, i int) {
	objs := c.Design.Objects
	c.Design.Objects = append(objs[:i:i], objs[i+1:]...)
	for j := range c.Design.Objects {
		kept := c.Design.Objects[j].DependsOn[:0:0]
		for _, dep := range c.Design.Objects[j].DependsOn {
			if dep != name {
				kept = append(kept, dep)
			}
		}
		c.Design.Objects[j].DependsOn = kept
	}
	outs := c.Outages[:0:0]
	for _, o := range c.Outages {
		if o.Object != name {
			outs = append(outs, o)
		}
	}
	c.Outages = outs
	faults := c.OpFaults[:0:0]
	for _, f := range c.OpFaults {
		if f.Object == name || f.WrongObject == name {
			continue
		}
		faults = append(faults, f)
	}
	c.OpFaults = faults
	c.Design.Devices = usedDevices(c.Design.Devices, c.Design.Objects...)
}
