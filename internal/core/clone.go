package core

import (
	"errors"
	"fmt"

	"stordep/internal/protect"
	"stordep/internal/workload"
)

// ErrNotCloneable is returned by Clone for techniques that do not
// implement protect.Cloner (all built-ins do).
var ErrNotCloneable = errors.New("core: technique does not support structural cloning")

// Clone returns a structural deep copy of the design: mutating the
// clone's workload curve, devices, technique policies or facility leaves
// the original untouched. It is the optimizer's per-candidate copy path;
// a hand-written field copy here costs about a microsecond where the
// former config-JSON round trip cost about a hundred (see
// BenchmarkCloneStructural / BenchmarkCloneJSON), which matters because
// the automated-design loop clones once per candidate evaluated.
//
// A property test (internal/chaos) checks the structural copy agrees
// with the config round trip on randomized valid designs.
func (d *Design) Clone() (*Design, error) {
	out := new(Design)
	if err := d.CloneInto(out); err != nil {
		return nil, err
	}
	return out, nil
}

// CloneInto makes dst the structural deep copy of d that Clone returns,
// reusing what dst holds from an earlier copy: its device and level
// slices, its workload and batch curve, its primary and its facility.
// Each technique is still cloned afresh, so whatever is later written
// into dst's levels never reaches d. dst's storage must belong to dst
// alone, as storage an earlier Clone or CloneInto made does (a knob that
// installs a shared pointer breaks this; opt.Knob forbids it). On error
// dst must not be used until a later CloneInto succeeds.
func (d *Design) CloneInto(dst *Design) error {
	own := *dst
	*dst = *d
	if d.Workload != nil {
		if own.Workload == nil {
			own.Workload = new(workload.Workload)
		}
		d.Workload.CloneInto(own.Workload)
		dst.Workload = own.Workload
	}
	if d.Devices != nil {
		// PlacedDevice is all-value (spec, cost model, spare, placements).
		dst.Devices = reuse(own.Devices, len(d.Devices))
		copy(dst.Devices, d.Devices)
	}
	if d.Primary != nil {
		if own.Primary == nil {
			own.Primary = new(protect.Primary)
		}
		*own.Primary = *d.Primary
		dst.Primary = own.Primary
	}
	if d.Levels != nil {
		dst.Levels = reuse(own.Levels, len(d.Levels))
		for i, tech := range d.Levels {
			c, ok := tech.(protect.Cloner)
			if !ok {
				return fmt.Errorf("%w: level %d (%T)", ErrNotCloneable, i+1, tech)
			}
			dst.Levels[i] = c.CloneTechnique()
		}
	}
	if d.Facility != nil {
		if own.Facility == nil {
			own.Facility = new(Facility)
		}
		*own.Facility = *d.Facility
		dst.Facility = own.Facility
	}
	return nil
}

// Reset empties d for a later CloneInto: it keeps the storage CloneInto
// reuses and drops every reference to techniques and names, so pooled
// storage keeps no design alive. d is not a valid design afterwards.
func (d *Design) Reset() {
	clear(d.Devices[:cap(d.Devices)])
	clear(d.Levels[:cap(d.Levels)])
	*d = Design{Devices: d.Devices[:0], Levels: d.Levels[:0], Workload: d.Workload, Primary: d.Primary, Facility: d.Facility}
	if w := d.Workload; w != nil {
		*w = workload.Workload{BatchCurve: w.BatchCurve[:0]}
	}
	if d.Primary != nil {
		*d.Primary = protect.Primary{}
	}
	if d.Facility != nil {
		*d.Facility = Facility{}
	}
}

// reuse returns buf resliced to n elements, or a new slice of n when buf
// is nil or its capacity is short, so a copy of a non-nil slice is never
// nil. Its elements keep whatever they held.
func reuse[T any](buf []T, n int) []T {
	if buf == nil || cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
