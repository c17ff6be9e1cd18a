package core

import (
	"fmt"
	"reflect"
	"slices"
	"time"
	"unsafe"

	"stordep/internal/device"
	"stordep/internal/failure"
	"stordep/internal/protect"
	"stordep/internal/units"
	"stordep/internal/workload"
)

// This file is the one extraction behind every fast assessment path
// (internal/opt's compiled search and DeltaAssessor). A design is cut
// into per-level fragments: the batch-kernel columns plus the device
// demands each level registers. A candidate row is folded back from one
// fragment per level and one spec per device, in exactly Build's demand
// registration and outlay order, so every float sum is bit-identical to
// a built System's. Diff reports which fragments and specs a variant of
// the kernel's base design changed, and Probe checks a fast-path row
// against the reference path, Build plus AssessBrief.

// IndexedDemand is one captured device demand with its device resolved
// to the design index.
type IndexedDemand struct {
	Dev int32
	device.Demand
}

// Fragment is everything one hierarchy level contributes to a candidate
// row: the batch-kernel columns plus the level's device demands in
// registration order.
type Fragment struct {
	Lag, AccW, RetSpan time.Duration
	Restore            units.ByteSize
	// Copy, Read and Transport are the device indices of the technique's
	// copy, read and transport devices; Transport is -1 when it names none.
	Copy, Read, Transport int32
	Name                  string
	Demands               []IndexedDemand
}

// Touch lists the hierarchy levels and device specs in which a design
// differs from a kernel's base design, each in ascending order.
type Touch struct {
	Levels  []int
	Devices []int
}

// Assembler is one worker's machinery for building candidate rows
// against a kernel's base design: a clean capture fleet for fragment
// extraction, reused through ResetDemands, plus the fold's per-device
// scratch. Obtain one with BatchKernel.NewAssembler; it must not be
// shared between concurrent calls.
type Assembler struct {
	k     *BatchKernel
	fleet protect.DeviceMap

	totBW    []units.Rate
	totCap   []units.ByteSize
	rowTech  []string // nDevices x maxRows outlay-row techniques
	rowBase  []units.Money
	rowCount []int

	// Row's resolution of a variant: its touch set, the fragment and spec
	// in force per level and device, and re-extracted touched levels.
	touch Touch
	frags []*Fragment
	specs []*device.Spec
	repl  []Fragment
}

// NewAssembler allocates one worker's row-building state.
func (k *BatchKernel) NewAssembler() *Assembler {
	nD := k.nDevices
	a := &Assembler{
		k: k,
		// The capture fleet, demand-free, with room in one array for the
		// one demand per device a technique registers (see Build), so no
		// capture grows a device's list.
		fleet:    newDevices(new(device.Fleet), k.sys.design.Devices, 1),
		totBW:    make([]units.Rate, nD),
		totCap:   make([]units.ByteSize, nD),
		rowTech:  make([]string, nD*k.maxRows()),
		rowBase:  make([]units.Money, nD*k.maxRows()),
		rowCount: make([]int, nD),
		frags:    make([]*Fragment, k.nLevels),
		specs:    make([]*device.Spec, nD),
		repl:     make([]Fragment, k.nLevels),
	}
	return a
}

// Fragment extracts the level fragment of technique tech, applying the
// validation Build would: an error means a design carrying this level
// state is not representable and must take the reference path. Demands
// are policy/workload arithmetic only — no technique reads its devices'
// specs or prior demands — so a capture on the clean base-spec fleet
// yields exactly the records Build's shared fleet receives from tech, in
// the same order. Once the level's n records are captured, and before
// any is copied, room(n) returns the buffer they are appended to, which
// should have free capacity for n (a short one regrows as append
// grows it); the fragment adopts its backing array. A nil room means a
// new array of exactly n.
func (a *Assembler) Fragment(tech protect.Technique, room func(n int) []IndexedDemand) (Fragment, error) {
	k := a.k
	f := Fragment{Transport: -1}
	if err := tech.Validate(); err != nil {
		return f, err
	}
	lv := tech.Level()
	if lv.Name == "" {
		return f, fmt.Errorf("core: level has no name")
	}
	if err := lv.Policy.Validate(); err != nil {
		return f, err
	}
	f.Lag = lv.Policy.TransferLag()
	f.AccW = lv.Policy.EffectiveAccW()
	f.RetSpan = lv.Policy.RetentionSpan()
	f.Restore = tech.RestoreSize(k.sys.design.Workload)
	f.Name = lv.Name
	ci, ri := k.DeviceIndex(tech.CopyDevice()), k.DeviceIndex(tech.ReadDevice())
	if ci < 0 || ri < 0 {
		return f, fmt.Errorf("core: level %q references unknown device", lv.Name)
	}
	f.Copy, f.Read = int32(ci), int32(ri)
	if name := tech.TransportDevice(); name != "" {
		// A built system treats an unknown transport as none, but
		// Design.Validate rejects it, so the reference path must
		// reproduce that error.
		ti := k.DeviceIndex(name)
		if ti < 0 {
			return f, fmt.Errorf("core: level %q transport %q unknown", lv.Name, name)
		}
		f.Transport = int32(ti)
	}
	var err error
	f.Demands, err = a.capture(tech.ApplyDemands, room)
	return f, err
}

// capture runs apply on the clean capture fleet, counts the demands it
// registers, and appends them, in device order, to the buffer room
// returns for that count (see Fragment).
func (a *Assembler) capture(apply func(*workload.Workload, protect.DeviceMap) error, room func(n int) []IndexedDemand) ([]IndexedDemand, error) {
	for _, dev := range a.fleet {
		dev.ResetDemands()
	}
	if err := apply(a.k.sys.design.Workload, a.fleet); err != nil {
		return nil, err
	}
	n := 0
	for _, dev := range a.fleet {
		n += dev.NumDemands()
	}
	var buf []IndexedDemand
	if room != nil {
		buf = room(n)
	} else if n > 0 {
		buf = make([]IndexedDemand, 0, n)
	}
	for di, dev := range a.fleet {
		for i, n := 0, dev.NumDemands(); i < n; i++ {
			buf = append(buf, IndexedDemand{Dev: int32(di), Demand: dev.DemandAt(i)})
		}
	}
	return buf, nil
}

// Row fills row `row` of cols with a variant of the kernel's base
// design: Diff against the base, re-extract the touched levels, then
// Fold. It reports false, marking the row invalid, when the variant is
// outside what the kernel can carry or Build would reject it; the caller
// must then take the reference path, which also reproduces the exact
// error.
func (a *Assembler) Row(d *Design, cols *Cols, row int) bool {
	k := a.k
	cols.Valid[row] = false
	if !k.Diff(d, &a.touch) {
		return false
	}
	for j := range a.frags {
		a.frags[j] = &k.frags[j]
	}
	for i := range a.specs {
		a.specs[i] = k.BaseSpec(i)
	}
	for _, j := range a.touch.Levels {
		f, err := a.Fragment(d.Levels[j], func(int) []IndexedDemand { return a.repl[j].Demands[:0] })
		if err != nil {
			return false
		}
		a.repl[j] = f
		a.frags[j] = &a.repl[j]
	}
	for _, i := range a.touch.Devices {
		a.specs[i] = &d.Devices[i].Spec
	}
	return a.Fold(cols, row, a.frags, a.specs)
}

// Fold assembles row `row` of cols from one fragment per level and one
// spec per device. Duplicate level names are rejected, as Chain.Validate
// does. Demands fold primary first, then level by level: Build's
// per-device registration order, so the float sums are bit-identical.
// Every device is checked against its spec's limits, as device.Check
// does, and outlays fold per device and technique row as Build's cost
// collection does: device.Spec's FixedOutlay and DemandOutlay, the spare
// discount, and the facility retainer. Fold reports false, marking the
// row invalid, when Build would reject the candidate or a device
// collects more technique rows than the scratch holds (possible only for
// techniques attributing demands to foreign names). Allocation-free.
func (a *Assembler) Fold(cols *Cols, row int, frags []*Fragment, specs []*device.Spec) bool {
	k := a.k
	cols.Valid[row] = false
	for x := range frags {
		for y := x + 1; y < len(frags); y++ {
			if frags[x].Name == frags[y].Name {
				return false
			}
		}
	}
	for di := range a.totBW {
		a.totBW[di], a.totCap[di], a.rowCount[di] = 0, 0, 0
	}
	if !a.addDemands(k.primaryDemands, specs) {
		return false
	}
	for _, f := range frags {
		if !a.addDemands(f.Demands, specs) {
			return false
		}
	}

	dev := row * k.nDevices
	var total, covered units.Money
	for di, sp := range specs {
		maxBW := sp.MaxBandwidth()
		if c := a.totCap[di]; c > 0 {
			maxCap := sp.MaxCapacity()
			if maxCap <= 0 || float64(sp.RawCapacityFor(c)/maxCap) > 1 {
				return false
			}
		}
		if bw := a.totBW[di]; bw > 0 {
			if maxBW <= 0 || float64(bw/maxBW) > 1 {
				return false
			}
		}
		cols.DevMaxBW[dev+di] = maxBW
		avail := maxBW - a.totBW[di]
		if avail < 0 {
			avail = 0
		}
		cols.DevAvail[dev+di] = avail

		spare := sp.HasSpare()
		first := di * k.maxRows()
		for _, base := range a.rowBase[first : first+a.rowCount[di]] {
			item := base
			if spare {
				item = base + units.Money(sp.Spare.Discount)*base
			}
			total += item
			if k.covered[di] {
				covered += base
			}
		}
	}
	if covered > 0 {
		total += units.Money(k.retainer) * covered
	}
	cols.OutlaysTotal[row] = total

	lvl := row * k.nLevels
	for j, f := range frags {
		cols.LvlLag[lvl+j] = f.Lag
		cols.LvlAccW[lvl+j] = f.AccW
		cols.LvlRetSpan[lvl+j] = f.RetSpan
		cols.LvlRestore[lvl+j] = f.Restore
		cols.LvlCopy[lvl+j] = f.Copy
		cols.LvlRead[lvl+j] = f.Read
		cols.LvlTransport[lvl+j] = f.Transport
	}
	cols.Valid[row] = true
	cols.Err[row] = nil
	return true
}

// addDemands accumulates one technique's demand records into the
// bandwidth/capacity totals and the per-device outlay rows, replicating
// device.Device.EachOutlay: the first technique on a device carries the
// spec's FixedOutlay, and every demand adds its DemandOutlay.
func (a *Assembler) addDemands(recs []IndexedDemand, specs []*device.Spec) bool {
	maxRows := a.k.maxRows()
	for i := range recs {
		r := &recs[i]
		di := int(r.Dev)
		a.totBW[di] += r.Bandwidth
		a.totCap[di] += r.Capacity

		sp := specs[di]
		base := di * maxRows
		n := a.rowCount[di]
		ri := slices.Index(a.rowTech[base:base+n], r.Technique)
		if ri < 0 {
			if n == maxRows {
				return false
			}
			ri = n
			a.rowCount[di] = n + 1
			a.rowTech[base+ri] = r.Technique
			var first units.Money
			if ri == 0 {
				first = sp.FixedOutlay()
			}
			a.rowBase[base+ri] = first
		}
		a.rowBase[base+ri] += sp.DemandOutlay(r.Demand)
	}
	return true
}

// Diff compares d with the kernel's base design, listing the changed
// levels and device specs in t (whose slices it reuses). It reports
// false when the change is one the kernel cannot carry: a renamed
// design; a changed workload, requirement, primary or facility; a
// different level or device count; a moved device; a spec change to a
// name, kind, delay or spare (which the kernel froze); a changed spec
// that fails device.Spec.Validate; or a reconfigured multi-sited level.
// Comparisons are typed and allocation-free, after a device first
// compares its memory with its base counterpart's (sameMemory).
func (k *BatchKernel) Diff(d *Design, t *Touch) bool {
	b := k.sys.design
	t.Levels, t.Devices = t.Levels[:0], t.Devices[:0]
	if d.Name != b.Name ||
		!d.Workload.Equal(b.Workload) ||
		d.Requirements != b.Requirements ||
		!ptrEqual(d.Primary, b.Primary) ||
		!ptrEqual(d.Facility, b.Facility) ||
		len(d.Levels) != len(b.Levels) || len(d.Devices) != len(b.Devices) {
		return false
	}
	for i := range d.Devices {
		dp, bp := &d.Devices[i], &b.Devices[i]
		if sameMemory(dp, bp) {
			continue // a device no knob wrote, as most are
		}
		if dp.Placement != bp.Placement || dp.SparePlacement != bp.SparePlacement {
			return false
		}
		if dp.Spec == bp.Spec {
			continue
		}
		if dp.Spec.Name != bp.Spec.Name || dp.Spec.Kind != bp.Spec.Kind ||
			dp.Spec.Delay != bp.Spec.Delay || dp.Spec.Spare != bp.Spec.Spare ||
			dp.Spec.Validate() != nil {
			return false
		}
		t.Devices = append(t.Devices, i)
	}
	for j := range d.Levels {
		if levelEqual(d.Levels[j], b.Levels[j]) {
			continue
		}
		dm, dok := d.Levels[j].(protect.MultiSited)
		bm, bok := b.Levels[j].(protect.MultiSited)
		if dok != bok {
			return false
		}
		// Multi-sited survival is placement arithmetic baked into the
		// kernel; the fragment set and threshold must not move.
		if dok && (reflect.TypeOf(d.Levels[j]) != reflect.TypeOf(b.Levels[j]) ||
			dm.SurvivalThreshold() != bm.SurvivalThreshold() ||
			!slices.Equal(dm.CopyDevices(), bm.CopyDevices())) {
			return false
		}
		t.Levels = append(t.Levels, j)
	}
	return true
}

// sameMemory reports whether two placed devices hold the same bytes, the
// test Diff runs before comparing a device field by field. A device
// copied from the base that no knob wrote passes it: its strings share
// the base's text and its numbers have the base's bits. Equal bytes mean
// equal fields, except that a NaN equals itself here, which only keeps
// an unchanged device out of the touch set. Unequal bytes (a -0 for a 0,
// equal text stored elsewhere, padding) leave the answer to the field
// comparison.
func sameMemory(a, b *PlacedDevice) bool {
	n := int(unsafe.Sizeof(*a))
	return unsafe.String((*byte)(unsafe.Pointer(a)), n) == unsafe.String((*byte)(unsafe.Pointer(b)), n)
}

// levelEqual reports whether a candidate level equals its base
// counterpart. The built-in single-copy techniques are compared field by
// field (policies via Policy.Equal, allocation-free); anything else
// falls back to reflect.DeepEqual.
func levelEqual(x, y protect.Technique) bool {
	switch a := x.(type) {
	case *protect.SplitMirror:
		b, ok := y.(*protect.SplitMirror)
		return ok && a.InstanceName == b.InstanceName && a.Array == b.Array &&
			a.Pol.Equal(&b.Pol)
	case *protect.Snapshot:
		b, ok := y.(*protect.Snapshot)
		return ok && a.InstanceName == b.InstanceName && a.Array == b.Array &&
			a.Pol.Equal(&b.Pol)
	case *protect.Mirror:
		b, ok := y.(*protect.Mirror)
		return ok && a.InstanceName == b.InstanceName && a.Mode == b.Mode &&
			a.DestArray == b.DestArray && a.Links == b.Links && a.Pol.Equal(&b.Pol)
	case *protect.Backup:
		b, ok := y.(*protect.Backup)
		return ok && a.InstanceName == b.InstanceName && a.SourceArray == b.SourceArray &&
			a.Target == b.Target && a.Pol.Equal(&b.Pol)
	case *protect.Vaulting:
		b, ok := y.(*protect.Vaulting)
		return ok && a.InstanceName == b.InstanceName && a.BackupDevice == b.BackupDevice &&
			a.Vault == b.Vault && a.Transport == b.Transport &&
			a.BackupRetW == b.BackupRetW && a.Pol.Equal(&b.Pol)
	}
	return reflect.DeepEqual(x, y)
}

// ptrEqual reports whether two optional all-value structs are both nil
// or equal.
func ptrEqual[T comparable](p, q *T) bool {
	if p == nil || q == nil {
		return p == q
	}
	return *p == *q
}

// Probe checks a fast-path assessment of d against the reference path,
// Build plus AssessBrief: the outlay total, then each of the Briefs
// (one per scenario of scs) compared field by field. A nil error means
// the fast path reproduced the reference bit for bit; every fast path
// verifies itself through this one check. The reference build goes into
// sys (System.Rebuild) and its assessments use scratch, so a caller
// probing again and again holds one of each; sys holds d's build
// afterwards.
func Probe(sys *System, scratch *Scratch, d *Design, scs []failure.Scenario, outlays units.Money, briefs []Brief) error {
	if err := sys.Rebuild(d); err != nil {
		return fmt.Errorf("core: probe: build fails (%v) but the fast path assessed the design", err)
	}
	if outlays != sys.outlaysTotal {
		return fmt.Errorf("core: probe: outlays %v != reference %v", outlays, sys.outlaysTotal)
	}
	if len(briefs) != len(scs) {
		return fmt.Errorf("core: probe: %d briefs for %d scenarios", len(briefs), len(scs))
	}
	for si, sc := range scs {
		want, err := sys.AssessBrief(sc, scratch)
		if err != nil {
			return fmt.Errorf("core: probe: scenario %d: %w", si, err)
		}
		if briefs[si] != want {
			return fmt.Errorf("core: probe: scenario %d: fast %+v != reference %+v", si, briefs[si], want)
		}
	}
	return nil
}
