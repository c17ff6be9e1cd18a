package core_test

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"stordep/internal/casestudy"
	"stordep/internal/core"
	"stordep/internal/failure"
)

// changeEachField walks every field reachable from v (an addressable
// value), changes that one field, calls check with the field's path, and
// restores it. Structs recurse into their fields, pointers into their
// targets (a nil pointer is changed to a zero target), slices into their
// elements plus a shortened length. seen collects the struct types
// visited. An unexported or unhandled field fails the test: the walk
// must reach every field a comparison could forget.
func changeEachField(t *testing.T, path string, v reflect.Value, seen map[reflect.Type]bool, check func(path string)) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		seen[v.Type()] = true
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if !f.IsExported() {
				t.Fatalf("%s.%s: unexported field the walk cannot change", path, f.Name)
			}
			changeEachField(t, path+"."+f.Name, v.Field(i), seen, check)
		}
	case reflect.Pointer:
		if v.IsNil() {
			v.Set(reflect.New(v.Type().Elem()))
			check(path + " (nil to zero value)")
			v.SetZero()
			return
		}
		changeEachField(t, path, v.Elem(), seen, check)
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			changeEachField(t, fmt.Sprintf("%s[%d]", path, i), v.Index(i), seen, check)
		}
		if n := v.Len(); n > 0 {
			v.SetLen(n - 1)
			check(path + " (shortened)")
			v.SetLen(n)
		}
	case reflect.String:
		old := v.String()
		v.SetString(old + "-changed")
		check(path)
		v.SetString(old)
	case reflect.Int, reflect.Int32, reflect.Int64:
		old := v.Int()
		v.SetInt(old + 1)
		check(path)
		v.SetInt(old)
	case reflect.Float64:
		old := v.Float()
		v.SetFloat(old + 1)
		check(path)
		v.SetFloat(old)
	case reflect.Bool:
		v.SetBool(!v.Bool())
		check(path)
		v.SetBool(!v.Bool())
	default:
		t.Fatalf("%s: field kind %v not handled by the walk", path, v.Kind())
	}
}

// TestDiffReportsEveryField: Diff's typed equality decides which levels
// and specs both fast paths (the compiled search and DeltaAssessor)
// re-extract, and which ones opt's compile restores on its
// reset-in-place design, so a field it ignores would let a changed
// design reuse the base's cached numbers. Every field of every compared
// type — the techniques with their nested hierarchy.Policy and
// WindowSet, the placed devices with their specs and placements, the
// primary copy, the facility, the requirements, the workload and the
// design name — is changed one at a time on a clone, and Diff must
// report each change: either the level or device spec shows up as
// touched or the change is refused outright. A placement or a name
// change must be refused. A field added to any of these types without
// extending the comparison fails here.
func TestDiffReportsEveryField(t *testing.T) {
	seen := map[reflect.Type]bool{}
	for _, base := range []*core.Design{
		casestudy.Baseline(),                  // split mirror, backup, vaulting, facility
		casestudy.WeeklyVaultFI(),             // backup with a secondary window set
		casestudy.WeeklyVaultDailyFSnapshot(), // snapshot
		casestudy.AsyncBMirror(4),             // mirror
	} {
		sys, err := core.Build(base)
		if err != nil {
			t.Fatalf("%s: %v", base.Name, err)
		}
		kern, err := core.NewBatchKernel(sys, deltaScenarios())
		if err != nil {
			t.Fatalf("%s: %v", base.Name, err)
		}
		d := cloneDesign(t, base)
		var touch core.Touch
		if !kern.Diff(d, &touch) || len(touch.Levels)+len(touch.Devices) != 0 {
			t.Fatalf("%s: an unchanged clone differs: %+v", base.Name, touch)
		}
		for j := range d.Levels {
			path := fmt.Sprintf("%s: level %d %T", base.Name, j+1, d.Levels[j])
			changeEachField(t, path, reflect.ValueOf(d.Levels[j]).Elem(), seen, func(path string) {
				if kern.Diff(d, &touch) && !slices.Contains(touch.Levels, j) {
					t.Errorf("%s: change not reported (touched levels %v)", path, touch.Levels)
				}
			})
		}
		refused := func(path string) {
			if kern.Diff(d, &touch) {
				t.Errorf("%s: change accepted as representable", path)
			}
		}
		for i := range d.Devices {
			path := fmt.Sprintf("%s: device %d", base.Name, i)
			spec := path + ".Spec."
			changeEachField(t, path, reflect.ValueOf(&d.Devices[i]).Elem(), seen, func(path string) {
				if !strings.HasPrefix(path, spec) {
					refused(path) // a placement: the kernel froze it
					return
				}
				if kern.Diff(d, &touch) && !slices.Contains(touch.Devices, i) {
					t.Errorf("%s: change not reported (touched devices %v)", path, touch.Devices)
				}
			})
		}
		changeEachField(t, base.Name+": name", reflect.ValueOf(&d.Name).Elem(), seen, refused)
		changeEachField(t, base.Name+": primary", reflect.ValueOf(d.Primary).Elem(), seen, refused)
		changeEachField(t, base.Name+": facility", reflect.ValueOf(d.Facility).Elem(), seen, refused)
		changeEachField(t, base.Name+": requirements", reflect.ValueOf(&d.Requirements).Elem(), seen, refused)
		changeEachField(t, base.Name+": workload", reflect.ValueOf(d.Workload).Elem(), seen, refused)
	}
	for _, name := range []string{
		"protect.SplitMirror", "protect.Snapshot", "protect.Mirror", "protect.Backup",
		"protect.Vaulting", "hierarchy.Policy", "hierarchy.WindowSet", "protect.Primary",
		"core.Facility", "cost.Requirements", "workload.Workload", "workload.BatchPoint",
		"core.PlacedDevice", "device.Spec", "failure.Placement",
	} {
		found := false
		for typ := range seen {
			found = found || typ.String() == name
		}
		if !found {
			t.Errorf("walk never reached %s", name)
		}
	}
}

// TestFragmentCapturesWithoutAllocating: a new Assembler's capture fleet
// has room in one array for the demand a technique registers on each
// device, and Fragment counts a level's records before it asks room for
// their buffer. So the first captures of every level on a new Assembler,
// as each search's extraction makes, allocate nothing. A fleet of
// demand-free device copies, whose lists grow on their first capture,
// allocates 4 times (192 bytes) on Baseline.
func TestFragmentCapturesWithoutAllocating(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, d := range []*core.Design{casestudy.Baseline(), casestudy.AsyncBMirror(5)} {
		sys, err := core.Build(d)
		if err != nil {
			t.Fatal(err)
		}
		kern, err := core.NewBatchKernel(sys, failure.CaseStudyScenarios())
		if err != nil {
			t.Fatal(err)
		}
		a := kern.NewAssembler()
		buf := make([]core.IndexedDemand, 0, 64)
		short := false
		room := func(n int) []core.IndexedDemand {
			short = short || cap(buf) < n
			return buf[:0]
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, tech := range d.Levels {
			if _, err := a.Fragment(tech, room); err != nil {
				t.Fatalf("%s: %s: %v", d.Name, tech.Name(), err)
			}
		}
		runtime.ReadMemStats(&after)
		if short {
			t.Fatalf("%s: a level captures more than 64 records", d.Name)
		}
		if n := after.Mallocs - before.Mallocs; n != 0 {
			t.Errorf("%s: first captures on a new Assembler allocate %d times (%d bytes), want 0",
				d.Name, n, after.TotalAlloc-before.TotalAlloc)
		}
	}
}

// TestDiffSameDeviceOtherMemory: Diff compares a device's memory with
// its base counterpart's before its fields. A device equal field by
// field but not in memory, its names' text stored elsewhere and a -0
// where the base has 0, must still count as unchanged.
func TestDiffSameDeviceOtherMemory(t *testing.T) {
	base := casestudy.Baseline()
	sys, err := core.Build(base)
	if err != nil {
		t.Fatal(err)
	}
	kern, err := core.NewBatchKernel(sys, deltaScenarios())
	if err != nil {
		t.Fatal(err)
	}
	d := cloneDesign(t, base)
	zeros := 0
	for i := range d.Devices {
		pd := &d.Devices[i]
		pd.Spec.Name = strings.Clone(pd.Spec.Name)
		pd.Placement.Site = strings.Clone(pd.Placement.Site)
		if pd.Spec.Cost.PerShipment == 0 {
			pd.Spec.Cost.PerShipment = math.Copysign(0, -1)
			zeros++
		}
	}
	if zeros == 0 {
		t.Fatal("no device has a zero shipment cost to negate")
	}
	var touch core.Touch
	if !kern.Diff(d, &touch) || len(touch.Levels)+len(touch.Devices) != 0 {
		t.Fatalf("devices equal to the base's but stored elsewhere differ: %+v", touch)
	}
}
