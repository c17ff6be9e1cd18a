package core_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"stordep/internal/casestudy"
	"stordep/internal/chaos"
	"stordep/internal/core"
	"stordep/internal/device"
	"stordep/internal/failure"
	"stordep/internal/protect"
)

// opaque hides its technique's Cloner, so a design holding it cannot be
// copied.
type opaque struct{ protect.Technique }

// reuseStream returns n designs drawn from seed, interleaved: chaos
// designs (some fail validation or their build), case-study designs of
// other device and level counts, case-study designs whose placements and
// spares are redrawn, designs whose build fails, and designs that cannot
// be copied.
func reuseStream(seed int64, n int) []*core.Design {
	r := rand.New(rand.NewSource(seed))
	study := func() *core.Design {
		if r.Intn(3) == 0 {
			return casestudy.AsyncBMirror(1 + r.Intn(10))
		}
		all := casestudy.WhatIfDesigns()
		return all[r.Intn(len(all))]
	}
	out := make([]*core.Design, n)
	for i := range out {
		switch k := r.Intn(10); {
		case k < 4:
			out[i] = chaos.RandomDesign(r, i)
		case k < 5:
			out[i] = study()
		case k < 7:
			out[i] = moved(r, study())
		case k < 9:
			out[i] = broken(r, study())
		default:
			d := moved(r, study())
			j := r.Intn(len(d.Levels))
			d.Levels[j] = opaque{d.Levels[j]}
			out[i] = d
		}
	}
	return out
}

// moved redraws d's placements and spares: array and site names from a
// few, dedicated spares added or taken away, and spare placements left
// to the default or placed explicitly.
func moved(r *rand.Rand, d *core.Design) *core.Design {
	d.Name += " (moved)"
	for i := range d.Devices {
		pd := &d.Devices[i]
		if pd.Placement.Array != "" && r.Intn(2) == 0 {
			pd.Placement.Array = fmt.Sprintf("arr-%d", r.Intn(3))
		}
		if pd.Placement.Site != "" && r.Intn(3) == 0 {
			pd.Placement.Site = fmt.Sprintf("site-%d", r.Intn(3))
		}
		switch r.Intn(3) {
		case 0:
			pd.Spec.Spare = device.Spare{Kind: device.SpareDedicated, ProvisionTime: time.Duration(1+r.Intn(12)) * time.Hour, Discount: 1}
		case 1:
			pd.Spec.Spare = device.Spare{Kind: device.SpareNone}
		}
		pd.SparePlacement = failure.Placement{}
		if r.Intn(3) == 0 {
			pd.SparePlacement = failure.Placement{Array: fmt.Sprintf("spare-%d", r.Intn(3)), Site: fmt.Sprintf("site-%d", r.Intn(3))}
		}
	}
	return d
}

// broken makes d fail validation or its build, in one of three places:
// before the chain is assembled, after it, and once demands are applied.
func broken(r *rand.Rand, d *core.Design) *core.Design {
	d.Name += " (broken)"
	switch r.Intn(3) {
	case 0:
		d.Workload = nil
	case 1:
		d.Primary = &protect.Primary{Array: "no-such-array"}
	default:
		d.Workload.DataCap *= 1000 // more than any array holds
	}
	return d
}

// reuseScenarios are the case study's scenarios and the scopes between
// them.
func reuseScenarios() []failure.Scenario {
	return append(failure.CaseStudyScenarios(),
		failure.Scenario{Name: "building", Scope: failure.ScopeBuilding},
		failure.Scenario{Name: "region", Scope: failure.ScopeRegion})
}

// TestReuseRebuildMatchesFresh copies a stream of designs into one
// reused Design (CloneInto) and builds each copy into one reused System
// (Rebuild), and compares every result with a fresh Clone and Build of
// the design: the copy deeply equal and owning everything a knob could
// write; the build's error, outlays bit for bit, chain, each device's
// spec and demands, spare placements, and AssessBrief under every
// scenario.
func TestReuseRebuildMatchesFresh(t *testing.T) {
	var (
		dst     core.Design
		sys     core.System
		scratch core.Scratch
	)
	scs := reuseScenarios()
	stream := reuseStream(1, 600)
	built, failed, uncopied := 0, 0, 0
	for i, d := range stream {
		label := fmt.Sprintf("design %d (%s)", i, d.Name)
		src := d
		want, werr := d.Clone()
		if err := d.CloneInto(&dst); (err == nil) != (werr == nil) {
			t.Fatalf("%s: CloneInto error %v, Clone error %v", label, err, werr)
		} else if err != nil {
			if !errors.Is(err, core.ErrNotCloneable) || err.Error() != werr.Error() {
				t.Fatalf("%s: CloneInto error %v, Clone error %v", label, err, werr)
			}
			uncopied++
		} else {
			checkCopy(t, label, d, &dst, want)
			src = &dst
		}
		err := sys.Rebuild(src)
		fresh, ferr := core.Build(d)
		if (err == nil) != (ferr == nil) || err != nil && err.Error() != ferr.Error() {
			t.Fatalf("%s: Rebuild error %v, Build error %v", label, err, ferr)
		}
		if err != nil {
			failed++
			continue
		}
		built++
		checkBuild(t, label, d, &sys, fresh, &scratch, scs)
	}
	t.Logf("%d designs: %d built, %d failed to build, %d not copyable", len(stream), built, failed, uncopied)
	if built < len(stream)/3 || failed < len(stream)/10 || uncopied == 0 {
		t.Fatalf("stream too one-sided: %d built, %d failed, %d not copyable", built, failed, uncopied)
	}
}

// checkCopy checks a reused copy dst of d against a fresh clone: deeply
// equal, and sharing no storage with d that a knob could write through.
func checkCopy(t *testing.T, label string, d, dst, want *core.Design) {
	t.Helper()
	if !reflect.DeepEqual(dst, want) {
		t.Fatalf("%s: reused copy differs from a fresh clone\nreused: %+v\nfresh:  %+v", label, dst, want)
	}
	shared := func(what string, a, b any) {
		if p := reflect.ValueOf(a); !p.IsNil() && p.Pointer() == reflect.ValueOf(b).Pointer() {
			t.Fatalf("%s: the reused copy shares the design's %s", label, what)
		}
	}
	shared("workload", dst.Workload, d.Workload)
	shared("primary", dst.Primary, d.Primary)
	shared("facility", dst.Facility, d.Facility)
	if len(d.Devices) > 0 {
		shared("devices", &dst.Devices[0], &d.Devices[0])
	}
	if d.Workload != nil && len(d.Workload.BatchCurve) > 0 {
		shared("batch curve", &dst.Workload.BatchCurve[0], &d.Workload.BatchCurve[0])
	}
	for j := range d.Levels {
		shared(fmt.Sprintf("level %d", j+1), dst.Levels[j], d.Levels[j])
	}
}

// checkBuild checks a reused build sys of d against a fresh one.
func checkBuild(t *testing.T, label string, d *core.Design, sys, fresh *core.System, scratch *core.Scratch, scs []failure.Scenario) {
	t.Helper()
	got, want := sys.Outlays(), fresh.Outlays()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: outlays %+v, fresh %+v", label, got, want)
	}
	if g, w := got.Total(), want.Total(); math.Float64bits(float64(g)) != math.Float64bits(float64(w)) {
		t.Fatalf("%s: outlay total %v, fresh %v", label, g, w)
	}
	if g, w := sys.Chain(), fresh.Chain(); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: chain %+v, fresh %+v", label, g, w)
	}
	gd, wd := sys.Devices(), fresh.Devices()
	if len(gd) != len(wd) {
		t.Fatalf("%s: %d devices, fresh %d", label, len(gd), len(wd))
	}
	for j := range wd {
		if !reflect.DeepEqual(gd[j].Spec(), wd[j].Spec()) {
			t.Fatalf("%s: device %d spec %+v, fresh %+v", label, j, gd[j].Spec(), wd[j].Spec())
		}
		if g, w := gd[j].Demands(), wd[j].Demands(); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: device %s demands %+v, fresh %+v", label, wd[j].Name(), g, w)
		}
	}
	for j := range d.Devices {
		if d.Devices[j].Spec.HasSpare() {
			if g, w := core.SpareAt(sys, j), core.SpareAt(fresh, j); g != w {
				t.Fatalf("%s: device %d spare placement %+v, fresh %+v", label, j, g, w)
			}
		}
	}
	var fs core.Scratch
	for _, sc := range scs {
		g, gerr := sys.AssessBrief(sc, scratch)
		w, werr := fresh.AssessBrief(sc, &fs)
		if g != w || (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
			t.Fatalf("%s: %s brief %+v (%v), fresh %+v (%v)", label, sc.DisplayName(), g, gerr, w, werr)
		}
	}
}
