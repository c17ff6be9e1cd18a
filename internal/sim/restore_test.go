package sim

import (
	"testing"
	"time"

	"stordep/internal/hierarchy"
	"stordep/internal/protect"
	"stordep/internal/units"
	"stordep/internal/workload"
)

func fiChain() hierarchy.Chain {
	return hierarchy.Chain{{Name: "fi-backup", Policy: hierarchy.Policy{
		Primary:   hierarchy.WindowSet{AccW: 48 * time.Hour, PropW: 48 * time.Hour, HoldW: time.Hour, Rep: hierarchy.RepFull},
		Secondary: &hierarchy.WindowSet{AccW: 24 * time.Hour, PropW: 12 * time.Hour, HoldW: time.Hour, Rep: hierarchy.RepPartial},
		CycleCnt:  5,
		RetCnt:    4, RetW: 4 * units.Week, CopyRep: hierarchy.RepFull,
	}}}
}

func TestPlanFullOnly(t *testing.T) {
	s := run(t, baselineChain(), 10*units.Week)
	plan, ok := s.Plan([]int{2}, 8*units.Week, 0)
	if !ok {
		t.Fatal("no plan")
	}
	if plan.Level != 2 || plan.Incremental {
		t.Errorf("plan = %+v, want full at level 2", plan)
	}
	w := workload.Cello()
	if got := plan.Volume(w); got != w.DataCap {
		t.Errorf("full restore volume = %v, want %v", got, w.DataCap)
	}
}

func TestPlanIncrementalChain(t *testing.T) {
	s := run(t, fiChain(), 20*units.Week)
	w := workload.Cello()
	// Pick an instant right after a late-cycle incremental landed: its
	// restore needs the base full plus the incremental delta.
	sawIncremental := false
	var maxVol units.ByteSize
	for at := 10 * units.Week; at < 19*units.Week; at += time.Hour {
		plan, ok := s.Plan([]int{1}, at, 0)
		if !ok {
			t.Fatalf("unrecoverable at %v", at)
		}
		vol := plan.Volume(w)
		if vol > maxVol {
			maxVol = vol
		}
		if plan.Incremental {
			sawIncremental = true
			if plan.FullCut >= plan.Serving.Cut {
				t.Fatalf("incremental plan without an older full: %+v", plan)
			}
			if vol <= w.DataCap {
				t.Fatalf("incremental volume %v should exceed one full", vol)
			}
		}
	}
	if !sawIncremental {
		t.Fatal("no incremental ever served")
	}
	// The analytic worst case (full + largest cumulative incremental over
	// 5 days) bounds every simulated volume.
	b := &protect.Backup{SourceArray: "a", Target: "b", Pol: fiChain()[0].Policy}
	analytic := b.RestoreSize(w)
	if maxVol > analytic {
		t.Errorf("simulated max volume %v exceeds analytic %v", maxVol, analytic)
	}
	// And the bound is tight within one incremental accumulation window.
	slack := w.UniqueBytes(24 * time.Hour)
	if maxVol < analytic-2*slack {
		t.Errorf("simulated max %v far below analytic %v", maxVol, analytic)
	}
}

func TestRTStudy(t *testing.T) {
	s := run(t, fiChain(), 20*units.Week)
	w := workload.Cello()
	bw := 231 * units.MBPerSec
	fixed := 2 * time.Minute
	st, err := s.RTStudy(w, []int{1}, 0, 10*units.Week, 19*units.Week, time.Hour, bw, fixed)
	if err != nil {
		t.Fatal(err)
	}
	if st.Unrecoverable != 0 {
		t.Fatalf("%d unrecoverable", st.Unrecoverable)
	}
	// A bare full never serves in steady state: by the time a full is
	// usable, same-cycle incrementals with newer cuts are too. The minimum
	// chain is full + the first daily incremental.
	if want := w.DataCap + w.UniqueBytes(24*time.Hour); st.MinVolume != want {
		t.Errorf("min volume = %v, want %v (full + one day)", st.MinVolume, want)
	}
	if !(st.MeanVolume > st.MinVolume && st.MeanVolume < st.MaxVolume) {
		t.Errorf("volumes: min %v mean %v max %v", st.MinVolume, st.MeanVolume, st.MaxVolume)
	}
	if st.MaxTime <= st.MeanTime || st.MeanTime <= fixed {
		t.Errorf("times: mean %v max %v", st.MeanTime, st.MaxTime)
	}
	// Sanity: ~1.7h for a full at 231 MB/s, up to ~+10 min of incremental.
	if st.MaxTime < 90*time.Minute || st.MaxTime > 3*time.Hour {
		t.Errorf("max time = %v", st.MaxTime)
	}
}

func TestRTStudyValidation(t *testing.T) {
	s := run(t, fiChain(), 2*units.Week)
	w := workload.Cello()
	if _, err := s.RTStudy(w, []int{1}, 0, time.Hour, 0, time.Hour, units.MBPerSec, 0); err == nil {
		t.Error("inverted window accepted")
	}
	if _, err := s.RTStudy(w, []int{1}, 0, 0, time.Hour, 0, units.MBPerSec, 0); err == nil {
		t.Error("zero step accepted")
	}
	if _, err := s.RTStudy(w, []int{1}, 0, 0, time.Hour, time.Hour, 0, 0); err == nil {
		t.Error("zero bandwidth accepted")
	}
}

func TestPlanGuards(t *testing.T) {
	s := run(t, baselineChain(), 2*units.Week)
	if _, ok := s.Plan([]int{1}, 3*units.Week, 0); ok {
		t.Error("beyond horizon accepted")
	}
	if _, ok := s.Plan([]int{1}, time.Hour, 2*time.Hour); ok {
		t.Error("negative target accepted")
	}
	if _, ok := s.Plan([]int{9}, units.Week, 0); ok {
		t.Error("bad level accepted")
	}
}
