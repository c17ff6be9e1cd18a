package sim

import (
	"testing"
	"time"

	"stordep/internal/casestudy"
	"stordep/internal/core"
	"stordep/internal/failure"
	"stordep/internal/units"
)

// TestLossStudyLongSiteStudy: cmd/simulate's site study of Baseline over
// 60 weeks samples 3193 instants, each losing about 1093 hours, from two
// thirds into the horizon to a week before its end. Their sum overflows
// a time.Duration, which once printed a mean loss of -521.1 hours. The
// mean must be positive, at most the max, and the mean of the
// per-instant losses summed in float64.
func TestLossStudyLongSiteStudy(t *testing.T) {
	sys, err := core.Build(casestudy.Baseline())
	if err != nil {
		t.Fatal(err)
	}
	sc := failure.Scenario{Scope: failure.ScopeSite}
	surviving := sys.SurvivingLevels(nil, sc)
	if len(surviving) == 0 {
		t.Fatal("no level survives a site failure")
	}
	s, err := New(sys.Chain())
	if err != nil {
		t.Fatal(err)
	}
	horizon := 60 * units.Week
	h, err := s.Run(nil, nil, nil, 0, horizon)
	if err != nil {
		t.Fatal(err)
	}
	from, to, step := horizon*2/3, horizon-units.Week, time.Hour
	st, err := h.LossStudy(surviving, sc.TargetAge, from, to, step)
	if err != nil {
		t.Fatal(err)
	}
	if st.Samples != 3193 || st.Unrecoverable != 0 {
		t.Fatalf("%d instants, %d unrecoverable; want 3193, 0", st.Samples, st.Unrecoverable)
	}
	var sum float64
	var overflow time.Duration
	for at := from; at <= to; at += step {
		loss, _, ok := h.Loss(surviving, at, sc.TargetAge)
		if !ok {
			t.Fatalf("instant %v unrecoverable", at)
		}
		sum += float64(loss)
		overflow += loss
	}
	if overflow >= 0 {
		t.Fatalf("a time.Duration sum of the losses no longer overflows (%v): the study no longer tests the overflow", overflow)
	}
	want := time.Duration(sum / float64(st.Samples))
	if st.Mean <= 0 || st.Mean > st.Max {
		t.Errorf("mean loss %v out of range (0, max %v]", st.Mean, st.Max)
	}
	if st.Mean != want {
		t.Errorf("mean loss %v, want %v (the float64 mean of the per-instant losses)", st.Mean, want)
	}
}
