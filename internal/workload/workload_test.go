package workload

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"

	"stordep/internal/units"
)

func validWorkload() *Workload {
	return &Workload{
		Name:          "test",
		DataCap:       100 * units.GB,
		AvgAccessRate: 10 * units.MBPerSec,
		AvgUpdateRate: 5 * units.MBPerSec,
		BurstMult:     4,
		BatchCurve: []BatchPoint{
			{Window: time.Minute, Rate: 4 * units.MBPerSec},
			{Window: time.Hour, Rate: 2 * units.MBPerSec},
			{Window: units.Day, Rate: 1 * units.MBPerSec},
		},
	}
}

func TestValidateOK(t *testing.T) {
	if err := validWorkload().Validate(); err != nil {
		t.Fatalf("valid workload rejected: %v", err)
	}
	if err := Cello().Validate(); err != nil {
		t.Fatalf("cello rejected: %v", err)
	}
}

func TestValidateErrors(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Workload)
		wantErr error
	}{
		{"zero capacity", func(w *Workload) { w.DataCap = 0 }, ErrNoCapacity},
		{"negative capacity", func(w *Workload) { w.DataCap = -units.GB }, ErrNoCapacity},
		{"negative access", func(w *Workload) { w.AvgAccessRate = -1 }, ErrNegativeRate},
		{"negative update", func(w *Workload) { w.AvgUpdateRate = -1 }, ErrNegativeRate},
		{"NaN capacity", func(w *Workload) { w.DataCap = units.ByteSize(math.NaN()) }, ErrNoCapacity},
		{"NaN access", func(w *Workload) { w.AvgAccessRate = units.Rate(math.NaN()) }, ErrNegativeRate},
		{"NaN update", func(w *Workload) { w.AvgUpdateRate = units.Rate(math.NaN()) }, ErrNegativeRate},
		{"burst below one", func(w *Workload) { w.BurstMult = 0.5 }, ErrBurstBelowOne},
		{"empty curve", func(w *Workload) { w.BatchCurve = nil }, ErrEmptyCurve},
		{"increasing curve", func(w *Workload) {
			w.BatchCurve = []BatchPoint{
				{Window: time.Minute, Rate: units.MBPerSec},
				{Window: time.Hour, Rate: 2 * units.MBPerSec},
			}
		}, ErrCurveIncrease},
		{"zero window", func(w *Workload) {
			w.BatchCurve = []BatchPoint{{Window: 0, Rate: units.MBPerSec}}
		}, ErrCurveBadWindow},
		{"duplicate window", func(w *Workload) {
			w.BatchCurve = []BatchPoint{
				{Window: time.Hour, Rate: 2 * units.MBPerSec},
				{Window: time.Hour, Rate: units.MBPerSec},
			}
		}, ErrCurveBadWindow},
		{"curve exceeds avg", func(w *Workload) {
			w.BatchCurve = []BatchPoint{{Window: time.Minute, Rate: 50 * units.MBPerSec}}
		}, ErrCurveExceeds},
		{"NaN curve rate", func(w *Workload) {
			w.BatchCurve = []BatchPoint{{Window: time.Minute, Rate: units.Rate(math.NaN())}}
		}, ErrCurveExceeds},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			w := validWorkload()
			tt.mutate(w)
			if err := w.Validate(); !errors.Is(err, tt.wantErr) {
				t.Errorf("Validate() = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestBatchUpdateRateBreakpoints(t *testing.T) {
	w := Cello()
	tests := []struct {
		win  time.Duration
		want units.Rate
	}{
		{time.Minute, 727 * units.KBPerSec},
		{12 * time.Hour, 350 * units.KBPerSec},
		{24 * time.Hour, 317 * units.KBPerSec},
		{48 * time.Hour, 317 * units.KBPerSec},
		{units.Week, 317 * units.KBPerSec},
		// Clamped below and above the measured range.
		{time.Second, 727 * units.KBPerSec},
		{4 * units.Week, 317 * units.KBPerSec},
	}
	for _, tt := range tests {
		if got := w.BatchUpdateRate(tt.win); got != tt.want {
			t.Errorf("BatchUpdateRate(%v) = %v, want %v", tt.win, got, tt.want)
		}
	}
}

func TestBatchUpdateRateInterpolates(t *testing.T) {
	w := validWorkload()
	// Halfway between 1min (4MB/s) and 1hr (2MB/s) in window length.
	mid := time.Minute + (time.Hour-time.Minute)/2
	got := w.BatchUpdateRate(mid)
	want := 3 * units.MBPerSec
	if math.Abs(float64(got-want)) > 1 {
		t.Errorf("interpolated rate = %v, want ~%v", got, want)
	}
}

func TestUniqueBytes(t *testing.T) {
	w := Cello()
	// 12-hour window: 350 KB/s x 43200 s.
	want := (350 * units.KBPerSec).Over(12 * time.Hour)
	if got := w.UniqueBytes(12 * time.Hour); got != want {
		t.Errorf("UniqueBytes(12h) = %v, want %v", got, want)
	}
	if got := w.UniqueBytes(0); got != 0 {
		t.Errorf("UniqueBytes(0) = %v, want 0", got)
	}
	if got := w.UniqueBytes(-time.Hour); got != 0 {
		t.Errorf("UniqueBytes(neg) = %v, want 0", got)
	}
}

func TestUniqueBytesCappedByDataCap(t *testing.T) {
	w := validWorkload()
	// Over ten years at 1 MB/s the raw product far exceeds 100 GB.
	if got := w.UniqueBytes(10 * units.Year); got != w.DataCap {
		t.Errorf("UniqueBytes(10yr) = %v, want cap %v", got, w.DataCap)
	}
}

func TestPeakUpdateRate(t *testing.T) {
	w := Cello()
	if got, want := w.PeakUpdateRate(), 7990*units.KBPerSec; got != want {
		t.Errorf("PeakUpdateRate = %v, want %v", got, want)
	}
}

func TestScale(t *testing.T) {
	w := Cello()
	doubled, err := w.Scale(2)
	if err != nil {
		t.Fatal(err)
	}
	if doubled.DataCap != 2720*units.GB {
		t.Errorf("scaled cap = %v", doubled.DataCap)
	}
	if doubled.AvgUpdateRate != 1598*units.KBPerSec {
		t.Errorf("scaled update rate = %v", doubled.AvgUpdateRate)
	}
	if doubled.BurstMult != w.BurstMult {
		t.Errorf("burst changed: %v", doubled.BurstMult)
	}
	if err := doubled.Validate(); err != nil {
		t.Errorf("scaled workload invalid: %v", err)
	}
	if _, err := w.Scale(0); err == nil {
		t.Error("Scale(0) should fail")
	}
	if _, err := w.Scale(-1); err == nil {
		t.Error("Scale(-1) should fail")
	}
	// Original untouched.
	if w.DataCap != 1360*units.GB {
		t.Errorf("original mutated: %v", w.DataCap)
	}
}

func TestCelloMatchesTable2(t *testing.T) {
	w := Cello()
	if w.DataCap != 1360*units.GB {
		t.Errorf("dataCap = %v", w.DataCap)
	}
	if w.AvgAccessRate != 1028*units.KBPerSec {
		t.Errorf("avgAccessR = %v", w.AvgAccessRate)
	}
	if w.AvgUpdateRate != 799*units.KBPerSec {
		t.Errorf("avgUpdateR = %v", w.AvgUpdateRate)
	}
	if w.BurstMult != 10 {
		t.Errorf("burstM = %v", w.BurstMult)
	}
	if len(w.BatchCurve) != 5 {
		t.Errorf("batch curve has %d points, want 5", len(w.BatchCurve))
	}
}

// Property: the batch update rate is non-increasing in window length for
// any pair of windows, per the coalescing argument in §3.1.1.
func TestBatchRateMonotoneProperty(t *testing.T) {
	w := Cello()
	f := func(aMin, bMin uint32) bool {
		a := time.Duration(aMin%20000+1) * time.Minute
		b := time.Duration(bMin%20000+1) * time.Minute
		if a > b {
			a, b = b, a
		}
		return w.BatchUpdateRate(a) >= w.BatchUpdateRate(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: unique bytes over a window never exceed avgUpdateR x window
// (unique updates are a subset of all updates) nor the object size.
func TestUniqueBytesBoundedProperty(t *testing.T) {
	w := Cello()
	f := func(mins uint32) bool {
		win := time.Duration(mins%600000+1) * time.Minute
		u := w.UniqueBytes(win)
		return u <= w.AvgUpdateRate.Over(win) && u <= w.DataCap
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: BatchCurve order does not matter — shuffled curves produce
// identical interpolation results.
func TestCurveOrderIrrelevant(t *testing.T) {
	w := validWorkload()
	shuffled := *w
	shuffled.BatchCurve = []BatchPoint{
		w.BatchCurve[2], w.BatchCurve[0], w.BatchCurve[1],
	}
	for _, win := range []time.Duration{time.Second, time.Minute, 30 * time.Minute, time.Hour, units.Day, units.Week} {
		if a, b := w.BatchUpdateRate(win), shuffled.BatchUpdateRate(win); a != b {
			t.Errorf("order-dependent result at %v: %v vs %v", win, a, b)
		}
	}
}

func TestMerge(t *testing.T) {
	a := Cello()
	b := OLTP(500 * units.GB)
	merged, err := Merge("consolidated", a, b)
	if err != nil {
		t.Fatal(err)
	}
	if merged.DataCap != a.DataCap+b.DataCap {
		t.Errorf("merged cap = %v", merged.DataCap)
	}
	if merged.AvgUpdateRate != a.AvgUpdateRate+b.AvgUpdateRate {
		t.Errorf("merged update = %v", merged.AvgUpdateRate)
	}
	// Pointwise curve sum at a shared probe window.
	probe := 12 * time.Hour
	want := a.BatchUpdateRate(probe) + b.BatchUpdateRate(probe)
	if got := merged.BatchUpdateRate(probe); got != want {
		t.Errorf("merged batch rate = %v, want %v", got, want)
	}
	// The conservative peak bound: merged peak <= sum of peaks, and the
	// multiplier stays >= 1.
	if merged.BurstMult < 1 {
		t.Errorf("burst = %v", merged.BurstMult)
	}
	if merged.PeakUpdateRate() > a.PeakUpdateRate()+b.PeakUpdateRate()+1 {
		t.Errorf("merged peak %v exceeds sum of peaks", merged.PeakUpdateRate())
	}
}

func TestMergeErrors(t *testing.T) {
	if _, err := Merge("x"); err == nil {
		t.Error("empty merge accepted")
	}
	if _, err := Merge("x", &Workload{}); err == nil {
		t.Error("invalid input accepted")
	}
}

func TestMergeSingleIsIdentityShaped(t *testing.T) {
	w := Cello()
	m, err := Merge("solo", w)
	if err != nil {
		t.Fatal(err)
	}
	if m.DataCap != w.DataCap || m.AvgUpdateRate != w.AvgUpdateRate {
		t.Error("single merge changed totals")
	}
	for _, p := range w.BatchCurve {
		if got := m.BatchUpdateRate(p.Window); got != p.Rate {
			t.Errorf("window %v: %v != %v", p.Window, got, p.Rate)
		}
	}
}
