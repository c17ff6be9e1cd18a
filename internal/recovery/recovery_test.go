package recovery

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"stordep/internal/hierarchy"
	"stordep/internal/units"
)

func TestStepDuration(t *testing.T) {
	tests := []struct {
		name string
		step Step
		want time.Duration
	}{
		{"fixed only", Step{SerFix: time.Minute}, time.Minute},
		{"transfer only", Step{Size: 600 * units.MB, Bandwidth: 10 * units.MBPerSec}, time.Minute},
		{"fixed plus transfer", Step{SerFix: 30 * time.Second, Size: 300 * units.MB, Bandwidth: 10 * units.MBPerSec}, time.Minute},
		{"no data no time", Step{}, 0},
		{"impossible transfer", Step{Size: units.GB}, units.Forever},
		{"saturates", Step{SerFix: 2 * time.Hour, Size: (240 * units.MBPerSec).Over(units.Forever - time.Hour), Bandwidth: 240 * units.MBPerSec}, units.Forever},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.step.Duration(); got != tt.want {
				t.Errorf("Duration() = %v, want %v", got, tt.want)
			}
		})
	}
}

// TestTimeFigure4 models the paper's Figure 4 site-disaster path: tape
// shipment from the vault (24h transit), tape load at the recovery site
// library (36s), transfer to the array whose shared-facility provisioning
// (9h) overlaps the shipment. RT = max(24h, 9h) + 36s + transfer.
func TestTimeFigure4(t *testing.T) {
	xferBW := 240 * units.MBPerSec
	steps := []Step{
		{Name: "vault -> site", SerFix: 24 * time.Hour},
		{
			Name:      "tape -> array",
			ParFix:    9 * time.Hour,
			SerFix:    36 * time.Second,
			Size:      1360 * units.GB,
			Bandwidth: xferBW,
		},
	}
	got := Time(steps)
	want := 24*time.Hour + 36*time.Second + units.Div(1360*units.GB, xferBW)
	if got != want {
		t.Errorf("Time = %v, want %v", got, want)
	}
	// The 9h provisioning must be hidden by the 24h shipment.
	if got >= 33*time.Hour {
		t.Error("provisioning was serialized instead of overlapped")
	}
}

func TestTimeParFixDominates(t *testing.T) {
	// When provisioning exceeds upstream readiness, it gates the start.
	steps := []Step{
		{Name: "ship", SerFix: time.Hour},
		{Name: "restore", ParFix: 9 * time.Hour, Size: 36 * units.GB, Bandwidth: units.GBPerSec},
	}
	want := 9*time.Hour + 36*time.Second
	if got := Time(steps); got != want {
		t.Errorf("Time = %v, want %v", got, want)
	}
}

func TestTimeEmptyAndForever(t *testing.T) {
	if got := Time(nil); got != 0 {
		t.Errorf("Time(nil) = %v", got)
	}
	steps := []Step{{Size: units.GB}} // no bandwidth
	if got := Time(steps); got != units.Forever {
		t.Errorf("Time(impossible) = %v, want Forever", got)
	}
}

func baselineChain() hierarchy.Chain {
	return hierarchy.Chain{
		{Name: "split-mirror", Policy: hierarchy.Policy{
			Primary: hierarchy.WindowSet{AccW: 12 * time.Hour, Rep: hierarchy.RepFull},
			RetCnt:  4, RetW: 2 * units.Day, CopyRep: hierarchy.RepFull,
		}},
		{Name: "tape-backup", Policy: hierarchy.Policy{
			Primary: hierarchy.WindowSet{AccW: units.Week, PropW: 48 * time.Hour, HoldW: time.Hour, Rep: hierarchy.RepFull},
			RetCnt:  4, RetW: 4 * units.Week, CopyRep: hierarchy.RepFull,
		}},
		{Name: "remote-vault", Policy: hierarchy.Policy{
			Primary: hierarchy.WindowSet{AccW: 4 * units.Week, PropW: 24 * time.Hour, HoldW: 4*units.Week + 12*time.Hour, Rep: hierarchy.RepFull},
			RetCnt:  39, RetW: 3 * units.Year, CopyRep: hierarchy.RepFull,
		}},
	}
}

func TestSelectSourceObjectFailure(t *testing.T) {
	// All levels survive an object corruption; the 24h-old target is
	// covered by the split mirrors with a 12h worst-case loss (Table 6).
	c := baselineChain()
	got, err := SelectSource(c, []int{1, 2, 3}, 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if got.Level != 1 || got.Loss != 12*time.Hour {
		t.Errorf("SelectSource = %+v, want level 1, loss 12h", got)
	}
}

func TestSelectSourceArrayFailure(t *testing.T) {
	// The array failure destroys the mirrors; tape backup serves with
	// 217h worst-case loss (Table 6).
	c := baselineChain()
	got, err := SelectSource(c, []int{2, 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Level != 2 || got.Loss != 217*time.Hour {
		t.Errorf("SelectSource = %+v, want level 2, loss 217h", got)
	}
}

func TestSelectSourceSiteFailure(t *testing.T) {
	// Only the vault survives: 1429h worst-case loss (Table 6).
	c := baselineChain()
	got, err := SelectSource(c, []int{3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Level != 3 || got.Loss != 1429*time.Hour {
		t.Errorf("SelectSource = %+v, want level 3, loss 1429h", got)
	}
}

func TestSelectSourceUnrecoverable(t *testing.T) {
	c := baselineChain()
	// A ten-year-old target predates every level's retention.
	if _, err := SelectSource(c, []int{1, 2, 3}, 10*units.Year); !errors.Is(err, ErrUnrecoverable) {
		t.Errorf("err = %v, want ErrUnrecoverable", err)
	}
	// No survivors at all.
	if _, err := SelectSource(c, nil, 0); !errors.Is(err, ErrUnrecoverable) {
		t.Errorf("err = %v, want ErrUnrecoverable", err)
	}
	// Out-of-range survivor indices are ignored.
	if _, err := SelectSource(c, []int{0, 7}, 0); !errors.Is(err, ErrUnrecoverable) {
		t.Errorf("err = %v, want ErrUnrecoverable", err)
	}
}

func TestSelectSourcePrefersNearerOnTie(t *testing.T) {
	// Two identical levels: equal loss, pick the nearer one (faster
	// recovery path).
	pol := hierarchy.Policy{
		Primary: hierarchy.WindowSet{AccW: time.Hour, Rep: hierarchy.RepFull},
		RetCnt:  10, RetW: units.Day, CopyRep: hierarchy.RepFull,
	}
	c := hierarchy.Chain{{Name: "a", Policy: pol}, {Name: "b", Policy: pol}}
	got, err := SelectSource(c, []int{2, 1}, 2*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if got.Level != 1 {
		t.Errorf("tie broken toward level %d, want 1", got.Level)
	}
}

func TestCandidates(t *testing.T) {
	c := baselineChain()
	cands := Candidates(c, []int{1, 2, 3}, 24*time.Hour)
	if len(cands) != 3 {
		t.Fatalf("candidates = %+v, want 3", cands)
	}
	// Deeper levels lose more for a covered/too-recent target.
	if !(cands[0].Loss <= cands[1].Loss && cands[1].Loss <= cands[2].Loss) {
		t.Errorf("losses not monotone: %+v", cands)
	}
	// A target too old for the mirrors drops level 1.
	cands = Candidates(c, []int{1, 2, 3}, units.Week)
	for _, cd := range cands {
		if cd.Level == 1 {
			t.Errorf("split mirror cannot serve a week-old target: %+v", cands)
		}
	}
}

func TestPlan(t *testing.T) {
	p := &Plan{
		SourceLevel: 2,
		SourceName:  "tape-backup",
		Loss:        217 * time.Hour,
		Steps: []Step{
			{Name: "tape -> array", ParFix: 72 * time.Second, SerFix: 36 * time.Second,
				Size: 1360 * units.GB, Bandwidth: 231 * units.MBPerSec},
		},
	}
	rt := p.Time()
	// 72s parFix + 36s load + ~1.68h transfer.
	if rt < 90*time.Minute || rt > 2*time.Hour {
		t.Errorf("plan time = %v, want ~1.7h", rt)
	}
	s := p.String()
	if !strings.Contains(s, "tape-backup") || !strings.Contains(s, "tape -> array") {
		t.Errorf("Plan.String() = %q", s)
	}
}

// Property: recovery time is monotone in transfer size and never below
// the sum of fixed components.
func TestTimeMonotoneProperty(t *testing.T) {
	f := func(gb1, gb2 uint16, parMin, serMin uint8) bool {
		lo, hi := units.ByteSize(gb1)*units.GB, units.ByteSize(gb2)*units.GB
		if lo > hi {
			lo, hi = hi, lo
		}
		mk := func(size units.ByteSize) []Step {
			return []Step{
				{SerFix: time.Duration(serMin) * time.Minute},
				{ParFix: time.Duration(parMin) * time.Minute, Size: size, Bandwidth: 100 * units.MBPerSec},
			}
		}
		tLo, tHi := Time(mk(lo)), Time(mk(hi))
		if tLo > tHi {
			return false
		}
		return tHi >= time.Duration(serMin)*time.Minute
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: overlapping (parallel) preparation never lengthens recovery
// beyond fully-serialized execution, and recovery is at least as long as
// its longest single component.
func TestTimeOverlapBoundsProperty(t *testing.T) {
	f := func(parMin, serMin, xferMin uint8) bool {
		par := time.Duration(parMin) * time.Minute
		ser := time.Duration(serMin) * time.Minute
		size := units.Rate(10 * units.MBPerSec).Over(time.Duration(xferMin) * time.Minute)
		steps := []Step{
			{SerFix: ser},
			{ParFix: par, Size: size, Bandwidth: 10 * units.MBPerSec},
		}
		rt := Time(steps)
		serial := par + ser + time.Duration(xferMin)*time.Minute
		longest := par
		if ser > longest {
			longest = ser
		}
		tol := time.Millisecond
		return rt <= serial+tol && rt+tol >= longest
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTimeNumericalExample(t *testing.T) {
	// The paper's array-failure intuition: transfer dominates. 1360 GB at
	// 231.9 MB/s available tape bandwidth is ~1.67h.
	steps := []Step{{
		ParFix:    72 * time.Second,
		SerFix:    36 * time.Second,
		Size:      1360 * units.GB,
		Bandwidth: 231.9 * units.MBPerSec,
	}}
	got := Time(steps).Hours()
	if math.Abs(got-1.68) > 0.02 {
		t.Errorf("array restore = %.3fh, want ~1.68h", got)
	}
}

// FuzzRestoreTime checks, over nonnegative inputs, the properties the
// assessment paths and the prune bound's recovery-time floor rest on:
// Restore.Time is never negative, equals Time over Restore.Steps, never
// rises when a bandwidth (either rate of the reader or the destination,
// or the link cap) rises, and never falls when a delay, a provisioning
// time or the size rises. Each input raises the one term `which` picks,
// by dt for a duration and by dx for a bandwidth or a size. flags sets
// MediaReturn, ReadIntact, DestIntact, SameDevice and CrossLink from its
// low five bits.
func FuzzRestoreTime(f *testing.F) {
	const mbps = float64(units.MBPerSec)
	cello := float64(1360 * units.GB)
	// Baseline's site restore with a recover size an hour short of
	// Forever: the media return ahead of it must saturate the sum, not
	// wrap it.
	f.Add(uint8(1), int64(24*time.Hour), int64(9*time.Hour), int64(9*time.Hour), int64(36*time.Second), int64(0),
		200*mbps, 240*mbps, 500*mbps, 512*mbps, 0.0, cello, float64((240 * units.MBPerSec).Over(units.Forever-time.Hour)),
		uint8(3), int64(time.Hour), mbps)
	// An intra-array object restore and a mirror restore over a link.
	f.Add(uint8(2|4|8), int64(0), int64(0), int64(0), int64(0), int64(0),
		500*mbps, 512*mbps, 500*mbps, 512*mbps, 0.0, cello, float64(units.MB), uint8(1), int64(time.Second), mbps)
	f.Add(uint8(2|16), int64(0), int64(0), int64(9*time.Hour), int64(0), int64(40*time.Millisecond),
		500*mbps, 512*mbps, 500*mbps, 512*mbps, 19*mbps, cello, 0.0, uint8(2), int64(time.Minute), mbps)
	f.Fuzz(func(t *testing.T, flags uint8, transit, readProv, destProv, access, linkDelay int64,
		readAvail, readMax, destAvail, destMax, linkBW, size, recoverSize float64, which uint8, dt int64, dx float64) {
		for _, x := range []float64{readAvail, readMax, destAvail, destMax, linkBW, size, recoverSize, dx} {
			if math.IsNaN(x) {
				t.Skip()
			}
		}
		dur := func(x int64) time.Duration {
			if x < 0 {
				x = ^x
			}
			return time.Duration(x)
		}
		r := Restore{
			MediaReturn:   flags&1 != 0,
			Transit:       dur(transit),
			ReadProvision: dur(readProv),
			DestProvision: dur(destProv),
			AccessDelay:   dur(access),
			ReadIntact:    flags&2 != 0,
			DestIntact:    flags&4 != 0,
			ReadAvail:     units.Rate(math.Abs(readAvail)),
			ReadMax:       units.Rate(math.Abs(readMax)),
			DestAvail:     units.Rate(math.Abs(destAvail)),
			DestMax:       units.Rate(math.Abs(destMax)),
			SameDevice:    flags&8 != 0,
			CrossLink:     flags&16 != 0,
			LinkDelay:     dur(linkDelay),
			LinkBW:        units.Rate(math.Abs(linkBW)),
			Size:          units.ByteSize(math.Abs(size)),
			RecoverSize:   units.ByteSize(math.Abs(recoverSize)),
		}
		rt := r.Time()
		if rt < 0 {
			t.Fatalf("%+v: negative time %v", r, rt)
		}
		if steps := Time(r.Steps(nil)); steps != rt {
			t.Fatalf("%+v: Time %v, Time over Steps %v", r, rt, steps)
		}
		d, x := dur(dt), math.Abs(dx)
		raise := []func(*Restore){
			func(r *Restore) { r.ReadAvail += units.Rate(x) },
			func(r *Restore) { r.ReadMax += units.Rate(x) },
			func(r *Restore) { r.DestAvail += units.Rate(x) },
			func(r *Restore) { r.DestMax += units.Rate(x) },
			func(r *Restore) { r.LinkBW += units.Rate(x) },
			func(r *Restore) { r.Transit = addSat(r.Transit, d) },
			func(r *Restore) { r.ReadProvision = addSat(r.ReadProvision, d) },
			func(r *Restore) { r.DestProvision = addSat(r.DestProvision, d) },
			func(r *Restore) { r.AccessDelay = addSat(r.AccessDelay, d) },
			func(r *Restore) { r.LinkDelay = addSat(r.LinkDelay, d) },
			func(r *Restore) { r.Size += units.ByteSize(x) },
			func(r *Restore) {
				// A recover size replaces the level's, so only a given
				// one can rise.
				if r.RecoverSize > 0 {
					r.RecoverSize += units.ByteSize(x)
				}
			},
		}
		up, i := r, int(which)%len(raise)
		raise[i](&up)
		bandwidth := i < 5
		switch got := up.Time(); {
		case bandwidth && got > rt:
			t.Fatalf("%+v -> %+v: a bandwidth rose and the time rose from %v to %v", r, up, rt, got)
		case !bandwidth && got < rt:
			t.Fatalf("%+v -> %+v: a delay or the size rose and the time fell from %v to %v", r, up, rt, got)
		}
	})
}
