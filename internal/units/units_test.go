package units

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestByteSizeConstants(t *testing.T) {
	tests := []struct {
		name string
		got  ByteSize
		want float64
	}{
		{"KB", KB, 1024},
		{"MB", MB, 1024 * 1024},
		{"GB", GB, 1024 * 1024 * 1024},
		{"TB", TB, 1024 * 1024 * 1024 * 1024},
		{"PB", PB, 1024 * 1024 * 1024 * 1024 * 1024},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if tt.got.Bytes() != tt.want {
				t.Errorf("got %v, want %v", tt.got.Bytes(), tt.want)
			}
		})
	}
}

func TestByteSizeString(t *testing.T) {
	tests := []struct {
		in   ByteSize
		want string
	}{
		{0, "0B"},
		{512 * Byte, "512B"},
		{KB, "1.0KB"},
		{1360 * GB, "1.3TB"},
		{100 * GB, "100.0GB"},
		{1.5 * TB, "1.5TB"},
		{-2 * GB, "-2.0GB"},
		{2 * PB, "2.0PB"},
	}
	for _, tt := range tests {
		if got := tt.in.String(); got != tt.want {
			t.Errorf("ByteSize(%v).String() = %q, want %q", float64(tt.in), got, tt.want)
		}
	}
}

func TestRateString(t *testing.T) {
	tests := []struct {
		in   Rate
		want string
	}{
		{799 * KBPerSec, "799.0KB/s"},
		{25 * MBPerSec, "25.0MB/s"},
		{0, "0.0B/s"},
		{-MBPerSec, "-1.0MB/s"},
		{3 * GBPerSec, "3.0GB/s"},
	}
	for _, tt := range tests {
		if got := tt.in.String(); got != tt.want {
			t.Errorf("Rate.String() = %q, want %q", got, tt.want)
		}
	}
}

func TestRateOver(t *testing.T) {
	got := (10 * MBPerSec).Over(3 * time.Second)
	if want := 30 * MB; got != want {
		t.Errorf("Over = %v, want %v", got, want)
	}
}

func TestDiv(t *testing.T) {
	tests := []struct {
		name string
		b    ByteSize
		r    Rate
		want time.Duration
	}{
		{"simple", 100 * MB, 10 * MBPerSec, 10 * time.Second},
		{"zero rate", GB, 0, Forever},
		{"negative rate", GB, -1, Forever},
		{"zero size", 0, MBPerSec, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Div(tt.b, tt.r); got != tt.want {
				t.Errorf("Div(%v, %v) = %v, want %v", tt.b, tt.r, got, tt.want)
			}
		})
	}
}

func TestDivOverflowClampsToForever(t *testing.T) {
	if got := Div(PB*1e9, Rate(1e-12)); got != Forever {
		t.Errorf("huge transfer should clamp to Forever, got %v", got)
	}
}

func TestRateOf(t *testing.T) {
	if got := RateOf(100*MB, 10*time.Second); got != 10*MBPerSec {
		t.Errorf("RateOf = %v, want 10MB/s", got)
	}
	if got := RateOf(MB, 0); !math.IsInf(float64(got), 1) {
		t.Errorf("RateOf with zero duration = %v, want +Inf", got)
	}
}

func TestCalendarConstants(t *testing.T) {
	if Day != 24*time.Hour {
		t.Errorf("Day = %v", Day)
	}
	if Week != 7*Day {
		t.Errorf("Week = %v", Week)
	}
	if Year != 52*Week {
		t.Errorf("Year = %v", Year)
	}
	// 39 retained 4-week cycles must cover three years (paper Table 3).
	if got := 39 * 4 * Week; got != 3*Year {
		t.Errorf("39 x 4wk = %v, want %v", got, 3*Year)
	}
}

func TestMoneyString(t *testing.T) {
	tests := []struct {
		in   Money
		want string
	}{
		{11_940_000, "$11.94M"},
		{970_000, "$970.0K"},
		{50, "$50.00"},
		{-1_500_000, "-$1.50M"},
		{0, "$0.00"},
	}
	for _, tt := range tests {
		if got := tt.in.String(); got != tt.want {
			t.Errorf("Money(%v).String() = %q, want %q", float64(tt.in), got, tt.want)
		}
	}
}

func TestPenaltyRate(t *testing.T) {
	rate := PerHour(50_000)
	if got := rate.Over(2 * time.Hour); math.Abs(float64(got)-100_000) > 1e-6 {
		t.Errorf("2h at $50k/hr = %v, want $100k", got)
	}
	if got := rate.DollarsPerHour(); math.Abs(got-50_000) > 1e-9 {
		t.Errorf("DollarsPerHour = %v", got)
	}
	if got := rate.Over(Forever); !math.IsInf(float64(got), 1) {
		t.Errorf("penalty over Forever = %v, want +Inf", got)
	}
}

func TestParseByteSize(t *testing.T) {
	tests := []struct {
		in      string
		want    ByteSize
		wantErr bool
	}{
		{"1360GB", 1360 * GB, false},
		{"73 GB", 73 * GB, false},
		{"400gb", 400 * GB, false},
		{"1.5TB", 1.5 * TB, false},
		{"512B", 512 * Byte, false},
		{"727KB", 727 * KB, false},
		{"5kb", 5 * KB, false},
		{" 73 gB ", 73 * GB, false},
		{"2Pb", 2 * PB, false},
		{"", 0, true},
		{"12", 0, true},
		{"GB", 0, true},
		{"x12GB", 0, true},
		{"NaNGB", 0, true},
		{"nanKB", 0, true},
		{"InfGB", 0, true},
		{"-infinityTB", 0, true},
		{"1e308PB", 0, true},
	}
	for _, tt := range tests {
		got, err := ParseByteSize(tt.in)
		if (err != nil) != tt.wantErr {
			t.Errorf("ParseByteSize(%q) error = %v, wantErr %v", tt.in, err, tt.wantErr)
			continue
		}
		if !tt.wantErr && got != tt.want {
			t.Errorf("ParseByteSize(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestParseRate(t *testing.T) {
	tests := []struct {
		in      string
		want    Rate
		wantErr bool
	}{
		{"799KB/s", 799 * KBPerSec, false},
		{"25 MB/s", 25 * MBPerSec, false},
		{"60MB/s", 60 * MBPerSec, false},
		{"1028KB/s", 1028 * KBPerSec, false},
		{"5Kb/S", 5 * KBPerSec, false},
		{"5kb/s", 5 * KBPerSec, false},
		{" 3 gB/S ", 3 * GBPerSec, false},
		{"10MB", 0, true},
		{"10MB\\s", 0, true},
		{"", 0, true},
		{"NaNMB/s", 0, true},
		{"+Inf KB/s", 0, true},
	}
	for _, tt := range tests {
		got, err := ParseRate(tt.in)
		if (err != nil) != tt.wantErr {
			t.Errorf("ParseRate(%q) error = %v, wantErr %v", tt.in, err, tt.wantErr)
			continue
		}
		if !tt.wantErr && got != tt.want {
			t.Errorf("ParseRate(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestParseDuration(t *testing.T) {
	tests := []struct {
		in      string
		want    time.Duration
		wantErr bool
	}{
		{"12h", 12 * time.Hour, false},
		{"2d", 2 * Day, false},
		{"1wk", Week, false},
		{"4wk", 4 * Week, false},
		{"4wk12h", 4*Week + 12*time.Hour, false},
		{"3yr", 3 * Year, false},
		{"1w", Week, false},
		{"1y", Year, false},
		{"48h", 48 * time.Hour, false},
		{"1m", time.Minute, false}, // stdlib minute is preserved
		{"1min", time.Minute, false},
		{"5min", 5 * time.Minute, false},
		{"30s", 30 * time.Second, false},
		{"200yr", 200 * Year, false},
		{"1000000s", 1000000 * time.Second, false},
		{"0.00001h", 36 * time.Millisecond, false},
		{"", 0, true},
		{"abc", 0, true},
		{"12", 0, true},
	}
	for _, tt := range tests {
		got, err := ParseDuration(tt.in)
		if (err != nil) != tt.wantErr {
			t.Errorf("ParseDuration(%q) error = %v, wantErr %v", tt.in, err, tt.wantErr)
			continue
		}
		if !tt.wantErr && got != tt.want {
			t.Errorf("ParseDuration(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestFormatDuration(t *testing.T) {
	tests := []struct {
		in   time.Duration
		want string
	}{
		{0, "0h"},
		{12 * time.Hour, "12h"},
		{2 * Day, "2d"},
		{Week, "1wk"},
		{4*Week + 12*time.Hour, "4wk12h"},
		{3 * Year, "3yr"},
		{Forever, "forever"},
		{-12 * time.Hour, "-12h"},
		{90 * time.Minute, "1h30min"},
		{time.Minute, "1min"},
		{30 * time.Second, "30s"},
		{90 * time.Second, "1.5min"},
		{-30 * time.Second, "-30s"},
		{45 * time.Minute, "45min"},
		{72 * time.Second, "1.2min"},
		{2051 * time.Second, "34min11s"},
		{-2051 * time.Second, "-34min11s"},
		{time.Hour + time.Nanosecond, "1h0.000000001s"},
		{50 * time.Microsecond, "0.00005s"},
		{12*time.Minute + 54901667260*time.Nanosecond, "12min54.90166726s"},
		{-(4*Week + 90*time.Second + 250*time.Millisecond), "-4wk1min30.25s"},
	}
	for _, tt := range tests {
		if got := FormatDuration(tt.in); got != tt.want {
			t.Errorf("FormatDuration(%v) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

// Property: FormatDuration output reparses to the same duration for any
// duration below Forever in magnitude. The shift spreads the magnitudes
// from nanoseconds to centuries.
func TestFormatParseRoundTrip(t *testing.T) {
	f := func(ns int64, shift uint8) bool {
		d := time.Duration(ns >> (shift % 64))
		if d <= -Forever || d >= Forever {
			return true
		}
		s := FormatDuration(d)
		got, err := ParseDuration(s)
		if err != nil {
			t.Logf("%v formats as %q: %v", d, s, err)
			return false
		}
		return got == d
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10000}); err != nil {
		t.Error(err)
	}
}

// Property: Div and Over are inverse operations within float tolerance.
func TestDivOverInverse(t *testing.T) {
	f := func(mb uint16, mbps uint8) bool {
		if mbps == 0 {
			return true
		}
		size := ByteSize(mb) * MB
		rate := Rate(mbps) * MBPerSec
		d := Div(size, rate)
		back := rate.Over(d)
		return math.Abs(float64(back-size)) <= 1 // within one byte
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: ByteSize parsing of formatted values is close to identity (the
// formatter rounds to one decimal place).
func TestByteSizeStringParseApprox(t *testing.T) {
	f := func(gb uint16) bool {
		size := ByteSize(gb) * GB
		parsed, err := ParseByteSize(size.String())
		if err != nil {
			return false
		}
		diff := math.Abs(float64(parsed - size))
		return diff <= 0.05*math.Max(float64(size), 1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMoneyStringSpecials(t *testing.T) {
	if got := Money(math.Inf(1)).String(); got != "unbounded" {
		t.Errorf("inf money = %q", got)
	}
	if got := Money(math.Inf(-1)).String(); got != "-unbounded" {
		t.Errorf("-inf money = %q", got)
	}
	if got := Money(math.NaN()).String(); got != "NaN" {
		t.Errorf("nan money = %q", got)
	}
}

// referenceParseDuration is ParseDuration as first written: each
// component re-formatted in time.ParseDuration's units, the calendar
// units as hours, and the joined string parsed by time.ParseDuration.
// Its %g is replaced by 'f' formatting, which prints the same digits
// wherever %g prints no exponent.
func referenceParseDuration(s string) (time.Duration, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, errEmpty
	}
	replacements := []struct {
		unit   string
		factor float64
		out    string
	}{
		{"yr", Year.Hours(), "h"}, {"y", Year.Hours(), "h"},
		{"wk", Week.Hours(), "h"}, {"w", Week.Hours(), "h"},
		{"d", Day.Hours(), "h"},
		{"min", 1, "m"},
	}
	var out strings.Builder
	rest := s
	for rest != "" {
		num, unit, tail, err := nextDurationComponent(rest)
		if err != nil {
			return 0, err
		}
		rest = tail
		lower := strings.ToLower(unit)
		replaced := false
		for _, rep := range replacements {
			if lower == rep.unit {
				out.WriteString(strconv.FormatFloat(num*rep.factor, 'f', -1, 64) + rep.out)
				replaced = true
				break
			}
		}
		if !replaced {
			out.WriteString(strconv.FormatFloat(num, 'f', -1, 64) + unit)
		}
	}
	return time.ParseDuration(out.String())
}

// FuzzParseDuration checks ParseDuration against the reference: the same
// value on every input, and an error exactly where the reference errors.
func FuzzParseDuration(f *testing.F) {
	for _, s := range []string{
		"12h", "2d", "4wk12h", "3yr", "1.2min", "34min11s", "0h", "-1h30m",
		"1h+30m", "1h-30m", "-0h5m", "200yr", "1000000s", "0.00001h",
		"1.5D", "1MIN", "1H", "5µs", "2μs", "3us", "7ns", "1.000000001ms",
		"9223372036854775807ns", "-9223372036854775808ns", "2562047h47m16.854775807s",
		"1e5h", "1.2.3h", ".5h", "5.h", "1h 30m", " 2wk ",
		"0.1d", "106751.99116730064d", "15250.28445247152wk",
		// Whole-number components, converted without formatting digits.
		"8736h", "4wk12h", "3yr", "2562047h", "2562048h", "9007199254740991ns",
		"9007199254740992ns", "1W\u212a", "1m\u0130n", "1YR", "2Wk",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, err := ParseDuration(s)
		want, werr := referenceParseDuration(s)
		if (err != nil) != (werr != nil) {
			t.Fatalf("ParseDuration(%q) = %v, %v; reference %v, %v", s, got, err, want, werr)
		}
		if err == nil && got != want {
			t.Fatalf("ParseDuration(%q) = %v, reference %v", s, got, want)
		}
	})
}

// referenceParseByteSize and referenceParseRate are ParseByteSize and
// ParseRate as first written: the unit suffix matched on a
// strings.ToUpper copy of the input, and the number taken from it.
func referenceParseByteSize(s string) (ByteSize, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, errEmpty
	}
	upper := strings.ToUpper(s)
	for _, sf := range sizeSuffixes {
		if !strings.HasSuffix(upper, sf.suffix) {
			continue
		}
		num := strings.TrimSpace(upper[:len(upper)-len(sf.suffix)])
		v, err := strconv.ParseFloat(num, 64)
		if err != nil {
			return 0, fmt.Errorf("units: bad size %q: %w", s, err)
		}
		b := ByteSize(v) * sf.unit
		if math.IsNaN(float64(b)) || math.IsInf(float64(b), 0) {
			return 0, fmt.Errorf("units: size %q is not finite", s)
		}
		return b, nil
	}
	return 0, fmt.Errorf("units: size %q has no recognized unit suffix", s)
}

func referenceParseRate(s string) (Rate, error) {
	s = strings.TrimSpace(s)
	upper := strings.ToUpper(s)
	if !strings.HasSuffix(upper, "/S") {
		return 0, fmt.Errorf("units: rate %q must end in /s", s)
	}
	size, err := referenceParseByteSize(s[:len(s)-2])
	if err != nil {
		return 0, fmt.Errorf("units: bad rate %q: %w", s, err)
	}
	return Rate(size), nil
}

// FuzzParseByteSize checks ParseByteSize and ParseRate against the
// references: the same value on every input, and an error exactly where
// the reference errors. The error texts may differ: ParseFloat's quotes
// the number as written, where the reference quoted its upper-case copy.
func FuzzParseByteSize(f *testing.F) {
	for _, s := range []string{
		"1360GB", "73 GB", "400gb", "1.5TB", "512B", "727KB", "5kb", " 73 gB ",
		"799KB/s", "25 MB/s", "5Kb/S", "1.00390625MB/s", "19.375MB/s",
		"", "12", "GB", "x12GB", "NaNGB", "nanKB", "InfGB", "-infinityTB",
		"1e308PB", "0x1p-2KB", "0X1P-2kb", "1_000GB", "1E3mb/S", "b", "/s",
		"5KB/\u017f", "\u0131nfGB", "\u0131nf KB/s", "73\u00a0GB", "\xff5GB", "5KB/\xffs",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, err := ParseByteSize(s)
		want, werr := referenceParseByteSize(s)
		if (err != nil) != (werr != nil) || math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
			t.Fatalf("ParseByteSize(%q) = %v, %v; reference %v, %v", s, got, err, want, werr)
		}
		rate, err := ParseRate(s)
		wantRate, werr := referenceParseRate(s)
		if (err != nil) != (werr != nil) || math.Float64bits(float64(rate)) != math.Float64bits(float64(wantRate)) {
			t.Fatalf("ParseRate(%q) = %v, %v; reference %v, %v", s, rate, err, wantRate, werr)
		}
	})
}
