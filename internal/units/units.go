// Package units provides the dimensioned quantities used throughout the
// dependability modeling framework: byte sizes, transfer rates, money and
// calendar durations (weeks, years). All model inputs in Table 1 of the
// paper are expressed in these units.
//
// The paper mixes decimal prefixes loosely; we standardize on binary
// multiples (1 KB = 1024 B) because that convention reproduces the
// case-study arithmetic (e.g. 12.4 MB/s total array bandwidth in Table 5).
package units

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// ByteSize is a data size in bytes. Sizes in the framework describe data
// capacities, retrieval-point sizes and recovery sizes; they are always
// non-negative.
type ByteSize float64

// Byte size constants using binary multiples.
const (
	Byte ByteSize = 1 << (10 * iota)
	KB
	MB
	GB
	TB
	PB
)

// Bytes returns the size as a float64 number of bytes.
func (b ByteSize) Bytes() float64 { return float64(b) }

// GBytes returns the size expressed in gigabytes (2^30 bytes); several of
// the paper's cost models are per-GB.
func (b ByteSize) GBytes() float64 { return float64(b / GB) }

// String renders the size with the largest prefix that keeps the mantissa
// at or above one, e.g. "1360.0GB".
func (b ByteSize) String() string {
	switch {
	case math.IsNaN(float64(b)):
		return "NaN"
	case b < 0:
		return "-" + (-b).String()
	case b >= PB:
		return fmt.Sprintf("%.1fPB", float64(b/PB))
	case b >= TB:
		return fmt.Sprintf("%.1fTB", float64(b/TB))
	case b >= GB:
		return fmt.Sprintf("%.1fGB", float64(b/GB))
	case b >= MB:
		return fmt.Sprintf("%.1fMB", float64(b/MB))
	case b >= KB:
		return fmt.Sprintf("%.1fKB", float64(b/KB))
	default:
		return fmt.Sprintf("%.0fB", float64(b))
	}
}

// Rate is a data transfer rate in bytes per second. Rates describe device
// bandwidths, workload access/update rates and link speeds.
type Rate float64

// Common rate constants.
const (
	BytePerSec Rate = 1 << (10 * iota)
	KBPerSec
	MBPerSec
	GBPerSec
)

// MBPS returns the rate expressed in MB/s (2^20 bytes per second); several
// of the paper's cost models are per-MB/s.
func (r Rate) MBPS() float64 { return float64(r / MBPerSec) }

// String renders the rate with the largest prefix that keeps the mantissa
// at or above one, e.g. "8.1MB/s".
func (r Rate) String() string {
	switch {
	case math.IsNaN(float64(r)):
		return "NaN"
	case r < 0:
		return "-" + (-r).String()
	case r >= GBPerSec:
		return fmt.Sprintf("%.1fGB/s", float64(r/GBPerSec))
	case r >= MBPerSec:
		return fmt.Sprintf("%.1fMB/s", float64(r/MBPerSec))
	case r >= KBPerSec:
		return fmt.Sprintf("%.1fKB/s", float64(r/KBPerSec))
	default:
		return fmt.Sprintf("%.1fB/s", float64(r))
	}
}

// Over returns the volume of data transferred at rate r for duration d.
func (r Rate) Over(d time.Duration) ByteSize {
	return ByteSize(float64(r) * d.Seconds())
}

// Div divides a size by a rate, yielding the transfer duration. Dividing by
// a zero or negative rate returns an infinite duration, which the recovery
// model treats as "this path cannot transfer data".
func Div(b ByteSize, r Rate) time.Duration {
	if r <= 0 {
		return Forever
	}
	secs := float64(b) / float64(r)
	if secs >= math.MaxInt64/float64(time.Second) {
		return Forever
	}
	return time.Duration(secs * float64(time.Second))
}

// RateOf returns the rate that transfers b in d. A non-positive duration
// yields +Inf, representing an instantaneous transfer requirement.
func RateOf(b ByteSize, d time.Duration) Rate {
	if d <= 0 {
		return Rate(math.Inf(1))
	}
	return Rate(float64(b) / d.Seconds())
}

// Calendar durations. The paper specifies policy windows in hours, days,
// weeks and years (e.g. vault retention of three years); time.Duration has
// no constants above Hour.
const (
	Day  = 24 * time.Hour
	Week = 7 * Day
	// Year is 52 weeks, matching the paper's "4-week cycle, retCnt 39 ≈
	// 3 years" arithmetic (39 × 4 weeks = 156 weeks = 3 × 52 weeks).
	Year = 52 * Week
	// Forever is the sentinel for an unbounded duration (e.g. the recovery
	// time of an unrecoverable design).
	Forever = time.Duration(math.MaxInt64)
)

// Hours returns d expressed in (possibly fractional) hours.
func Hours(d time.Duration) float64 { return d.Hours() }

// Money is an amount of US dollars, stored as floating-point dollars. The
// framework deals in annualized outlays and penalties in the $10^4..$10^8
// range, where float64 precision (15-16 significant digits) is ample.
type Money float64

// String renders the amount as dollars, switching to $x.xxM above one
// million to match the paper's tables.
func (m Money) String() string {
	switch {
	case math.IsInf(float64(m), 1):
		return "unbounded"
	case math.IsNaN(float64(m)):
		return "NaN"
	case m < 0:
		return "-" + (-m).String()
	case m >= 1e6:
		return fmt.Sprintf("$%.2fM", float64(m)/1e6)
	case m >= 1e3:
		return fmt.Sprintf("$%.1fK", float64(m)/1e3)
	default:
		return fmt.Sprintf("$%.2f", float64(m))
	}
}

// PenaltyRate is a cost accrual per unit time (US dollars per second), used
// for the data-unavailability and recent-data-loss penalty rates of §3.1.2.
type PenaltyRate float64

// PerHour constructs a PenaltyRate from a dollars-per-hour figure, the
// granularity used in the paper ($50,000/hr in the case study).
func PerHour(dollars float64) PenaltyRate {
	return PenaltyRate(dollars / time.Hour.Seconds())
}

// Over returns the penalty accrued over duration d. An infinite duration
// (unrecoverable) yields +Inf dollars.
func (p PenaltyRate) Over(d time.Duration) Money {
	if d == Forever {
		return Money(math.Inf(1))
	}
	return Money(float64(p) * d.Seconds())
}

// DollarsPerHour returns the rate in dollars per hour.
func (p PenaltyRate) DollarsPerHour() float64 {
	return float64(p) * time.Hour.Seconds()
}

// Parsing -------------------------------------------------------------------

var errEmpty = errors.New("units: empty quantity")

// suffixes must be checked longest-first so "KB/s" does not match "B/s"
// against the wrong prefix value.
var sizeSuffixes = []struct {
	suffix string
	unit   ByteSize
}{
	{"PB", PB}, {"TB", TB}, {"GB", GB}, {"MB", MB}, {"KB", KB}, {"B", Byte},
}

// ParseByteSize parses strings such as "1360GB", "73 GB", "1.5TB" or "512B".
// Unit suffixes are case-insensitive; binary multiples are used. A size
// that is not finite, such as "NaNGB" or "InfTB", is an error.
func ParseByteSize(s string) (ByteSize, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, errEmpty
	}
	for _, sf := range sizeSuffixes {
		if !hasSuffixFold(s, sf.suffix) {
			continue
		}
		num := strings.TrimSpace(s[:len(s)-len(sf.suffix)])
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

// ParseRate parses strings such as "799KB/s", "25 MB/s" or "1.5GB/s".
func ParseRate(s string) (Rate, error) {
	s = strings.TrimSpace(s)
	if !hasSuffixFold(s, "/S") {
		return 0, fmt.Errorf("units: rate %q must end in /s", s)
	}
	size, err := ParseByteSize(s[:len(s)-2])
	if err != nil {
		return 0, fmt.Errorf("units: bad rate %q: %w", s, err)
	}
	return Rate(size), nil
}

// hasSuffixFold reports whether s ends in suffix, an upper-case ASCII
// string, with its letters in either case. It matches in place what
// strings.HasSuffix(strings.ToUpper(s), suffix) matches, except where a
// non-ASCII rune upper-cases to an ASCII letter ("\u017f" to "S"); no
// such input parses either way.
func hasSuffixFold(s, suffix string) bool {
	if len(s) < len(suffix) {
		return false
	}
	tail := s[len(s)-len(suffix):]
	for i := 0; i < len(suffix); i++ {
		c := tail[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		if c != suffix[i] {
			return false
		}
	}
	return true
}

// ParseDuration parses time.ParseDuration syntax extended with day ("d"),
// week ("w" or "wk") and year ("y" or "yr") units, e.g. "12h", "2d", "4wk",
// "3yr", "4wk12h". Units may be chained just as in time.ParseDuration.
//
// Each component is read as a float64, scaled to hours for the calendar
// units and counted in minutes for "min", and converted to nanoseconds as
// time.ParseDuration converts that scaled number's shortest decimal
// digits: the integer digits exactly and the fraction through float64,
// with its overflow rules. Only the first component may be negative.
func ParseDuration(s string) (time.Duration, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, errEmpty
	}
	var (
		d   uint64
		neg bool
		buf [32]byte
	)
	for rest := s; rest != ""; {
		num, unit, tail, err := nextDurationComponent(rest)
		if err != nil {
			return 0, fmt.Errorf("units: bad duration %q: %w", s, err)
		}
		factor, ns, ok := durationUnit(unit)
		if !ok {
			return 0, fmt.Errorf("units: bad duration %q: unknown unit %q", s, unit)
		}
		x := num * factor
		if math.Signbit(x) {
			// Only the first component, at the start of s, takes a sign.
			if rest != s {
				return 0, fmt.Errorf("units: bad duration %q: only the first component may be negative", s)
			}
			neg, x = true, -x
		}
		rest = tail
		// The shortest decimal of a float64 at or above 2^63 has an
		// integer part above 2^63, which overflows; below it, one that
		// fits. Rejecting it here spares formatting up to 309 digits.
		if x >= 1<<63 {
			return 0, fmt.Errorf("units: duration %q out of range", s)
		}
		var v uint64
		if n := uint64(x); x < 1<<53 && float64(n) == x {
			// A whole number below 2^53 is its own shortest decimal,
			// all integer digits: decimalNanos's value and overflow
			// check without the round trip through its digits.
			v, ok = n*ns, n <= 1<<63/ns
		} else {
			v, ok = decimalNanos(strconv.AppendFloat(buf[:0], x, 'f', -1, 64), ns)
		}
		if d += v; !ok || d > 1<<63 {
			return 0, fmt.Errorf("units: duration %q out of range", s)
		}
	}
	if neg {
		return -time.Duration(d), nil
	}
	if d > math.MaxInt64 {
		return 0, fmt.Errorf("units: duration %q out of range", s)
	}
	return time.Duration(d), nil
}

// durationUnit returns the factor a component's number is scaled by and
// the nanoseconds in one unit of the scaled number. Calendar units and
// "min" match in any case, time.ParseDuration's own units exactly.
func durationUnit(unit string) (factor float64, ns uint64, ok bool) {
	switch strings.ToLower(unit) {
	case "yr", "y":
		return Year.Hours(), uint64(time.Hour), true
	case "wk", "w":
		return Week.Hours(), uint64(time.Hour), true
	case "d":
		return Day.Hours(), uint64(time.Hour), true
	case "min":
		return 1, uint64(time.Minute), true
	}
	switch unit {
	case "ns":
		return 1, uint64(time.Nanosecond), true
	case "us", "\u00b5s", "\u03bcs": // micro sign and Greek mu, as in time
		return 1, uint64(time.Microsecond), true
	case "ms":
		return 1, uint64(time.Millisecond), true
	case "s":
		return 1, uint64(time.Second), true
	case "m":
		return 1, uint64(time.Minute), true
	case "h":
		return 1, uint64(time.Hour), true
	}
	return 0, 0, false
}

// decimalNanos converts the unsigned decimal digits of a count of units
// of ns nanoseconds as time.ParseDuration does: the integer part must fit
// in 2^63 exactly, the fraction keeps as many digits as fit in a uint64
// and is scaled through float64. It reports false on overflow.
func decimalNanos(digits []byte, ns uint64) (uint64, bool) {
	var v uint64
	i := 0
	for ; i < len(digits) && digits[i] != '.'; i++ {
		if v > 1<<63/10 {
			return 0, false
		}
		if v = v*10 + uint64(digits[i]-'0'); v > 1<<63 {
			return 0, false
		}
	}
	var f uint64
	scale := 1.0
	if i < len(digits) {
		for _, c := range digits[i+1:] {
			if f > (1<<63-1)/10 {
				break
			}
			y := f*10 + uint64(c-'0')
			if y > 1<<63 {
				break
			}
			f, scale = y, scale*10
		}
	}
	if v > 1<<63/ns {
		return 0, false
	}
	v *= ns
	if f > 0 {
		v += uint64(float64(f) * (float64(ns) / scale))
		if v > 1<<63 {
			return 0, false
		}
	}
	return v, true
}

// nextDurationComponent splits the leading "<number><unit>" component off a
// duration string, returning the numeric value, the unit token and the tail.
func nextDurationComponent(s string) (num float64, unit, tail string, err error) {
	i := 0
	if i < len(s) && (s[i] == '+' || s[i] == '-') {
		i++
	}
	start := i
	for i < len(s) && (s[i] == '.' || (s[i] >= '0' && s[i] <= '9')) {
		i++
	}
	if i == start {
		return 0, "", "", fmt.Errorf("missing number at %q", s)
	}
	num, err = strconv.ParseFloat(s[:i], 64)
	if err != nil {
		return 0, "", "", err
	}
	start = i
	for i < len(s) && !(s[i] == '.' || s[i] == '+' || s[i] == '-' || (s[i] >= '0' && s[i] <= '9')) {
		i++
	}
	if i == start {
		return 0, "", "", fmt.Errorf("missing unit at %q", s)
	}
	return num, s[start:i], s[i:], nil
}

// FormatDuration renders a duration compactly in the paper's idiom: "12h",
// "2d", "4wk", "4wk12h", "3yr". It picks the largest calendar unit that
// divides the duration exactly; a sub-hour duration may use fractional
// minutes ("1.5min"), and any other sub-minute remainder is written as
// exact decimal seconds ("1h0.5s"). ParseDuration reads every output
// back exactly.
func FormatDuration(d time.Duration) string {
	if d == Forever {
		return "forever"
	}
	if d == 0 {
		return "0h"
	}
	neg := ""
	if d < 0 {
		neg, d = "-", -d
	}
	// Sub-hour durations use minutes and seconds (policy windows such as a
	// one-minute mirroring batch).
	if d < time.Minute {
		return neg + formatSeconds(d)
	}
	if d < time.Hour {
		if d%time.Minute == 0 {
			return fmt.Sprintf("%s%dmin", neg, d/time.Minute)
		}
		// Fractional minutes ("1.5min") are kept where ParseDuration
		// reads their decimal back as d; elsewhere, such as 2051s,
		// whose 34.18333333333333min reads back a nanosecond short,
		// whole minutes precede the seconds ("34min11s").
		var buf [32]byte
		digits := strconv.AppendFloat(buf[:0], d.Minutes(), 'f', -1, 64)
		if v, ok := decimalNanos(digits, uint64(time.Minute)); ok && v == uint64(d) {
			return neg + string(digits) + "min"
		}
		return fmt.Sprintf("%s%dmin%s", neg, d/time.Minute, formatSeconds(d%time.Minute))
	}
	type unit struct {
		span time.Duration
		name string
	}
	unitsDesc := []unit{
		{Year, "yr"}, {Week, "wk"}, {Day, "d"},
		{time.Hour, "h"}, {time.Minute, "min"},
	}
	var parts []string
	rem := d
	for _, u := range unitsDesc {
		if rem >= u.span && rem%u.span == 0 {
			// The remainder is an exact multiple: finish with one unit
			// ("12h", "4wk12h").
			parts = append(parts, fmt.Sprintf("%d%s", rem/u.span, u.name))
			rem = 0
			break
		}
		if n := rem / u.span; n > 0 {
			parts = append(parts, fmt.Sprintf("%d%s", n, u.name))
			rem -= n * u.span
		}
	}
	if rem > 0 {
		parts = append(parts, formatSeconds(rem))
	}
	return neg + strings.Join(parts, "")
}

// formatSeconds writes a non-negative duration below one minute as exact
// decimal seconds: whole seconds, then up to nine fractional digits with
// trailing zeros trimmed ("30s", "54.90166726s", "0.000000001s").
func formatSeconds(d time.Duration) string {
	s := strconv.FormatInt(int64(d/time.Second), 10)
	if frac := d % time.Second; frac != 0 {
		s += strings.TrimRight(fmt.Sprintf(".%09d", frac), "0")
	}
	return s + "s"
}
