// Package hierarchy models the primary and secondary data copies as a
// hierarchy of levels (§3.2 of the paper). Level 0 is the primary copy;
// each higher level is a data protection technique that receives retrieval
// points (RPs) from the level below it, retains some number of them, and
// propagates RPs onward.
//
// The package implements the retrieval-point propagation math of §3.3.2
// (Figure 3): how out-of-date each level is relative to the primary copy,
// and what range of points in time is *guaranteed* to be recoverable from
// each level — the inputs to the worst-case data-loss and recovery-time
// models.
package hierarchy

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"stordep/internal/units"
)

// Representation describes how an RP is stored or transmitted (copyRep /
// propRep in Table 1).
type Representation int

// Representations.
const (
	// RepFull is a complete copy of the data object.
	RepFull Representation = iota + 1
	// RepPartial contains only updates since a reference point (an
	// incremental backup, a copy-on-write snapshot delta).
	RepPartial
)

// String returns the representation name.
func (r Representation) String() string {
	switch r {
	case RepFull:
		return "full"
	case RepPartial:
		return "partial"
	default:
		return fmt.Sprintf("Representation(%d)", int(r))
	}
}

// WindowSet groups the timing parameters of one RP stream: a new RP is
// accumulated every AccW, held for HoldW after its window closes, then
// transferred during PropW (§3.2.1).
type WindowSet struct {
	AccW  time.Duration
	PropW time.Duration
	HoldW time.Duration
	Rep   Representation
}

// TransferLag is the delay an RP experiences between its accumulation
// window closing and its availability at the receiving level: holdW +
// propW.
func (w WindowSet) TransferLag() time.Duration { return w.HoldW + w.PropW }

// Policy is the full configuration of one hierarchy level's RP management.
//
// A simple policy (split mirror, vaulting, full-only backup) uses just the
// Primary window set. A cyclic policy (weekly fulls + daily cumulative
// incrementals) adds a Secondary window set that fires CycleCnt times per
// cycle between primary windows.
type Policy struct {
	// Primary is the main RP stream (e.g. full backups).
	Primary WindowSet
	// Secondary, if non-nil, is the more-frequent partial stream (e.g.
	// cumulative incrementals); CycleCnt gives how many secondary windows
	// occur between consecutive primary windows.
	Secondary *WindowSet
	CycleCnt  int

	// RetCnt is the number of cycles of RPs retained simultaneously; RetW
	// is how long a particular RP is retained.
	RetCnt int
	RetW   time.Duration

	// CopyRep is the retained representation.
	CopyRep Representation
}

// Clone returns a deep copy of the policy. The Secondary window set is
// the only pointer field; everything else is value-copied.
func (p Policy) Clone() Policy {
	out := p
	if p.Secondary != nil {
		s := *p.Secondary
		out.Secondary = &s
	}
	return out
}

// Equal reports whether two policies are deeply equal: every value field
// matches and the Secondary window sets are both nil or equal. It is the
// allocation-free equivalent of reflect.DeepEqual on two policies.
func (p *Policy) Equal(q *Policy) bool {
	if p.Primary != q.Primary || p.CycleCnt != q.CycleCnt ||
		p.RetCnt != q.RetCnt || p.RetW != q.RetW || p.CopyRep != q.CopyRep {
		return false
	}
	if (p.Secondary == nil) != (q.Secondary == nil) {
		return false
	}
	return p.Secondary == nil || *p.Secondary == *q.Secondary
}

// CyclePeriod returns cyclePer: the length of one complete policy cycle.
// For a simple policy this is the primary accumulation window; for a
// cyclic policy it is the primary window plus CycleCnt secondary windows.
func (p Policy) CyclePeriod() time.Duration {
	per := p.Primary.AccW
	if p.Secondary != nil {
		per += time.Duration(p.CycleCnt) * p.Secondary.AccW
	}
	return per
}

// EffectiveAccW returns the worst-case gap between consecutive RP
// creations once the level is in steady state: the secondary accumulation
// window when one exists (RPs then arrive every secondary window), else
// the primary accumulation window.
func (p Policy) EffectiveAccW() time.Duration {
	if p.Secondary != nil {
		return p.Secondary.AccW
	}
	return p.Primary.AccW
}

// TransferLag returns the worst-case hold + propagation delay for this
// level. With a secondary stream, the slower of the two streams bounds the
// worst case (a full backup's 48-hour window dominates an incremental's
// 12-hour one in the paper's F+I scenario, reproducing Table 7's 73-hour
// loss).
func (p Policy) TransferLag() time.Duration {
	lag := p.Primary.TransferLag()
	if p.Secondary != nil && p.Secondary.TransferLag() > lag {
		lag = p.Secondary.TransferLag()
	}
	return lag
}

// RetentionSpan returns the range of time covered by retained RPs:
// (retCnt - 1) x cyclePer (§3.3.2).
func (p Policy) RetentionSpan() time.Duration {
	if p.RetCnt <= 1 {
		return 0
	}
	return time.Duration(p.RetCnt-1) * p.CyclePeriod()
}

// Policy validation errors.
var (
	ErrNoRetention  = errors.New("hierarchy: retention count must be at least 1")
	ErrBadWindows   = errors.New("hierarchy: windows must be non-negative and accW positive")
	ErrPropExceeds  = errors.New("hierarchy: propW must not exceed accW (data flow conservation)")
	ErrBadCycle     = errors.New("hierarchy: cyclic policy needs positive cycleCnt and secondary windows")
	ErrBadRep       = errors.New("hierarchy: unknown representation")
	ErrEmptyChain   = errors.New("hierarchy: chain needs at least one level")
	ErrDupLevelName = errors.New("hierarchy: duplicate level name")
	ErrRetWShort    = errors.New("hierarchy: retW shorter than the span implied by retCnt x cyclePer")
)

func validRep(r Representation) bool { return r == RepFull || r == RepPartial }

// Validate checks a policy's internal consistency, enforcing the §3.2.1
// convention propW <= accW ("to maintain the flow of data between the
// levels").
func (p Policy) Validate() error {
	if p.RetCnt < 1 {
		return fmt.Errorf("%w (got %d)", ErrNoRetention, p.RetCnt)
	}
	if !validRep(p.CopyRep) || !validRep(p.Primary.Rep) {
		return ErrBadRep
	}
	if err := validateWindows(p.Primary); err != nil {
		return err
	}
	if p.Secondary != nil {
		if p.CycleCnt < 1 {
			return fmt.Errorf("%w (cycleCnt %d)", ErrBadCycle, p.CycleCnt)
		}
		if !validRep(p.Secondary.Rep) {
			return ErrBadRep
		}
		if err := validateWindows(*p.Secondary); err != nil {
			return err
		}
	} else if p.CycleCnt > 0 {
		return fmt.Errorf("%w (cycleCnt %d without secondary windows)", ErrBadCycle, p.CycleCnt)
	}
	if p.RetW < 0 {
		return fmt.Errorf("%w (retW %v)", ErrBadWindows, p.RetW)
	}
	// A time-based retention window shorter than the count-based span is
	// self-contradictory: the level cannot hold retCnt cycles if RPs
	// expire before the span elapses. RetW == 0 means "count-based only"
	// and is always consistent.
	if p.RetW > 0 && p.RetW < p.RetentionSpan() {
		return fmt.Errorf("%w (retW %v < span %v, retCnt %d x cyclePer %v)",
			ErrRetWShort, p.RetW, p.RetentionSpan(), p.RetCnt, p.CyclePeriod())
	}
	return nil
}

func validateWindows(w WindowSet) error {
	if w.AccW <= 0 || w.PropW < 0 || w.HoldW < 0 {
		return fmt.Errorf("%w (accW %v, propW %v, holdW %v)", ErrBadWindows, w.AccW, w.PropW, w.HoldW)
	}
	if w.PropW > w.AccW {
		return fmt.Errorf("%w (propW %v > accW %v)", ErrPropExceeds, w.PropW, w.AccW)
	}
	return nil
}

// Level is one secondary level of the hierarchy: a named data protection
// technique with its RP policy. Level indices in a Chain start at 1; the
// primary copy (level 0) is implicit and always current.
type Level struct {
	// Name identifies the level ("split-mirror", "tape-backup", ...).
	Name string
	// Policy is the RP management configuration.
	Policy Policy
}

// Chain is an ordered list of secondary levels, nearest (level 1) first.
type Chain []Level

// Validate checks every level and the whole-chain conventions of §3.2.1.
// Violations of the hard rules return errors; the soft conventions
// (monotone retention, accW >= previous cyclePer) are reported by
// Warnings.
func (c Chain) Validate() error {
	if len(c) == 0 {
		return ErrEmptyChain
	}
	for i := range c {
		lvl := &c[i]
		if lvl.Name == "" {
			return fmt.Errorf("hierarchy: level %d has no name", i+1)
		}
		// A chain has a few levels: a scan of the earlier names is the
		// duplicate check.
		for j := range c[:i] {
			if c[j].Name == lvl.Name {
				return fmt.Errorf("%w: %q", ErrDupLevelName, lvl.Name)
			}
		}
		if err := lvl.Policy.Validate(); err != nil {
			return fmt.Errorf("hierarchy: level %d (%s): %w", i+1, lvl.Name, err)
		}
	}
	return nil
}

// Warnings reports violations of the paper's soft conventions: retention
// counts should not decrease with level (retCnt_{i+j} >= retCnt_i), each
// level's accumulation window should cover the previous level's cycle
// (accW_{i+1} >= cyclePer_i), and holdW_i should not exceed the previous
// level's retention window (which otherwise forces extra copies, §3.2.3).
func (c Chain) Warnings() []string {
	var warns []string
	for i := 1; i < len(c); i++ {
		prev, cur := c[i-1], c[i]
		if cur.Policy.RetCnt < prev.Policy.RetCnt {
			warns = append(warns, fmt.Sprintf(
				"level %d (%s) retains fewer cycles (%d) than level %d (%s) (%d)",
				i+1, cur.Name, cur.Policy.RetCnt, i, prev.Name, prev.Policy.RetCnt))
		}
		if cur.Policy.Primary.AccW < prev.Policy.CyclePeriod() {
			warns = append(warns, fmt.Sprintf(
				"level %d (%s) accW %v shorter than level %d (%s) cycle %v",
				i+1, cur.Name, units.FormatDuration(cur.Policy.Primary.AccW),
				i, prev.Name, units.FormatDuration(prev.Policy.CyclePeriod())))
		}
		if prev.Policy.RetW > 0 && cur.Policy.Primary.HoldW > prev.Policy.RetW {
			warns = append(warns, fmt.Sprintf(
				"level %d (%s) holdW %v exceeds level %d (%s) retention %v: extra copy required",
				i+1, cur.Name, units.FormatDuration(cur.Policy.Primary.HoldW),
				i, prev.Name, units.FormatDuration(prev.Policy.RetW)))
		}
	}
	return warns
}

// Index returns the 1-based level index of the named level, or 0 if
// absent.
func (c Chain) Index(name string) int {
	for i, lvl := range c {
		if lvl.Name == name {
			return i + 1
		}
	}
	return 0
}

// CumTransferLag returns the summed hold+propagation lag from the primary
// copy through level j (1-based): sum_{i<=j}(holdW_i + propW_i). This is
// the minimum out-of-dateness of level j, reached just as an RP finishes
// arriving (Figure 3).
func (c Chain) CumTransferLag(j int) time.Duration {
	var sum time.Duration
	for i := 0; i < j && i < len(c); i++ {
		sum += c[i].Policy.TransferLag()
	}
	return sum
}

// MaxLag returns the worst-case out-of-dateness of level j: the cumulative
// transfer lag plus one full accumulation window, reached just before the
// next RP arrives: sum_{i<=j}(holdW_i + propW_i) + accW_j (§3.3.2).
func (c Chain) MaxLag(j int) time.Duration {
	if j < 1 || j > len(c) {
		return 0
	}
	return c.CumTransferLag(j) + c[j-1].Policy.EffectiveAccW()
}

// Range is an interval of *ages* (time before "now"): every point in time
// between now-Oldest and now-Newest is guaranteed recoverable. A zero
// Range is empty.
type Range struct {
	// Oldest is the age of the oldest guaranteed RP (the larger number).
	Oldest time.Duration
	// Newest is the age of the newest guaranteed RP (the smaller number).
	Newest time.Duration
}

// Empty reports whether the range guarantees no RPs at all: either the
// zero Range, or an inverted interval (retention too short to bridge the
// propagation lag, so an RP may expire before the next one arrives).
func (r Range) Empty() bool {
	if r == (Range{}) {
		return true
	}
	return r.Oldest < r.Newest
}

// Contains reports whether a recovery target of the given age falls in
// the guaranteed range.
func (r Range) Contains(age time.Duration) bool {
	return !r.Empty() && age >= r.Newest && age <= r.Oldest
}

// String renders the range in the paper's notation.
func (r Range) String() string {
	if r.Empty() {
		return "[empty]"
	}
	return fmt.Sprintf("[now-%s .. now-%s]",
		units.FormatDuration(r.Oldest), units.FormatDuration(r.Newest))
}

// GuaranteedRange returns the range of time guaranteed to be present at
// level j (Figure 3):
//
//	[(now - ((retCnt_j-1) x cyclePer_j + sum(holdW+propW))) ..
//	 (now - (sum(holdW+propW) + accW_j))]
func (c Chain) GuaranteedRange(j int) Range {
	if j < 1 || j > len(c) {
		return Range{}
	}
	lag := c.CumTransferLag(j)
	pol := c[j-1].Policy
	return Range{
		Oldest: pol.RetentionSpan() + lag,
		Newest: lag + pol.EffectiveAccW(),
	}
}

// Match classifies how a level's guaranteed range relates to a recovery
// target (the three cases of §3.3.3).
type Match int

// Match cases.
const (
	// MatchTooRecent: the target postdates every RP guaranteed at the
	// level; loss is the level's worst-case lag.
	MatchTooRecent Match = iota + 1
	// MatchCovered: an RP for the target has propagated and is retained;
	// loss is one accumulation window.
	MatchCovered
	// MatchTooOld: the target predates retention; the level cannot serve
	// the recovery.
	MatchTooOld
)

// String returns the match case name.
func (m Match) String() string {
	switch m {
	case MatchTooRecent:
		return "too-recent"
	case MatchCovered:
		return "covered"
	case MatchTooOld:
		return "too-old"
	default:
		return fmt.Sprintf("Match(%d)", int(m))
	}
}

// Classify determines which §3.3.3 case applies for a recovery target of
// the given age at level j. A level whose guaranteed range is empty (its
// retention cannot bridge its propagation lag) is conservatively reported
// as too old: no RP is guaranteed present at failure time.
func (c Chain) Classify(j int, targetAge time.Duration) Match {
	r := c.GuaranteedRange(j)
	switch {
	case r.Empty():
		return MatchTooOld
	case targetAge < r.Newest:
		return MatchTooRecent
	case targetAge > r.Oldest:
		return MatchTooOld
	default:
		return MatchCovered
	}
}

// WorstCaseLoss returns the worst-case recent data loss if level j serves
// a recovery to a target of the given age (§3.3.3). The third case (target
// too old) returns ok=false: the level cannot serve the recovery and the
// loss is the whole object.
func (c Chain) WorstCaseLoss(j int, targetAge time.Duration) (loss time.Duration, ok bool) {
	switch c.Classify(j, targetAge) {
	case MatchTooRecent:
		return c.MaxLag(j), true
	case MatchCovered:
		return c[j-1].Policy.EffectiveAccW(), true
	default:
		return 0, false
	}
}

// String renders the chain as "primary <- name1 <- name2 ...".
func (c Chain) String() string {
	names := make([]string, 0, len(c)+1)
	names = append(names, "primary")
	for _, lvl := range c {
		names = append(names, lvl.Name)
	}
	return strings.Join(names, " <- ")
}
