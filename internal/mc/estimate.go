package mc

import (
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"time"

	"stordep/internal/core"
	"stordep/internal/units"
)

// z95 is the two-sided 95% normal quantile used for every interval.
const z95 = 1.959963984540054

// Estimate is one dependability metric with its 95% confidence
// interval, as fractions in [0, 1].
type Estimate struct {
	Value float64 `json:"value"`
	Lo    float64 `json:"lo"`
	Hi    float64 `json:"hi"`
}

// Nines converts a fraction to "nines": -log10(1 - v). A fraction of
// exactly 1 (no observed failure mass) is +Inf — rendered as the
// one-sided limit the sample size supports, via the interval bounds.
func Nines(v float64) float64 {
	if v >= 1 {
		return math.Inf(1)
	}
	n := -math.Log10(1 - v)
	if n == 0 {
		return 0 // normalize -0 (v == 0) so reports never print "-0.00"
	}
	return n
}

// Nines returns the point estimate in nines.
func (e Estimate) Nines() float64 { return Nines(e.Value) }

// Report is one campaign's aggregated dependability estimate.
type Report struct {
	Design  string        `json:"design"`
	Seed    int64         `json:"seed"`
	Trials  int           `json:"trials"`
	Mission time.Duration `json:"mission"`
	// Events is the total failure events processed; Lost counts trials
	// that ended in an unrecoverable event.
	Events int `json:"events"`
	Lost   int `json:"lost"`
	// Availability is the fraction of mission time the service was up
	// (normal CI over per-trial fractions). Durability is the fraction
	// of trials whose data survived the mission (Wilson CI).
	// PerfAvailability is the fraction of mission time the service was
	// up *and* protection was not degraded — conservatively, degraded
	// time and downtime are summed, so it is a lower bound.
	Availability     Estimate `json:"availability"`
	Durability       Estimate `json:"durability"`
	PerfAvailability Estimate `json:"perfAvailability"`
	// MeanDowntime and MeanLoss are per-trial means over the mission.
	MeanDowntime time.Duration `json:"meanDowntime"`
	MeanLoss     time.Duration `json:"meanLoss"`
	// Outlay is the design's annual outlay (analytic, no sampling
	// error). PenaltyMean/PenaltyStdErr are the annualized expected
	// penalty cost and its standard error; ExpectedCost = Outlay +
	// PenaltyMean is what the expected-cost optimizer objective scores.
	Outlay        units.Money `json:"outlay"`
	PenaltyMean   float64     `json:"penaltyMean"`
	PenaltyStdErr float64     `json:"penaltyStdErr"`
	// Cross-model invariant ledger summed over trials.
	BoundChecks     int `json:"boundChecks"`
	BoundSkips      int `json:"boundSkips"`
	BoundViolations int `json:"boundViolations"`
	// Operator-fault and correlated-event ledger summed over trials
	// (all zero when Campaign.Op is disabled).
	CorrEvents int `json:"corrEvents"`
	OpEvents   int `json:"opEvents"`
	OpDetected int `json:"opDetected"`
	OpEscapes  int `json:"opEscapes"`
	// AvailabilityExOp is availability with operator-attributed downtime
	// excluded: the operator-fault contribution to the nines is the gap
	// between Availability and this estimate.
	AvailabilityExOp Estimate `json:"availabilityExOp"`
	// MeanOpDowntime and MeanOpLoss are the per-trial means of the
	// operator-attributed downtime and loss shares.
	MeanOpDowntime time.Duration `json:"meanOpDowntime"`
	MeanOpLoss     time.Duration `json:"meanOpLoss"`
	// Digest fingerprints the full observation sequence in trial order;
	// equal digests mean byte-identical campaigns.
	Digest uint64 `json:"digest"`
}

// ExpectedCost returns the expected annual cost: outlay plus expected
// annualized penalties.
func (r *Report) ExpectedCost() units.Money {
	return r.Outlay + units.Money(r.PenaltyMean)
}

// Estimate folds observations (in trial order) into a Report. The fold
// is strictly sequential, so the result is byte-identical no matter how
// many workers or shards produced the observations.
func (c *Campaign) Estimate(obs []Obs) (*Report, error) {
	if len(obs) == 0 {
		return nil, fmt.Errorf("%w: no observations", ErrBadTrials)
	}
	sys, err := c.build()
	if err != nil {
		return nil, err
	}
	defer releaseSystem(sys)
	return c.estimate(sys, obs)
}

// estimate is Estimate over sys, the campaign's built design, for a
// non-empty observation list.
func (c *Campaign) estimate(sys *core.System, obs []Obs) (*Report, error) {
	var err error
	n := len(obs)
	rep := &Report{
		Design: c.Design.Name,
		Seed:   c.Seed,
		Trials: n,
		Outlay: sys.Outlays().Total(),
		Digest: Digest(obs),
	}
	if rep.Mission, err = c.mission(); err != nil {
		return nil, err
	}
	annual := float64(units.Year) / float64(rep.Mission)
	mission := float64(rep.Mission)
	// Downtime/loss sums accumulate in float64: a time.Duration sum
	// overflows at ~292 trial-years (a 1000-trial campaign where every
	// trial is down for the whole mission exceeds that), and the mean is
	// what the report carries anyway.
	var availSum, availExSum, perfSum, penaltySum float64
	var downSum, lossSum, opDownSum, opLossSum float64
	// exOpDown is the trial's downtime with the operator-attributed
	// share removed (clamped: the mission cap applies to the total).
	exOpDown := func(o Obs) time.Duration {
		d := o.Downtime - o.OpDowntime
		if d < 0 {
			d = 0
		}
		return d
	}
	for _, o := range obs {
		rep.Events += o.Events
		if o.Lost {
			rep.Lost++
		}
		rep.BoundChecks += o.BoundChecks
		rep.BoundSkips += o.BoundSkips
		rep.BoundViolations += o.BoundViolations
		rep.CorrEvents += o.CorrEvents
		rep.OpEvents += o.OpEvents
		rep.OpDetected += o.OpDetected
		rep.OpEscapes += o.OpEscapes
		availSum += 1 - float64(o.Downtime)/mission
		availExSum += 1 - float64(exOpDown(o))/mission
		perfDown := o.Downtime + o.DegTime
		if perfDown > rep.Mission {
			perfDown = rep.Mission
		}
		perfSum += 1 - float64(perfDown)/mission
		penaltySum += o.Penalty * annual
		downSum += float64(o.Downtime)
		lossSum += float64(o.LossTime)
		opDownSum += float64(o.OpDowntime)
		opLossSum += float64(o.OpLossTime)
	}
	rep.MeanDowntime = time.Duration(downSum / float64(n))
	rep.MeanLoss = time.Duration(lossSum / float64(n))
	rep.MeanOpDowntime = time.Duration(opDownSum / float64(n))
	rep.MeanOpLoss = time.Duration(opLossSum / float64(n))
	rep.PenaltyMean = penaltySum / float64(n)

	// Second pass: spread around the means (two-pass keeps the sums
	// well-conditioned and strictly order-determined).
	availMean := availSum / float64(n)
	availExMean := availExSum / float64(n)
	perfMean := perfSum / float64(n)
	var availSq, availExSq, perfSq, penaltySq float64
	for _, o := range obs {
		a := 1 - float64(o.Downtime)/mission - availMean
		availSq += a * a
		x := 1 - float64(exOpDown(o))/mission - availExMean
		availExSq += x * x
		perfDown := o.Downtime + o.DegTime
		if perfDown > rep.Mission {
			perfDown = rep.Mission
		}
		p := 1 - float64(perfDown)/mission - perfMean
		perfSq += p * p
		c := o.Penalty*annual - rep.PenaltyMean
		penaltySq += c * c
	}
	rep.Availability = normalEstimate(availMean, availSq, n)
	rep.AvailabilityExOp = normalEstimate(availExMean, availExSq, n)
	rep.PerfAvailability = normalEstimate(perfMean, perfSq, n)
	rep.Durability = wilsonEstimate(n-rep.Lost, n)
	if n > 1 {
		rep.PenaltyStdErr = math.Sqrt(penaltySq/float64(n-1)) / math.Sqrt(float64(n))
	}
	return rep, nil
}

// normalEstimate builds a mean estimate with a normal 95% CI from the
// mean and the sum of squared deviations, clamped to [0, 1].
func normalEstimate(mean, sumSq float64, n int) Estimate {
	e := Estimate{Value: mean, Lo: mean, Hi: mean}
	if n > 1 {
		se := math.Sqrt(sumSq/float64(n-1)) / math.Sqrt(float64(n))
		e.Lo, e.Hi = mean-z95*se, mean+z95*se
	}
	return clamp01(e)
}

// wilsonEstimate builds a proportion estimate with the Wilson score 95%
// interval — well-behaved at p near 1, where the normal interval
// collapses to a zero-width lie (the usual regime for durability).
func wilsonEstimate(successes, n int) Estimate {
	p := float64(successes) / float64(n)
	nf := float64(n)
	z2 := z95 * z95
	denom := 1 + z2/nf
	center := (p + z2/(2*nf)) / denom
	half := z95 * math.Sqrt(p*(1-p)/nf+z2/(4*nf*nf)) / denom
	return clamp01(Estimate{Value: p, Lo: center - half, Hi: center + half})
}

func clamp01(e Estimate) Estimate {
	e.Lo = math.Max(0, math.Min(1, e.Lo))
	e.Hi = math.Max(0, math.Min(1, e.Hi))
	e.Value = math.Max(0, math.Min(1, e.Value))
	return e
}

// Digest fingerprints an observation sequence with FNV-1a over every
// field in order. Shards exchange it so merges can prove the
// concatenated sequence matches what a single process would produce.
func Digest(obs []Obs) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	wr := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, o := range obs {
		wr(uint64(o.Events))
		wr(uint64(o.Downtime))
		wr(uint64(o.DegTime))
		wr(uint64(o.LossTime))
		if o.Lost {
			wr(1)
		} else {
			wr(0)
		}
		wr(math.Float64bits(o.Penalty))
		wr(uint64(o.BoundChecks))
		wr(uint64(o.BoundSkips))
		wr(uint64(o.BoundViolations))
		wr(uint64(o.CorrEvents))
		wr(uint64(o.OpEvents))
		wr(uint64(o.OpDetected))
		wr(uint64(o.OpEscapes))
		wr(uint64(o.OpDowntime))
		wr(uint64(o.OpLossTime))
	}
	return h.Sum64()
}

// ninesStr renders a fraction as nines with sensible saturation: when
// no failure mass was observed the point estimate is unbounded, so the
// one-sided information lives in the interval's lower bound.
func ninesStr(v float64) string {
	n := Nines(v)
	if math.IsInf(n, 1) {
		return "inf"
	}
	return fmt.Sprintf("%.2f", n)
}

// String renders the report as the nines table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "design %s: %d trials, mission %s, seed %d\n",
		r.Design, r.Trials, units.FormatDuration(r.Mission), r.Seed)
	fmt.Fprintf(&b, "  %d failure events, %d trials lost data\n", r.Events, r.Lost)
	row := func(name string, e Estimate) {
		fmt.Fprintf(&b, "  %-18s %.6f  [%.6f, %.6f]  nines %s [%s, %s]\n",
			name, e.Value, e.Lo, e.Hi, ninesStr(e.Value), ninesStr(e.Lo), ninesStr(e.Hi))
	}
	row("availability", r.Availability)
	if r.CorrEvents+r.OpEvents > 0 {
		row("availability-ex-op", r.AvailabilityExOp)
	}
	row("durability", r.Durability)
	row("perf-availability", r.PerfAvailability)
	fmt.Fprintf(&b, "  mean downtime %s, mean loss %s per trial\n",
		units.FormatDuration(r.MeanDowntime.Truncate(time.Second)),
		units.FormatDuration(r.MeanLoss.Truncate(time.Second)))
	fmt.Fprintf(&b, "  expected annual cost $%.0f = outlay $%.0f + penalties $%.0f (stderr $%.0f)\n",
		float64(r.ExpectedCost()), float64(r.Outlay), r.PenaltyMean, r.PenaltyStdErr)
	fmt.Fprintf(&b, "  bound checks %d, skips %d, violations %d\n",
		r.BoundChecks, r.BoundSkips, r.BoundViolations)
	if r.CorrEvents+r.OpEvents > 0 {
		fmt.Fprintf(&b, "  %d correlated outages, %d operator faults (%d detected, %d escaped)\n",
			r.CorrEvents, r.OpEvents, r.OpDetected, r.OpEscapes)
		fmt.Fprintf(&b, "  mean op downtime %s, mean op loss %s per trial\n",
			units.FormatDuration(r.MeanOpDowntime.Truncate(time.Second)),
			units.FormatDuration(r.MeanOpLoss.Truncate(time.Second)))
	}
	return b.String()
}
