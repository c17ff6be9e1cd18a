package hierarchy

import (
	"fmt"
	"time"
)

// LevelOutage pairs a 1-based hierarchy level with how long its technique
// has been out of service. Compound failure scenarios (an operator takes
// the backup service down while the vault courier is also unavailable)
// are lists of LevelOutages.
type LevelOutage struct {
	Level  int
	Outage time.Duration
}

// DegradedCompound returns a copy of the chain modeling degraded-mode
// operation (§5 of the paper: "evaluate degraded mode operation, e.g.
// under the failure of a data protection technique"): the technique at
// each listed level has been out of service for its outage duration, so
// no new RPs have propagated through it in that time. A single outage is
// a one-element list; outages naming the same level accumulate.
//
// The transform adds each outage to its level's hold windows: every RP
// that will eventually arrive at that level or beyond is that much
// staler, which shifts the cumulative transfer lags, worst-case losses
// and guaranteed ranges of the whole suffix of the hierarchy. This is
// the conservative worst-case reading — retention at the affected levels
// is assumed to keep expiring while nothing new arrives.
func (c Chain) DegradedCompound(outages []LevelOutage) (Chain, error) {
	total := make([]time.Duration, len(c))
	for _, o := range outages {
		if o.Level < 1 || o.Level > len(c) {
			return nil, fmt.Errorf("hierarchy: degraded level %d out of range [1,%d]", o.Level, len(c))
		}
		if o.Outage < 0 {
			return nil, fmt.Errorf("hierarchy: outage must be non-negative, got %v", o.Outage)
		}
		total[o.Level-1] += o.Outage
	}
	out := make(Chain, len(c))
	copy(out, c)
	for i, extra := range total {
		if extra == 0 {
			continue
		}
		pol := out[i].Policy // copies the struct
		pol.Primary.HoldW += extra
		if pol.Secondary != nil {
			sec := *pol.Secondary
			sec.HoldW += extra
			pol.Secondary = &sec
		}
		out[i].Policy = pol
	}
	return out, nil
}

// CompoundDegradedLoss returns the worst-case recent data loss at level j
// for a recovery target of the given age while every listed level is
// degraded at once. Levels below every degraded one are unaffected.
func (c Chain) CompoundDegradedLoss(j int, outages []LevelOutage, targetAge time.Duration) (time.Duration, bool) {
	deg, err := c.DegradedCompound(outages)
	if err != nil {
		return 0, false
	}
	return deg.WorstCaseLoss(j, targetAge)
}
