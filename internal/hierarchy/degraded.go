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
	var d Degraded
	return d.Compound(c, outages)
}

// Degraded is storage for degraded chains: Compound writes each into the
// storage the previous one used, so a caller that degrades one chain per
// fault schedule (a Monte Carlo trial) allocates only while the storage
// grows. The zero value is ready to use.
type Degraded struct {
	chain Chain
	// secs holds each level's copy of its secondary window set, which
	// the degraded chain points at instead of the source chain's.
	secs []WindowSet
}

// Compound returns c degraded by the outages, exactly as
// c.DegradedCompound(outages) does. The chain lives in d's storage: it
// is valid until d's next Compound.
func (d *Degraded) Compound(c Chain, outages []LevelOutage) (Chain, error) {
	for _, o := range outages {
		if o.Level < 1 || o.Level > len(c) {
			return nil, fmt.Errorf("hierarchy: degraded level %d out of range [1,%d]", o.Level, len(c))
		}
		if o.Outage < 0 {
			return nil, fmt.Errorf("hierarchy: outage must be non-negative, got %v", o.Outage)
		}
	}
	d.chain = append(d.chain[:0], c...)
	for _, o := range outages {
		if o.Outage == 0 {
			continue
		}
		pol := &d.chain[o.Level-1].Policy
		pol.Primary.HoldW += o.Outage
		if pol.Secondary != nil {
			if cap(d.secs) < len(c) {
				d.secs = make([]WindowSet, len(c))
			}
			d.secs = d.secs[:len(c)]
			if sec := &d.secs[o.Level-1]; pol.Secondary != sec {
				*sec = *pol.Secondary
				pol.Secondary = sec
			}
			pol.Secondary.HoldW += o.Outage
		}
	}
	return d.chain, nil
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
