// Package recovery implements the worst-case recovery-time and recent
// data-loss models of §3.3.3–3.3.4.
//
// Recovery proceeds along a recovery path: the reverse of the RP
// propagation hierarchy, starting from the level chosen to serve as the
// data source, optionally skipping levels that would only add latency. At
// each hop, preparatory work that needs no data (device reprovisioning,
// resource negotiation) can proceed in parallel with upstream hops, while
// tape loads and the data transfer itself serialize behind data arrival —
// the structure in Figure 4. The recovery time obeys the recursion
//
//	RT_i = max(RT_{i+1}, parFix_i) + serXfer_i + serFix_i
//
// evaluated from the source level down to the primary copy (level 0).
package recovery

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"stordep/internal/hierarchy"
	"stordep/internal/units"
)

// Step is one hop of a recovery path, ordered from the data source toward
// the primary copy.
type Step struct {
	// Name labels the hop in reports, e.g. "vault -> tape-library".
	Name string
	// ParFix is preparatory work overlapping upstream readiness: spare
	// provisioning, reconfiguration, negotiating shared resources.
	ParFix time.Duration
	// SerFix is fixed work that starts only when data arrives: tape load
	// and seek, or a physical shipment's transit time.
	SerFix time.Duration
	// Size is the data transferred on this hop (zero for pure-latency
	// hops such as shipments).
	Size units.ByteSize
	// Bandwidth is the effective transfer rate: the minimum of sender and
	// receiver available bandwidth. Zero with a non-zero Size means the
	// hop cannot move data and the recovery never completes.
	Bandwidth units.Rate
}

// Duration returns the hop's serialized time: serFix + serXfer,
// saturating at units.Forever.
func (s Step) Duration() time.Duration { return serial(s.SerFix, s.Size, s.Bandwidth) }

// serial is a hop's serialized time: its fixed serial work, then size
// bytes at bw, saturating at units.Forever. A hop that moves no data
// takes only the fixed work.
func serial(fix time.Duration, size units.ByteSize, bw units.Rate) time.Duration {
	if size <= 0 {
		return fix
	}
	return addSat(fix, units.Div(size, bw))
}

// Time applies the RT recursion over steps ordered source-first and
// returns the overall recovery time (RT_0). An impossible transfer, or
// one whose sum would pass units.Forever, yields units.Forever.
func Time(steps []Step) time.Duration {
	var rt time.Duration
	for _, s := range steps {
		rt = next(rt, s.ParFix, s.Duration())
	}
	return rt
}

// next is one step of the RT recursion: RT_i from RT_{i+1} (upstream)
// and hop i's parallel and serialized work.
func next(upstream, par, ser time.Duration) time.Duration {
	return addSat(max(upstream, par), ser)
}

// addSat adds two durations, saturating at units.Forever.
func addSat(a, b time.Duration) time.Duration {
	if b > 0 && a > units.Forever-b {
		return units.Forever
	}
	return a + b
}

// Restore is one resolved restore: the facts its caller knows about the
// at-most-two-hop path from the serving level to the primary copy (§3.2's
// recovery-path optimization skips every level in between). It is the
// only code that applies the restore rules:
//
//   - provisioning of the reader and the destination overlaps the media
//     return;
//   - the reader's access delay, a crossed link's delay and the transfer
//     serialize after both;
//   - an intact device offers its normal-mode headroom (recovery gets
//     "the remaining bandwidth after any RP propagation workload demands
//     have been satisfied", §3.3.4), a spare or facility stand-in its
//     full rate;
//   - a copy from the intact destination array to itself reads and
//     writes one enclosure, so it runs at half the array's headroom;
//   - any other copy runs at the smaller bandwidth the two devices offer,
//     capped by a crossed link;
//   - a scenario's recover size, when given, replaces the level's restore
//     size.
//
// Callers fill it in place from their own representation; Steps lays it
// out as report hops and Time evaluates the same hops without building
// them.
type Restore struct {
	// MediaReturn reports that retained media live on a device other
	// than the one that reads them (vaulted tapes to the library), so a
	// media-return hop of Transit (the shipment's delay) comes first.
	MediaReturn bool
	Transit     time.Duration
	// ReadProvision and DestProvision are the provisioning delays of the
	// reader and of the destination array (zero for an intact device).
	ReadProvision, DestProvision time.Duration
	// AccessDelay is the reader's fixed access delay (tape load and seek).
	AccessDelay time.Duration
	// ReadIntact and DestIntact report that the reader and the
	// destination array are the original devices, not stand-ins. Avail
	// is a device's normal-mode headroom, Max its full rate.
	ReadIntact, DestIntact bool
	ReadAvail, ReadMax     units.Rate
	DestAvail, DestMax     units.Rate
	// SameDevice reports that the reader is the destination array.
	SameDevice bool
	// CrossLink reports that the transfer crosses an interconnect between
	// two sites, adding LinkDelay and capping the rate at LinkBW.
	CrossLink bool
	LinkDelay time.Duration
	LinkBW    units.Rate
	// Size is the serving level's restore size; RecoverSize, when
	// positive, is the scenario's and replaces it.
	Size, RecoverSize units.ByteSize
}

// Steps appends the restore's hops to buf, source first: the media
// return when there is one, then the transfer into the primary array.
// The hops are unnamed; labels are the caller's.
func (r *Restore) Steps(buf []Step) []Step {
	if r.MediaReturn {
		buf = append(buf, Step{SerFix: r.Transit})
	}
	return append(buf, Step{ParFix: r.parFix(), SerFix: r.serFix(), Size: r.size(), Bandwidth: r.rate()})
}

// Time returns the restore's recovery time, Time over its Steps: the
// same hop terms folded by the same recursion step, without building
// the hops.
func (r *Restore) Time() time.Duration {
	var rt time.Duration
	if r.MediaReturn {
		rt = next(rt, 0, r.Transit)
	}
	return next(rt, r.parFix(), serial(r.serFix(), r.size(), r.rate()))
}

// parFix is the transfer's parallel work: provisioning of the reader and
// the destination, which overlaps the hops upstream of it.
func (r *Restore) parFix() time.Duration { return max(r.ReadProvision, r.DestProvision) }

// size is the volume the transfer moves.
func (r *Restore) size() units.ByteSize {
	if r.RecoverSize > 0 {
		return r.RecoverSize
	}
	return r.Size
}

// serFix is the transfer's fixed serial work: the access delay, plus the
// link's delay when the transfer crosses sites.
func (r *Restore) serFix() time.Duration {
	if r.CrossLink {
		return addSat(r.AccessDelay, r.LinkDelay)
	}
	return r.AccessDelay
}

// rate is the transfer's effective bandwidth.
func (r *Restore) rate() units.Rate {
	dest := r.DestMax
	if r.DestIntact {
		dest = r.DestAvail
		if r.SameDevice {
			return dest / 2
		}
	}
	read := r.ReadMax
	if r.ReadIntact {
		read = r.ReadAvail
	}
	bw := min(read, dest)
	if r.CrossLink {
		bw = min(bw, r.LinkBW)
	}
	return bw
}

// Plan is a fully-resolved recovery: the chosen source level, the loss it
// implies, and the timed steps to the primary copy.
type Plan struct {
	// SourceLevel is the 1-based hierarchy index serving the recovery
	// (0 when the primary copy itself survives, e.g. object rollback
	// served from level 0 — not used in practice since objects roll back
	// from PiT copies).
	SourceLevel int
	// SourceName is the level's technique name.
	SourceName string
	// Loss is the worst-case recent data loss (§3.3.3).
	Loss time.Duration
	// Steps are the recovery hops, source first.
	Steps []Step
}

// Time returns the plan's overall recovery time.
func (p *Plan) Time() time.Duration { return Time(p.Steps) }

// String renders the plan for reports.
func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "recover from %s (loss %s):", p.SourceName, units.FormatDuration(p.Loss))
	for _, s := range p.Steps {
		fmt.Fprintf(&b, " [%s]", s.Name)
	}
	return b.String()
}

// ErrUnrecoverable is returned when no surviving level retains an RP
// usable for the requested target: the data object is lost.
var ErrUnrecoverable = errors.New("recovery: no surviving level can serve the recovery target")

// Candidate pairs a hierarchy level with the data loss it would incur
// serving a given recovery target.
type Candidate struct {
	// Level is the 1-based hierarchy index.
	Level int
	// Loss is the worst-case recent data loss if this level serves.
	Loss time.Duration
}

// SelectSource picks the surviving level whose retained RPs most closely
// match the recovery target (§3.3.3): the candidate with the smallest
// worst-case loss, preferring the nearer (faster) level on ties. surviving
// holds the 1-based indices of levels whose devices outlived the failure;
// order does not matter.
//
// If no surviving level retains a usable RP, ErrUnrecoverable is returned:
// the worst-case loss is the entire data object.
func SelectSource(c hierarchy.Chain, surviving []int, targetAge time.Duration) (Candidate, error) {
	best := Candidate{Level: -1}
	for _, j := range surviving {
		if j < 1 || j > len(c) {
			continue
		}
		loss, ok := c.WorstCaseLoss(j, targetAge)
		if !ok {
			continue
		}
		if best.Level == -1 || loss < best.Loss || (loss == best.Loss && j < best.Level) {
			best = Candidate{Level: j, Loss: loss}
		}
	}
	if best.Level == -1 {
		return Candidate{}, ErrUnrecoverable
	}
	return best, nil
}

// Candidates returns the loss every surviving level would incur for the
// target, for what-if reporting. Levels that cannot serve are omitted.
func Candidates(c hierarchy.Chain, surviving []int, targetAge time.Duration) []Candidate {
	var out []Candidate
	for _, j := range surviving {
		if j < 1 || j > len(c) {
			continue
		}
		if loss, ok := c.WorstCaseLoss(j, targetAge); ok {
			out = append(out, Candidate{Level: j, Loss: loss})
		}
	}
	return out
}
