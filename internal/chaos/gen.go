package chaos

import (
	"fmt"
	"math/rand"
	"time"

	"stordep/internal/casestudy"
	"stordep/internal/core"
	"stordep/internal/cost"
	"stordep/internal/device"
	"stordep/internal/failure"
	"stordep/internal/hierarchy"
	"stordep/internal/protect"
	"stordep/internal/rng"
	"stordep/internal/sim"
	"stordep/internal/units"
	"stordep/internal/workload"
)

// The generator draws random-but-valid designs. Every duration it emits
// is a whole number of minutes so designs and schedules survive the
// internal/config round-trip (units.FormatDuration is exact for whole
// seconds) and replay bit-identically.

// horizonCap bounds the simulation horizon; designs whose warm-up pushes
// past it are rejected and resampled (long vault cycles with deep
// retention otherwise make single runs dominate the campaign).
const horizonCap = 170 * units.Week

// Placements for the generated fleet. The tape library flips a coin
// between the primary building and its own, so building-scope failures
// sometimes take the backups down with the array.
var (
	genPrimaryAt = failure.Placement{Array: "arr-primary", Building: "bldg-1", Site: "site-alpha", Region: "west"}
	genLibraryAt = failure.Placement{Array: "lib-1", Building: "bldg-2", Site: "site-alpha", Region: "west"}
	genVaultAt   = failure.Placement{Array: "vault-1", Building: "vault-bldg", Site: "site-beta", Region: "east"}
	genMirrorAt  = failure.Placement{Array: "arr-mirror", Building: "mirror-bldg", Site: "site-gamma", Region: "central"}
)

// runRNG derives the deterministic random stream for one campaign run.
// The derivation lives in internal/rng so the Monte Carlo engine splits
// seeds identically; committed digests depend on it staying fixed.
func runRNG(seed int64, run int) *rand.Rand {
	return rng.Run(seed, run)
}

// Quantize truncates to whole minutes, with a one-minute floor: the
// resolution every schedule generator emits, so repro files round-trip
// bit-identically through internal/config.
func Quantize(d time.Duration) time.Duration {
	q := d.Truncate(time.Minute)
	if q < time.Minute {
		q = time.Minute
	}
	return q
}

// CeilMinute rounds up to the next whole minute.
func CeilMinute(d time.Duration) time.Duration {
	q := d.Truncate(time.Minute)
	if q < d {
		q += time.Minute
	}
	return q
}

// genCase draws one buildable case, rejection-sampling designs the device
// models refuse (over-utilization) or whose horizon exceeds the cap. It
// returns the case and the number of rejected draws. If every attempt
// fails it falls back to the always-buildable case-study baseline.
func genCase(r *rand.Rand, run int) (*Case, int) {
	rejects := 0
	for a := 0; a < designAttempts; a++ {
		if cs := genAttempt(r, run); cs != nil {
			return cs, rejects
		}
		rejects++
	}
	d := casestudy.Baseline()
	d.Name = fmt.Sprintf("chaos-%d-fallback", run)
	cs := scheduleFor(r, d)
	if cs == nil {
		// The baseline always builds; reaching here means the fallback
		// horizon exceeded the cap, which its fixed policies cannot do.
		panic("chaos: case-study fallback failed to build")
	}
	return cs, rejects
}

// genAttempt draws one design and schedule; nil means rejected.
func genAttempt(r *rand.Rand, run int) *Case {
	d := genDesign(r, run)
	if d.Validate() != nil {
		return nil
	}
	return scheduleFor(r, d)
}

// scheduleFor builds the fault schedule and scenario for a design; nil
// means the design does not build or the horizon exceeds the cap.
func scheduleFor(r *rand.Rand, d *core.Design) *Case {
	sys, err := core.Build(d)
	if err != nil {
		return nil
	}
	chain := sys.Chain()
	sm, err := sim.New(chain)
	if err != nil {
		return nil
	}
	warm := sm.WarmUp()
	outages, horizon := genSchedule(r, chain, warm)
	if horizon > horizonCap {
		return nil
	}
	return &Case{
		Design:   d,
		Scenario: genScenario(r, chain),
		Horizon:  horizon,
		Outages:  outages,
	}
}

// RandomDesign draws a design as a campaign's generator does, before the
// campaign checks it: like the draws a campaign rejects and draws again,
// it may fail validation or its build. Property tests outside this
// package draw varied designs from it.
func RandomDesign(r *rand.Rand, run int) *core.Design { return genDesign(r, run) }

// genDesign draws a random design: workload, penalty rates, fleet, and a
// one-to-three level protection hierarchy (near-line copy or remote
// mirror, tape backup with optional cyclic incrementals, remote vault).
func genDesign(r *rand.Rand, run int) *core.Design {
	caps := []units.ByteSize{200 * units.GB, 500 * units.GB, 800 * units.GB, 1360 * units.GB}
	capSize := caps[r.Intn(len(caps))]
	var wl *workload.Workload
	switch r.Intn(4) {
	case 0:
		wl = workload.Cello()
	case 1:
		wl = workload.OLTP(capSize)
	case 2:
		wl = workload.FileServer(capSize)
	default:
		wl = workload.Warehouse(capSize)
	}
	penalty := []float64{1_000, 10_000, 50_000}[r.Intn(3)]
	d := &core.Design{
		Name:     fmt.Sprintf("chaos-%d", run),
		Workload: wl,
		Requirements: cost.Requirements{
			UnavailPenaltyRate: units.PerHour(penalty),
			LossPenaltyRate:    units.PerHour(penalty),
		},
		Primary: &protect.Primary{Array: device.NameDiskArray},
		Devices: []core.PlacedDevice{{Spec: device.MidrangeArray(), Placement: genPrimaryAt}},
	}
	// A quarter of the designs deliberately break the paper's schedule
	// alignment so the conservative bounds get exercised.
	misalign := r.Float64() < 0.25

	var prevCycle time.Duration

	// Level 1: near-line copy on the primary array, or a remote mirror.
	switch r.Intn(4) {
	case 0:
		// backup-only hierarchy
	case 1:
		pol := nearLinePolicy(r)
		d.Levels = append(d.Levels, &protect.SplitMirror{Array: device.NameDiskArray, Pol: pol})
		prevCycle = pol.CyclePeriod()
	case 2:
		pol := nearLinePolicy(r)
		d.Levels = append(d.Levels, &protect.Snapshot{Array: device.NameDiskArray, Pol: pol})
		prevCycle = pol.CyclePeriod()
	default:
		pol := mirrorPolicy(r)
		d.Devices = append(d.Devices,
			core.PlacedDevice{Spec: device.RemoteMirrorArray(), Placement: genMirrorAt},
			core.PlacedDevice{Spec: device.WANLinks(1 + r.Intn(4))})
		d.Levels = append(d.Levels, &protect.Mirror{
			Mode:      protect.MirrorAsyncBatch,
			DestArray: device.NameMirrorArray,
			Links:     device.NameWANLinks,
			Pol:       pol,
		})
		prevCycle = pol.CyclePeriod()
	}

	// Tape backup, mandatory when nothing else protects the design.
	if r.Float64() < 0.85 || len(d.Levels) == 0 {
		backupPol := backupPolicy(r, prevCycle, misalign)
		libAt := genLibraryAt
		if r.Intn(2) == 0 {
			libAt.Building = genPrimaryAt.Building
		}
		d.Devices = append(d.Devices, core.PlacedDevice{Spec: device.TapeLibrary(), Placement: libAt})
		d.Levels = append(d.Levels, &protect.Backup{
			SourceArray: device.NameDiskArray,
			Target:      device.NameTapeLibrary,
			Pol:         backupPol,
		})
		if r.Float64() < 0.6 {
			vaultPol := vaultPolicy(r, backupPol.CyclePeriod())
			d.Devices = append(d.Devices,
				core.PlacedDevice{Spec: device.TapeVault(), Placement: genVaultAt},
				core.PlacedDevice{Spec: device.AirShipment()})
			d.Levels = append(d.Levels, &protect.Vaulting{
				BackupDevice: device.NameTapeLibrary,
				Vault:        device.NameTapeVault,
				Transport:    device.NameAirShipment,
				Pol:          vaultPol,
				BackupRetW:   backupPol.RetW,
			})
		}
	}
	if r.Intn(2) == 0 {
		d.Facility = &core.Facility{
			Placement:     failure.Placement{Site: "chaos-recovery-site", Region: "central"},
			ProvisionTime: 9 * time.Hour,
			CostFactor:    0.2,
		}
	}
	return d
}

// finishRetention sets the retention pair consistently: RetW covers the
// retained cycle count plus one transfer lag and one cycle of slack, so
// the analytic guaranteed range never overclaims what simulated retention
// actually holds. (Policy.Validate does not cross-check RetW against
// RetCnt — see the ROADMAP open item.)
func finishRetention(pol *hierarchy.Policy, retCnt int) {
	pol.RetCnt = retCnt
	cycle := pol.CyclePeriod()
	pol.RetW = time.Duration(retCnt)*cycle + pol.TransferLag() + cycle
}

// nearLinePolicy is a split-mirror or snapshot schedule: splits every
// 6-24 hours, immediately available.
func nearLinePolicy(r *rand.Rand) hierarchy.Policy {
	accW := []time.Duration{6 * time.Hour, 12 * time.Hour, 24 * time.Hour}[r.Intn(3)]
	pol := hierarchy.Policy{
		Primary: hierarchy.WindowSet{AccW: accW, Rep: hierarchy.RepFull},
		CopyRep: hierarchy.RepFull,
	}
	finishRetention(&pol, 2+r.Intn(3))
	return pol
}

// mirrorPolicy is an async-batch mirror schedule: sub-hour to two-hour
// batches shipped within half a batch window.
func mirrorPolicy(r *rand.Rand) hierarchy.Policy {
	accW := []time.Duration{30 * time.Minute, time.Hour, 2 * time.Hour}[r.Intn(3)]
	pol := hierarchy.Policy{
		Primary: hierarchy.WindowSet{AccW: accW, PropW: Quantize(accW / 2), Rep: hierarchy.RepFull},
		CopyRep: hierarchy.RepFull,
	}
	finishRetention(&pol, 2)
	return pol
}

// backupPolicy is a tape-backup schedule whose full-backup window is a
// multiple of the cycle below (one day to one week), optionally cyclic
// with incrementals on the lower level's grid, and optionally misaligned
// by a few odd minutes.
func backupPolicy(r *rand.Rand, prevCycle time.Duration, misalign bool) hierarchy.Policy {
	base := prevCycle
	if base <= 0 {
		base = []time.Duration{units.Day, 2 * units.Day, units.Week}[r.Intn(3)]
	}
	minMult := int(units.Day / base)
	if minMult < 1 {
		minMult = 1
	}
	maxMult := int(units.Week / base)
	if maxMult < minMult {
		maxMult = minMult
	}
	accW := time.Duration(minMult+r.Intn(maxMult-minMult+1)) * base
	if misalign {
		accW += time.Duration(7+2*r.Intn(5)) * time.Minute
	}
	pol := hierarchy.Policy{
		Primary: hierarchy.WindowSet{
			AccW:  accW,
			PropW: Quantize(accW / time.Duration(2+r.Intn(3))),
			HoldW: []time.Duration{0, time.Hour, 6 * time.Hour}[r.Intn(3)],
			Rep:   hierarchy.RepFull,
		},
		CopyRep: hierarchy.RepFull,
	}
	if r.Intn(2) == 0 {
		// Cyclic: incrementals on the lower grid between fulls.
		pol.Secondary = &hierarchy.WindowSet{
			AccW:  base,
			PropW: Quantize(base / 2),
			Rep:   hierarchy.RepPartial,
		}
		pol.CycleCnt = 2 + r.Intn(4)
	}
	finishRetention(&pol, 2+r.Intn(3))
	return pol
}

// vaultPolicy ships expired fulls off-site every one or two backup
// cycles.
func vaultPolicy(r *rand.Rand, below time.Duration) hierarchy.Policy {
	accW := time.Duration(1+r.Intn(2)) * below
	if accW > 6*units.Week {
		accW = below
	}
	pol := hierarchy.Policy{
		Primary: hierarchy.WindowSet{
			AccW:  accW,
			PropW: []time.Duration{12 * time.Hour, 24 * time.Hour}[r.Intn(2)],
			HoldW: []time.Duration{0, Quantize(accW / 2), accW + 12*time.Hour}[r.Intn(3)],
			Rep:   hierarchy.RepFull,
		},
		CopyRep: hierarchy.RepFull,
	}
	finishRetention(&pol, 2+r.Intn(2))
	return pol
}

// genSchedule draws zero to three possibly-overlapping level outages,
// all after warm-up, and sizes the horizon to leave steady state on both
// sides of the fault window.
func genSchedule(r *rand.Rand, chain hierarchy.Chain, warm time.Duration) ([]sim.Outage, time.Duration) {
	var maxCycle time.Duration
	for _, lvl := range chain {
		if c := lvl.Policy.CyclePeriod(); c > maxCycle {
			maxCycle = c
		}
	}
	n := 0
	switch p := r.Float64(); {
	case p < 0.25:
	case p < 0.55:
		n = 1
	case p < 0.85:
		n = 2
	default:
		n = 3
	}
	base := CeilMinute(warm) + time.Minute
	var outs []sim.Outage
	for i := 0; i < n; i++ {
		lvl := 1 + r.Intn(len(chain))
		cyc := chain[lvl-1].Policy.CyclePeriod()
		dur := Quantize(time.Duration((0.3 + 2.2*r.Float64()) * float64(cyc)))
		var from time.Duration
		if len(outs) > 0 && r.Intn(2) == 0 {
			// Overlap or immediately follow a previous outage: compound
			// faults during active propagation and recovery windows.
			prev := outs[r.Intn(len(outs))]
			from = prev.From + Quantize(time.Duration(r.Float64()*float64(prev.To-prev.From)))
		} else {
			from = base + Quantize(time.Duration(r.Float64()*float64(2*maxCycle)))
		}
		outs = append(outs, sim.Outage{
			Level:         lvl,
			From:          from,
			To:            from + dur,
			AbortInFlight: r.Intn(3) == 0,
		})
	}
	end := base
	for _, o := range outs {
		if o.To > end {
			end = o.To
		}
	}
	return outs, end + 3*maxCycle + time.Hour
}

// genScenario draws the hardware-failure scenario: a random scope and a
// recovery-target age spanning "now", the too-recent band, the covered
// band of a random level, and past the end of retention.
func genScenario(r *rand.Rand, chain hierarchy.Chain) failure.Scenario {
	scopes := failure.Scopes()
	sc := failure.Scenario{Scope: scopes[r.Intn(len(scopes))]}
	j := 1 + r.Intn(len(chain))
	rg := chain.GuaranteedRange(j)
	switch r.Intn(6) {
	case 0, 1:
		// restore to now
	case 2:
		sc.TargetAge = time.Hour
	case 3:
		if !rg.Empty() {
			sc.TargetAge = Quantize(rg.Newest)
		}
	case 4:
		if !rg.Empty() {
			sc.TargetAge = Quantize((rg.Newest + rg.Oldest) / 2)
		}
	default:
		sc.TargetAge = Quantize(chain.GuaranteedRange(len(chain)).Oldest + units.Week)
	}
	if sc.Scope == failure.ScopeObject {
		sc.RecoverSize = units.MB
		if sc.TargetAge == 0 {
			sc.TargetAge = time.Hour
		}
	}
	return sc
}
