package chaos

import (
	"fmt"
	"math/rand"
	"time"

	"stordep/internal/core"
	"stordep/internal/cost"
	"stordep/internal/device"
	"stordep/internal/failure"
	"stordep/internal/protect"
	"stordep/internal/sim"
	"stordep/internal/units"
	"stordep/internal/workload"
)

// Multi-object case generation: random-but-valid MultiDesigns — two to
// five objects over one shared fleet, a random acyclic dependency graph,
// globally unique technique instance names — plus a per-object fault
// schedule and a shared failure scenario. As in the single-object
// generator, every duration is a whole number of minutes so cases
// round-trip through internal/config and replay bit-identically.

// ObjectOutage targets one protection level of one object's hierarchy.
type ObjectOutage struct {
	// Object names the MultiDesign object whose hierarchy suffers the
	// outage; Level indexes into that object's chain.
	Object string
	sim.Outage
}

// MultiCase is one multi-object chaos trial.
type MultiCase struct {
	// Design is the generated multi-object design.
	Design *core.MultiDesign
	// Scenario is the hardware-failure scenario assessed against every
	// object (the hardware fails under all of them at once).
	Scenario failure.Scenario
	// Horizon is how long each object's simulation runs.
	Horizon time.Duration
	// Outages is the compound fault schedule, tagged per object.
	Outages []ObjectOutage
	// Events are correlated failure events (shared device, region,
	// common-trigger corruption) materialized across all objects at once.
	Events []failure.CorrEvent
	// OpFaults are operator faults injected on top of the schedule.
	OpFaults []failure.OpFault
}

// outagesFor returns the schedule entries for one object.
func (mcs *MultiCase) outagesFor(name string) []sim.Outage {
	var out []sim.Outage
	for _, o := range mcs.Outages {
		if o.Object == name {
			out = append(out, o.Outage)
		}
	}
	return out
}

// genMultiCase draws one buildable multi-object case, rejection-sampling
// designs that fail to build (the shared array two objects fit on
// individually can overload under both) or whose horizon exceeds the cap.
// If every attempt fails it falls back to a fixed two-object design.
func genMultiCase(r *rand.Rand, run int, correlated bool) (*MultiCase, int) {
	rejects := 0
	for a := 0; a < designAttempts; a++ {
		if md := genMultiDesign(r, run); md.Validate() == nil {
			if mcs := multiScheduleFor(r, md, correlated); mcs != nil {
				return mcs, rejects
			}
		}
		rejects++
	}
	mcs := multiScheduleFor(r, fallbackMultiDesign(run), correlated)
	if mcs == nil {
		// The fallback's fixed policies cannot overload the fleet or
		// exceed the horizon cap.
		panic("chaos: multi fallback failed to build")
	}
	return mcs, rejects
}

// multiScheduleFor builds the per-object fault schedules and the shared
// scenario for a design; nil means the design does not build or the
// horizon exceeds the cap. When correlated, it additionally draws
// correlated events and operator faults and extends the horizon past
// their windows.
func multiScheduleFor(r *rand.Rand, md *core.MultiDesign, correlated bool) *MultiCase {
	ms, err := core.BuildMulti(md)
	if err != nil {
		return nil
	}
	mcs := &MultiCase{Design: md}
	var horizon, warmMax, cycleMax time.Duration
	for _, obj := range md.Objects {
		chain := ms.Object(obj.Name).Chain()
		sm, err := sim.New(chain)
		if err != nil {
			return nil
		}
		outs, h := genSchedule(r, chain, sm.WarmUp())
		for _, o := range outs {
			mcs.Outages = append(mcs.Outages, ObjectOutage{Object: obj.Name, Outage: o})
		}
		if h > horizon {
			horizon = h
		}
		if w := sm.WarmUp(); w > warmMax {
			warmMax = w
		}
		if c := MaxCycle(chain); c > cycleMax {
			cycleMax = c
		}
	}
	if correlated {
		base := CeilMinute(warmMax) + time.Minute
		mcs.Events = genCorrEvents(r, md, base, cycleMax)
		mcs.OpFaults = genOpFaults(r, md, base, cycleMax)
		var evEnd time.Duration
		for _, e := range mcs.Events {
			if e.To > evEnd {
				evEnd = e.To
			}
		}
		for _, f := range mcs.OpFaults {
			if f.To > evEnd {
				evEnd = f.To
			}
			if end := f.At + time.Minute; end > evEnd {
				evEnd = end
			}
		}
		if evEnd > 0 {
			if h := evEnd + 3*cycleMax + time.Hour; h > horizon {
				horizon = h
			}
		}
	}
	if horizon > horizonCap {
		return nil
	}
	mcs.Horizon = horizon
	// The scenario's target age is drawn against a random object's
	// guaranteed ranges so it lands in every interesting band for at
	// least one object; the other objects see it wherever it falls.
	pick := md.Objects[r.Intn(len(md.Objects))]
	mcs.Scenario = genScenario(r, ms.Object(pick.Name).Chain())
	return mcs
}

// referencedDevices lists the device names any object's protection
// levels actually use, deduplicated in first-use order — the candidate
// pool for shared-device events (an event on an unused device would
// affect nothing and be rejected by deriveEvents).
func referencedDevices(md *core.MultiDesign) []string {
	var out []string
	seen := make(map[string]bool)
	for _, obj := range md.Objects {
		for _, tech := range obj.Levels {
			for _, name := range core.LevelDeviceNames(nil, tech) {
				if !seen[name] {
					seen[name] = true
					out = append(out, name)
				}
			}
		}
	}
	return out
}

// referencedRegions lists the regions hosting referenced devices,
// deduplicated in first-use order.
func referencedRegions(md *core.MultiDesign) []string {
	var out []string
	seen := make(map[string]bool)
	for _, dev := range referencedDevices(md) {
		if p, ok := md.DevicePlacement(dev); ok && p.Region != "" && !seen[p.Region] {
			seen[p.Region] = true
			out = append(out, p.Region)
		}
	}
	return out
}

// genCorrEvents draws zero to two correlated failure events against the
// shared fleet: a shared-device outage, a region-scope outage, or a
// common-trigger corruption. Windows are whole-minute so events
// round-trip through the repro codec.
func genCorrEvents(r *rand.Rand, md *core.MultiDesign, base, cycleMax time.Duration) []failure.CorrEvent {
	n := 0
	switch p := r.Float64(); {
	case p < 0.2:
	case p < 0.7:
		n = 1
	default:
		n = 2
	}
	protected := 0
	for _, obj := range md.Objects {
		if len(obj.Levels) > 0 {
			protected++
		}
	}
	var events []failure.CorrEvent
	for i := 0; i < n; i++ {
		from := base + Quantize(time.Duration(r.Float64()*2*float64(cycleMax)))
		dur := Quantize(time.Duration((0.3 + 2.2*r.Float64()) * float64(cycleMax)))
		e := failure.CorrEvent{From: from, To: from + dur}
		switch r.Intn(3) {
		case 0:
			devs := referencedDevices(md)
			if len(devs) == 0 {
				continue
			}
			e.Kind = failure.CorrSharedDevice
			e.Device = devs[r.Intn(len(devs))]
			e.AbortInFlight = r.Intn(3) == 0
		case 1:
			regions := referencedRegions(md)
			if len(regions) == 0 {
				continue
			}
			e.Kind = failure.CorrRegion
			e.Region = regions[r.Intn(len(regions))]
			e.AbortInFlight = r.Intn(3) == 0
		default:
			want := protected
			if want > 2 {
				want = 2
			}
			if want == 0 {
				continue
			}
			e.Kind = failure.CorrCorruption
			found := false
			// The trigger hash splits objects roughly in half, so a few
			// redraws almost always find one that corrupts enough objects
			// to be an interesting correlated event.
			for try := 0; try < 8 && !found; try++ {
				probe := failure.CorrEvent{Kind: failure.CorrCorruption, Trigger: r.Int63()}
				hits := 0
				for _, obj := range md.Objects {
					if len(obj.Levels) > 0 && probe.Corrupts(obj.Name) {
						hits++
					}
				}
				if hits >= want {
					e.Trigger = probe.Trigger
					found = true
				}
			}
			if !found {
				continue
			}
		}
		events = append(events, e)
	}
	return events
}

// genOpFaults draws zero to two operator faults over objects that have
// at least one protection level. Misdirected restores need a second
// object to land on, so they are only drawn from multi-object designs.
func genOpFaults(r *rand.Rand, md *core.MultiDesign, base, cycleMax time.Duration) []failure.OpFault {
	n := 0
	switch p := r.Float64(); {
	case p < 0.3:
	case p < 0.75:
		n = 1
	default:
		n = 2
	}
	var candidates []core.ObjectSpec
	for _, obj := range md.Objects {
		if len(obj.Levels) > 0 {
			candidates = append(candidates, obj)
		}
	}
	if len(candidates) == 0 {
		return nil
	}
	kinds := 2
	if len(md.Objects) >= 2 {
		kinds = 3
	}
	var faults []failure.OpFault
	for i := 0; i < n; i++ {
		obj := candidates[r.Intn(len(candidates))]
		at := base + Quantize(time.Duration(r.Float64()*2*float64(cycleMax)))
		switch r.Intn(kinds) {
		case 0:
			faults = append(faults, failure.OpFault{
				Kind:    failure.OpWrongRecovery,
				Object:  obj.Name,
				At:      at,
				StaleBy: Quantize(time.Duration((0.5 + 2.5*r.Float64()) * float64(cycleMax))),
			})
		case 1:
			from := base + Quantize(time.Duration(r.Float64()*2*float64(cycleMax)))
			dur := Quantize(time.Duration((0.3 + 2.2*r.Float64()) * float64(cycleMax)))
			faults = append(faults, failure.OpFault{
				Kind:   failure.OpSilentNonWrite,
				Object: obj.Name,
				Level:  1 + r.Intn(len(obj.Levels)),
				From:   from,
				To:     from + dur,
			})
		default:
			var others []string
			for _, o := range md.Objects {
				if o.Name != obj.Name {
					others = append(others, o.Name)
				}
			}
			faults = append(faults, failure.OpFault{
				Kind:        failure.OpMisdirectedRestore,
				Object:      obj.Name,
				WrongObject: others[r.Intn(len(others))],
				At:          at,
			})
		}
	}
	return faults
}

// genMultiDesign draws a random multi-object design: two to five objects
// with small independent workloads on one shared fleet, per-object
// hierarchies with globally unique instance names, and a random acyclic
// dependency graph (edges only point at earlier objects).
func genMultiDesign(r *rand.Rand, run int) *core.MultiDesign {
	penalty := []float64{1_000, 10_000, 50_000}[r.Intn(3)]
	md := &core.MultiDesign{
		Name: fmt.Sprintf("chaos-multi-%d", run),
		Requirements: cost.Requirements{
			UnavailPenaltyRate: units.PerHour(penalty),
			LossPenaltyRate:    units.PerHour(penalty),
		},
		Devices: []core.PlacedDevice{{Spec: device.MidrangeArray(), Placement: genPrimaryAt}},
	}
	// Shared-fleet bookkeeping: secondary devices are added once, on
	// first use, and then shared by every object that draws the same
	// technique kind.
	haveMirror, haveLibrary, haveVault := false, false, false
	libAt := genLibraryAt
	if r.Intn(2) == 0 {
		libAt.Building = genPrimaryAt.Building
	}
	misalign := r.Float64() < 0.25

	n := 2 + r.Intn(4)
	for i := 0; i < n; i++ {
		obj := core.ObjectSpec{
			Name:     fmt.Sprintf("obj%d", i),
			Workload: genObjectWorkload(r, fmt.Sprintf("obj%d", i)),
			Primary:  &protect.Primary{Array: device.NameDiskArray},
		}
		var prevCycle time.Duration

		// Level 1: near-line copy on the shared array, or a remote mirror.
		switch r.Intn(4) {
		case 0:
			// backup-only hierarchy
		case 1:
			pol := nearLinePolicy(r)
			obj.Levels = append(obj.Levels, &protect.SplitMirror{
				InstanceName: fmt.Sprintf("o%d-splitmirror", i),
				Array:        device.NameDiskArray, Pol: pol})
			prevCycle = pol.CyclePeriod()
		case 2:
			pol := nearLinePolicy(r)
			obj.Levels = append(obj.Levels, &protect.Snapshot{
				InstanceName: fmt.Sprintf("o%d-snapshot", i),
				Array:        device.NameDiskArray, Pol: pol})
			prevCycle = pol.CyclePeriod()
		default:
			pol := mirrorPolicy(r)
			if !haveMirror {
				md.Devices = append(md.Devices,
					core.PlacedDevice{Spec: device.RemoteMirrorArray(), Placement: genMirrorAt},
					core.PlacedDevice{Spec: device.WANLinks(2 + r.Intn(3))})
				haveMirror = true
			}
			obj.Levels = append(obj.Levels, &protect.Mirror{
				InstanceName: fmt.Sprintf("o%d-mirror", i),
				Mode:         protect.MirrorAsyncBatch,
				DestArray:    device.NameMirrorArray,
				Links:        device.NameWANLinks,
				Pol:          pol,
			})
			prevCycle = pol.CyclePeriod()
		}

		// Tape backup, mandatory when nothing else protects the object.
		if r.Float64() < 0.8 || len(obj.Levels) == 0 {
			backupPol := backupPolicy(r, prevCycle, misalign)
			if !haveLibrary {
				md.Devices = append(md.Devices, core.PlacedDevice{Spec: device.TapeLibrary(), Placement: libAt})
				haveLibrary = true
			}
			obj.Levels = append(obj.Levels, &protect.Backup{
				InstanceName: fmt.Sprintf("o%d-backup", i),
				SourceArray:  device.NameDiskArray,
				Target:       device.NameTapeLibrary,
				Pol:          backupPol,
			})
			if r.Float64() < 0.3 {
				vaultPol := vaultPolicy(r, backupPol.CyclePeriod())
				if !haveVault {
					md.Devices = append(md.Devices,
						core.PlacedDevice{Spec: device.TapeVault(), Placement: genVaultAt},
						core.PlacedDevice{Spec: device.AirShipment()})
					haveVault = true
				}
				obj.Levels = append(obj.Levels, &protect.Vaulting{
					InstanceName: fmt.Sprintf("o%d-vault", i),
					BackupDevice: device.NameTapeLibrary,
					Vault:        device.NameTapeVault,
					Transport:    device.NameAirShipment,
					Pol:          vaultPol,
					BackupRetW:   backupPol.RetW,
				})
			}
		}

		// Acyclic by construction: dependencies only point at earlier
		// objects, so random edges can never close a cycle.
		for j := 0; j < i; j++ {
			if r.Float64() < 0.35 {
				obj.DependsOn = append(obj.DependsOn, fmt.Sprintf("obj%d", j))
			}
		}
		md.Objects = append(md.Objects, obj)
	}
	if r.Intn(2) == 0 {
		md.Facility = &core.Facility{
			Placement:     failure.Placement{Site: "chaos-recovery-site", Region: "central"},
			ProvisionTime: 9 * time.Hour,
			CostFactor:    0.2,
		}
	}
	return md
}

// genObjectWorkload draws a small per-object workload: capacities are an
// order of magnitude below the single-object generator's so up to five
// objects fit the shared midrange array together.
func genObjectWorkload(r *rand.Rand, name string) *workload.Workload {
	capSize := []units.ByteSize{20 * units.GB, 50 * units.GB, 100 * units.GB, 200 * units.GB}[r.Intn(4)]
	update := units.Rate(float64(50+r.Intn(200))) * units.KBPerSec
	return &workload.Workload{
		Name:          name,
		DataCap:       capSize,
		AvgAccessRate: 2 * update,
		AvgUpdateRate: update,
		BurstMult:     float64(2 + r.Intn(4)),
		BatchCurve: []workload.BatchPoint{
			{Window: time.Minute, Rate: update * 9 / 10},
			{Window: 12 * time.Hour, Rate: update * 2 / 5},
		},
	}
}

// fallbackMultiDesign is the always-buildable two-object design used when
// rejection sampling runs dry: a small catalog object and an order volume
// with fixed near-line and backup protection, orders depending on the
// catalog.
func fallbackMultiDesign(run int) *core.MultiDesign {
	fixed := rand.New(rand.NewSource(1))
	return &core.MultiDesign{
		Name: fmt.Sprintf("chaos-multi-%d-fallback", run),
		Requirements: cost.Requirements{
			UnavailPenaltyRate: units.PerHour(10_000),
			LossPenaltyRate:    units.PerHour(10_000),
		},
		Devices: []core.PlacedDevice{
			{Spec: device.MidrangeArray(), Placement: genPrimaryAt},
			{Spec: device.TapeLibrary(), Placement: genLibraryAt},
		},
		Objects: []core.ObjectSpec{
			{
				Name:     "catalog",
				Workload: genObjectWorkload(fixed, "catalog"),
				Primary:  &protect.Primary{Array: device.NameDiskArray},
				Levels: []protect.Technique{
					&protect.SplitMirror{InstanceName: "catalog-splitmirror",
						Array: device.NameDiskArray, Pol: nearLinePolicy(fixed)},
					&protect.Backup{InstanceName: "catalog-backup", SourceArray: device.NameDiskArray,
						Target: device.NameTapeLibrary, Pol: backupPolicy(fixed, 0, false)},
				},
			},
			{
				Name:      "orders",
				Workload:  genObjectWorkload(fixed, "orders"),
				Primary:   &protect.Primary{Array: device.NameDiskArray},
				DependsOn: []string{"catalog"},
				Levels: []protect.Technique{
					&protect.Backup{InstanceName: "orders-backup", SourceArray: device.NameDiskArray,
						Target: device.NameTapeLibrary, Pol: backupPolicy(fixed, 0, false)},
				},
			},
		},
	}
}
