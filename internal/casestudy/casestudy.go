// Package casestudy builds the storage system designs of the paper's §4
// case study: the baseline of Figure 1 / Tables 3–4 (split mirroring +
// tape backup + remote vaulting protecting the cello workload) and the
// what-if variants of Table 7.
package casestudy

import (
	"fmt"
	"time"

	"stordep/internal/core"
	"stordep/internal/cost"
	"stordep/internal/device"
	"stordep/internal/failure"
	"stordep/internal/hierarchy"
	"stordep/internal/protect"
	"stordep/internal/units"
	"stordep/internal/workload"
)

// Site names used by the case-study placements.
const (
	PrimarySite  = "primary-site"
	VaultSite    = "vault-site"
	MirrorSite   = "mirror-site"
	RecoverySite = "recovery-site"
)

// Placements for the case-study fleet.
var (
	primaryArrayAt = failure.Placement{Array: "arr-primary", Building: "bldg-1", Site: PrimarySite, Region: "west"}
	tapeLibraryAt  = failure.Placement{Array: "lib-1", Building: "bldg-1", Site: PrimarySite, Region: "west"}
	vaultAt        = failure.Placement{Array: "vault-1", Building: "vault-bldg", Site: VaultSite, Region: "east"}
	mirrorArrayAt  = failure.Placement{Array: "arr-mirror", Building: "mirror-bldg", Site: MirrorSite, Region: "central"}
)

// recoveryFacility is the shared remote hosting facility of §4: nine hours
// to drain and scrub, priced at 20% of the dedicated resources it stands
// in for.
func recoveryFacility() *core.Facility {
	return &core.Facility{
		Placement:     failure.Placement{Site: RecoverySite, Region: "central"},
		ProvisionTime: 9 * time.Hour,
		CostFactor:    0.2,
	}
}

// SplitMirrorPolicy returns the Table 3 split-mirror policy: splits every
// 12 hours, four accessible mirrors retained two days.
func SplitMirrorPolicy() hierarchy.Policy {
	return hierarchy.Policy{
		Primary: hierarchy.WindowSet{AccW: 12 * time.Hour, Rep: hierarchy.RepFull},
		RetCnt:  4,
		RetW:    2 * units.Day,
		CopyRep: hierarchy.RepFull,
	}
}

// BackupPolicy returns the Table 3 tape-backup policy: weekly fulls with a
// 48-hour backup window and a one-hour offset, retained four weeks.
func BackupPolicy() hierarchy.Policy {
	return hierarchy.Policy{
		Primary: hierarchy.WindowSet{
			AccW:  units.Week,
			PropW: 48 * time.Hour,
			HoldW: time.Hour,
			Rep:   hierarchy.RepFull,
		},
		RetCnt:  4,
		RetW:    4 * units.Week,
		CopyRep: hierarchy.RepFull,
	}
}

// VaultPolicy returns the Table 3 remote-vaulting policy: expired monthly
// fulls ship on the mid-day overnight flight and are retained three years.
func VaultPolicy() hierarchy.Policy {
	return hierarchy.Policy{
		Primary: hierarchy.WindowSet{
			AccW:  4 * units.Week,
			PropW: 24 * time.Hour,
			HoldW: 4*units.Week + 12*time.Hour,
			Rep:   hierarchy.RepFull,
		},
		RetCnt:  39,
		RetW:    3 * units.Year,
		CopyRep: hierarchy.RepFull,
	}
}

// baseFleet returns the Table 4 devices for the tape-based designs.
func baseFleet() []core.PlacedDevice {
	return []core.PlacedDevice{
		{Spec: device.MidrangeArray(), Placement: primaryArrayAt},
		{Spec: device.TapeLibrary(), Placement: tapeLibraryAt},
		{Spec: device.TapeVault(), Placement: vaultAt},
		{Spec: device.AirShipment()},
	}
}

// Baseline returns the paper's baseline design (Figure 1, Tables 2–4):
// cello on a mid-range array with 12-hour split mirrors, weekly tape
// backup and 4-weekly vaulting, $50k/hr penalty rates, hot spares on the
// primary-site devices and a shared recovery facility.
func Baseline() *core.Design {
	return &core.Design{
		Name:         "Baseline",
		Workload:     workload.Cello(),
		Requirements: cost.CaseStudyRequirements(),
		Devices:      baseFleet(),
		Primary:      &protect.Primary{Array: device.NameDiskArray},
		Levels: []protect.Technique{
			&protect.SplitMirror{Array: device.NameDiskArray, Pol: SplitMirrorPolicy()},
			&protect.Backup{SourceArray: device.NameDiskArray, Target: device.NameTapeLibrary, Pol: BackupPolicy()},
			&protect.Vaulting{
				BackupDevice: device.NameTapeLibrary,
				Vault:        device.NameTapeVault,
				Transport:    device.NameAirShipment,
				Pol:          VaultPolicy(),
				BackupRetW:   BackupPolicy().RetW,
			},
		},
		Facility: recoveryFacility(),
	}
}

// WeeklyVaultPolicy returns the Table 7 weekly vault: the vault
// accumulation window shortened to one week with a 12-hour hold,
// keeping the three-year retention (so 156 retained fulls).
func WeeklyVaultPolicy() hierarchy.Policy {
	p := VaultPolicy()
	p.Primary.AccW = units.Week
	p.Primary.HoldW = 12 * time.Hour
	p.RetCnt = 156
	return p
}

// withVaulting swaps the vault level of a baseline-shaped design.
func withVaulting(d *core.Design, pol hierarchy.Policy, backupRetW time.Duration) {
	d.Levels[2] = &protect.Vaulting{
		BackupDevice: device.NameTapeLibrary,
		Vault:        device.NameTapeVault,
		Transport:    device.NameAirShipment,
		Pol:          pol,
		BackupRetW:   backupRetW,
	}
}

// WeeklyVault is Table 7 row 2: the baseline with weekly vaulting.
func WeeklyVault() *core.Design {
	d := Baseline()
	d.Name = "Weekly vault"
	withVaulting(d, WeeklyVaultPolicy(), BackupPolicy().RetW)
	return d
}

// FIBackupPolicy returns the Table 7 F+I backup: weekly fulls (48-hr
// accW and propW) plus five daily cumulative incrementals (24-hr accW,
// 12-hr propW).
func FIBackupPolicy() hierarchy.Policy {
	p := BackupPolicy()
	p.Primary.AccW = 48 * time.Hour
	p.Primary.PropW = 48 * time.Hour
	p.Secondary = &hierarchy.WindowSet{
		AccW:  24 * time.Hour,
		PropW: 12 * time.Hour,
		HoldW: time.Hour,
		Rep:   hierarchy.RepPartial,
	}
	p.CycleCnt = 5
	return p
}

// WeeklyVaultFI is Table 7 row 3: weekly vault plus full+incremental
// backups.
func WeeklyVaultFI() *core.Design {
	d := WeeklyVault()
	d.Name = "Weekly vault, F+I"
	d.Levels[1] = &protect.Backup{
		SourceArray: device.NameDiskArray,
		Target:      device.NameTapeLibrary,
		Pol:         FIBackupPolicy(),
	}
	return d
}

// DailyFBackupPolicy returns the Table 7 daily-full backup: 24-hr accW,
// 12-hr propW, no incrementals, four weeks of retention (28 fulls).
func DailyFBackupPolicy() hierarchy.Policy {
	p := BackupPolicy()
	p.Primary.AccW = 24 * time.Hour
	p.Primary.PropW = 12 * time.Hour
	p.RetCnt = 28
	return p
}

// WeeklyVaultDailyF is Table 7 row 4: weekly vault plus daily full
// backups.
func WeeklyVaultDailyF() *core.Design {
	d := WeeklyVault()
	d.Name = "Weekly vault, daily F"
	d.Levels[1] = &protect.Backup{
		SourceArray: device.NameDiskArray,
		Target:      device.NameTapeLibrary,
		Pol:         DailyFBackupPolicy(),
	}
	return d
}

// WeeklyVaultDailyFSnapshot is Table 7 row 5: virtual snapshots instead of
// split mirrors, with weekly vault and daily fulls.
func WeeklyVaultDailyFSnapshot() *core.Design {
	d := WeeklyVaultDailyF()
	d.Name = "Weekly vault, daily F, snapshot"
	d.Levels[0] = &protect.Snapshot{Array: device.NameDiskArray, Pol: SplitMirrorPolicy()}
	return d
}

// AsyncBatchMirrorPolicy is the Table 7 asyncB policy: one-minute batches
// over the WAN. The mirror is a rolling current copy; in RP terms it holds
// the applied state plus the batch being applied (retCnt 2), giving the
// paper's two-minute worst-case loss (one accumulation plus one
// propagation window).
func AsyncBatchMirrorPolicy() hierarchy.Policy {
	return hierarchy.Policy{
		Primary: hierarchy.WindowSet{
			AccW:  time.Minute,
			PropW: time.Minute,
			Rep:   hierarchy.RepPartial,
		},
		RetCnt:  2,
		RetW:    2 * time.Minute,
		CopyRep: hierarchy.RepFull,
	}
}

// AsyncBMirror is Table 7 rows 6–7: asynchronous batched mirroring over n
// OC-3 links to a remote array, replacing the tape hierarchy entirely.
func AsyncBMirror(links int) *core.Design {
	return &core.Design{
		Name:         fmt.Sprintf("AsyncB mirror, %d link(s)", links),
		Workload:     workload.Cello(),
		Requirements: cost.CaseStudyRequirements(),
		Devices: []core.PlacedDevice{
			{Spec: device.MidrangeArray(), Placement: primaryArrayAt},
			{Spec: device.RemoteMirrorArray(), Placement: mirrorArrayAt},
			{Spec: device.WANLinks(links)},
		},
		Primary: &protect.Primary{Array: device.NameDiskArray},
		Levels: []protect.Technique{
			&protect.Mirror{
				Mode:      protect.MirrorAsyncBatch,
				DestArray: device.NameMirrorArray,
				Links:     device.NameWANLinks,
				Pol:       AsyncBatchMirrorPolicy(),
			},
		},
		Facility: recoveryFacility(),
	}
}

// WhatIfDesigns returns every Table 7 design in row order.
func WhatIfDesigns() []*core.Design {
	return []*core.Design{
		Baseline(),
		WeeklyVault(),
		WeeklyVaultFI(),
		WeeklyVaultDailyF(),
		WeeklyVaultDailyFSnapshot(),
		AsyncBMirror(1),
		AsyncBMirror(10),
	}
}
