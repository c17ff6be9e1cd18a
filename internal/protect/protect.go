// Package protect models the data protection techniques of §3.2: the
// primary copy, split-mirror and virtual-snapshot point-in-time copies,
// synchronous / asynchronous / batched-asynchronous inter-array mirroring,
// backup with full and incremental cycles, and remote vaulting.
//
// The key insight of the paper is that all of these share one abstraction:
// they create, retain and propagate retrieval points (RPs), configured by
// a single parameter set (hierarchy.Policy). What differs per technique is
// how policy parameters translate into bandwidth and capacity demands on
// the underlying devices (§3.2.3), and what must be moved at recovery
// time. This package encodes exactly those differences.
package protect

import (
	"errors"
	"fmt"
	"time"

	"stordep/internal/device"
	"stordep/internal/hierarchy"
	"stordep/internal/units"
	"stordep/internal/workload"
)

// Kind enumerates the modeled techniques.
type Kind int

// Technique kinds.
const (
	KindPrimary Kind = iota + 1
	KindSplitMirror
	KindSnapshot
	KindSyncMirror
	KindAsyncMirror
	KindAsyncBatchMirror
	KindBackup
	KindVaulting
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case KindPrimary:
		return "foreground"
	case KindSplitMirror:
		return "split-mirror"
	case KindSnapshot:
		return "virtual-snapshot"
	case KindSyncMirror:
		return "sync-mirror"
	case KindAsyncMirror:
		return "async-mirror"
	case KindAsyncBatchMirror:
		return "async-batch-mirror"
	case KindBackup:
		return "backup"
	case KindVaulting:
		return "vaulting"
	case KindErasureCode:
		return "erasure-code"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// DeviceMap resolves device names to configured devices while demands are
// being applied. It lists a design's devices in design order; a design's
// device names are unique (core.Design.Validate rejects duplicates), and
// a design has a handful of devices, so a linear scan finds a name
// faster than a hash lookup would.
type DeviceMap []*device.Device

// ErrUnknownDevice is returned when a technique references a device name
// absent from the design.
var ErrUnknownDevice = errors.New("protect: unknown device")

// Get returns the named device.
func (m DeviceMap) Get(name string) (*device.Device, error) {
	for _, d := range m {
		if d.Name() == name {
			return d, nil
		}
	}
	return nil, fmt.Errorf("%w: %q", ErrUnknownDevice, name)
}

// Technique is a configured data protection technique. Implementations
// convert their policy into device demands and describe their recovery
// behaviour.
type Technique interface {
	// Name is the unique instance name used in the hierarchy, demand
	// attribution and reports.
	Name() string
	// Kind identifies the model.
	Kind() Kind
	// Level returns the hierarchy level this technique contributes
	// (zero-value Level with empty name for the primary copy, which is
	// level 0 by convention).
	Level() hierarchy.Level
	// ApplyDemands computes the technique's normal-mode bandwidth and
	// capacity demands (§3.2.3) and registers them on its devices.
	ApplyDemands(w *workload.Workload, devs DeviceMap) error
	// CopyDevice names the device holding this technique's retained RPs
	// (the recovery source when this level serves a restore).
	CopyDevice() string
	// ReadDevice names the device that streams the data during a restore
	// from this level. It differs from CopyDevice only when the retained
	// media cannot be read in place: vaulted tapes must return to a tape
	// library.
	ReadDevice() string
	// TransportDevice names the interconnect or transport crossed when
	// restoring from this level ("" when the copy is directly reachable,
	// e.g. on the same array or SAN).
	TransportDevice() string
	// RestoreSize returns the volume that must be transferred to rebuild
	// the full data object from this level's RPs: a full copy plus, for
	// cyclic policies, the worst-case incremental chain.
	RestoreSize(w *workload.Workload) units.ByteSize
	// Validate checks the technique's configuration.
	Validate() error
}

// Common validation errors.
var (
	ErrNoDeviceName = errors.New("protect: technique needs its device names configured")
	ErrSameDevice   = errors.New("protect: source and destination must differ")
)

// ---------------------------------------------------------------------------
// Primary copy (level 0)

// Primary is the foreground workload's primary copy on a disk array. It is
// not a protection technique, but it competes for the same device
// resources, so it participates in demand accounting under the technique
// name "foreground".
type Primary struct {
	// Array names the disk array holding the primary copy.
	Array string
}

var _ Technique = (*Primary)(nil)

// Name implements Technique.
func (p *Primary) Name() string { return KindPrimary.String() }

// Kind implements Technique.
func (p *Primary) Kind() Kind { return KindPrimary }

// Level implements Technique; the primary copy is level 0, outside the
// secondary chain.
func (p *Primary) Level() hierarchy.Level { return hierarchy.Level{} }

// ApplyDemands places the foreground access bandwidth and the object's
// capacity on the primary array.
func (p *Primary) ApplyDemands(w *workload.Workload, devs DeviceMap) error {
	arr, err := devs.Get(p.Array)
	if err != nil {
		return err
	}
	arr.AddDemand(device.Demand{
		Technique: p.Name(),
		Bandwidth: w.AvgAccessRate,
		Capacity:  w.DataCap,
	})
	return nil
}

// CopyDevice implements Technique.
func (p *Primary) CopyDevice() string { return p.Array }

// TransportDevice implements Technique.
func (p *Primary) TransportDevice() string { return "" }

// ReadDevice implements Technique.
func (p *Primary) ReadDevice() string { return p.Array }

// RestoreSize implements Technique: the primary copy is the object itself.
func (p *Primary) RestoreSize(w *workload.Workload) units.ByteSize { return w.DataCap }

// Validate implements Technique.
func (p *Primary) Validate() error {
	if p.Array == "" {
		return fmt.Errorf("%w (primary array)", ErrNoDeviceName)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Split mirror PiT copies

// SplitMirror maintains a circular buffer of split mirrors on the primary
// array (§3.2.3): retCnt accessible mirrors plus one undergoing
// resilvering, each a full copy of the object.
type SplitMirror struct {
	// InstanceName optionally overrides the default instance name, so two
	// techniques of the same kind can coexist in one design.
	InstanceName string
	// Array names the disk array holding the mirrors (same array as the
	// primary copy in the paper's designs).
	Array string
	// Pol is the RP policy (accW = split period, retCnt mirrors, ...).
	Pol hierarchy.Policy
}

var _ Technique = (*SplitMirror)(nil)

// Name implements Technique.
func (s *SplitMirror) Name() string { return nameOr(s.InstanceName, KindSplitMirror) }

// Kind implements Technique.
func (s *SplitMirror) Kind() Kind { return KindSplitMirror }

// Level implements Technique.
func (s *SplitMirror) Level() hierarchy.Level {
	return hierarchy.Level{Name: s.Name(), Policy: s.Pol}
}

// ApplyDemands registers capacity for retCnt+1 full mirrors plus the
// resilvering bandwidth. When a mirror becomes eligible for resilvering it
// must absorb all unique updates since it was split retCnt+1 accumulation
// windows ago; each byte is read from the primary copy and written to the
// mirror, and one mirror is resilvered every accW.
func (s *SplitMirror) ApplyDemands(w *workload.Workload, devs DeviceMap) error {
	arr, err := devs.Get(s.Array)
	if err != nil {
		return err
	}
	span := time.Duration(s.Pol.RetCnt+1) * s.Pol.Primary.AccW
	resilverVol := w.UniqueBytes(span)
	rate := 2 * units.RateOf(resilverVol, s.Pol.Primary.AccW) // read + write
	arr.AddDemand(device.Demand{
		Technique: s.Name(),
		Bandwidth: rate,
		Capacity:  units.ByteSize(s.Pol.RetCnt+1) * w.DataCap,
	})
	return nil
}

// CopyDevice implements Technique.
func (s *SplitMirror) CopyDevice() string { return s.Array }

// TransportDevice implements Technique.
func (s *SplitMirror) TransportDevice() string { return "" }

// ReadDevice implements Technique.
func (s *SplitMirror) ReadDevice() string { return s.Array }

// RestoreSize implements Technique: each mirror is a full copy.
func (s *SplitMirror) RestoreSize(w *workload.Workload) units.ByteSize { return w.DataCap }

// Validate implements Technique.
func (s *SplitMirror) Validate() error {
	if s.Array == "" {
		return fmt.Errorf("%w (split mirror array)", ErrNoDeviceName)
	}
	if err := s.Pol.Validate(); err != nil {
		return fmt.Errorf("split mirror: %w", err)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Virtual snapshot PiT copies

// Snapshot maintains copy-on-write virtual snapshots on the primary array.
// The model is the update-in-place variant of §3.2.3: old values are
// copied out before each update, costing an additional read and write per
// foreground write; capacity grows only with unique updates, since
// unmodified data shares physical storage with the primary copy.
type Snapshot struct {
	InstanceName string
	// Array names the disk array holding the snapshots.
	Array string
	// Pol is the RP policy (accW = snapshot period, retCnt snapshots).
	Pol hierarchy.Policy
}

var _ Technique = (*Snapshot)(nil)

// Name implements Technique.
func (s *Snapshot) Name() string { return nameOr(s.InstanceName, KindSnapshot) }

// Kind implements Technique.
func (s *Snapshot) Kind() Kind { return KindSnapshot }

// Level implements Technique.
func (s *Snapshot) Level() hierarchy.Level {
	return hierarchy.Level{Name: s.Name(), Policy: s.Pol}
}

// ApplyDemands registers the copy-on-write overhead (2 x the update rate)
// and the capacity to hold each retained snapshot's delta against the
// current primary: the k-th oldest snapshot has diverged by the unique
// updates of k accumulation windows.
func (s *Snapshot) ApplyDemands(w *workload.Workload, devs DeviceMap) error {
	arr, err := devs.Get(s.Array)
	if err != nil {
		return err
	}
	var cap units.ByteSize
	for k := 1; k <= s.Pol.RetCnt; k++ {
		cap += w.UniqueBytes(time.Duration(k) * s.Pol.Primary.AccW)
	}
	arr.AddDemand(device.Demand{
		Technique: s.Name(),
		Bandwidth: 2 * w.AvgUpdateRate,
		Capacity:  cap,
	})
	return nil
}

// CopyDevice implements Technique.
func (s *Snapshot) CopyDevice() string { return s.Array }

// TransportDevice implements Technique.
func (s *Snapshot) TransportDevice() string { return "" }

// ReadDevice implements Technique.
func (s *Snapshot) ReadDevice() string { return s.Array }

// RestoreSize implements Technique. A snapshot restore rolls back only the
// diverged data, bounded by one retention span of unique updates.
func (s *Snapshot) RestoreSize(w *workload.Workload) units.ByteSize {
	span := time.Duration(s.Pol.RetCnt) * s.Pol.Primary.AccW
	return w.UniqueBytes(span)
}

// Validate implements Technique.
func (s *Snapshot) Validate() error {
	if s.Array == "" {
		return fmt.Errorf("%w (snapshot array)", ErrNoDeviceName)
	}
	if err := s.Pol.Validate(); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Inter-array mirroring

// MirrorMode selects the mirroring protocol (§2).
type MirrorMode int

// Mirroring protocols.
const (
	// MirrorSync applies each update to the secondary before write
	// completion; links must absorb the peak (burst) update rate.
	MirrorSync MirrorMode = iota + 1
	// MirrorAsync propagates updates in the background; links must absorb
	// the average update rate.
	MirrorAsync
	// MirrorAsyncBatch coalesces overwrites within an accumulation window
	// and ships batches, lowering the link rate to the batch update rate.
	MirrorAsyncBatch
)

// String returns the mode name.
func (m MirrorMode) String() string {
	switch m {
	case MirrorSync:
		return "sync"
	case MirrorAsync:
		return "async"
	case MirrorAsyncBatch:
		return "async-batch"
	default:
		return fmt.Sprintf("MirrorMode(%d)", int(m))
	}
}

// Mirror is inter-array mirroring from the primary array to a destination
// array across interconnect links. Per §3.2.3, mirroring places bandwidth
// demands on the links and the destination array and capacity equal to
// the data object on the destination array; the source array's client
// interface is not charged (arrays use alternate interfaces for
// replication).
type Mirror struct {
	InstanceName string
	// Mode selects the protocol.
	Mode MirrorMode
	// DestArray names the destination array; Links names the interconnect.
	DestArray string
	Links     string
	// Pol is the RP policy. For async-batch the primary accW is the batch
	// window; sync and async mirrors track continuously (use a small accW
	// such as a few seconds to represent their propagation delay).
	Pol hierarchy.Policy
}

var _ Technique = (*Mirror)(nil)

// Name implements Technique.
func (m *Mirror) Name() string {
	if m.InstanceName != "" {
		return m.InstanceName
	}
	switch m.Mode {
	case MirrorSync:
		return KindSyncMirror.String()
	case MirrorAsync:
		return KindAsyncMirror.String()
	default:
		return KindAsyncBatchMirror.String()
	}
}

// Kind implements Technique.
func (m *Mirror) Kind() Kind {
	switch m.Mode {
	case MirrorSync:
		return KindSyncMirror
	case MirrorAsync:
		return KindAsyncMirror
	default:
		return KindAsyncBatchMirror
	}
}

// Level implements Technique.
func (m *Mirror) Level() hierarchy.Level {
	return hierarchy.Level{Name: m.Name(), Policy: m.Pol}
}

// LinkRate returns the sustained interconnect bandwidth the protocol
// needs for the given workload.
func (m *Mirror) LinkRate(w *workload.Workload) units.Rate {
	switch m.Mode {
	case MirrorSync:
		return w.PeakUpdateRate()
	case MirrorAsync:
		return w.AvgUpdateRate
	default:
		return w.BatchUpdateRate(m.Pol.Primary.AccW)
	}
}

// ApplyDemands registers the protocol's rate on the links and the
// destination array, and a full object of capacity on the destination.
func (m *Mirror) ApplyDemands(w *workload.Workload, devs DeviceMap) error {
	dest, err := devs.Get(m.DestArray)
	if err != nil {
		return err
	}
	links, err := devs.Get(m.Links)
	if err != nil {
		return err
	}
	rate := m.LinkRate(w)
	links.AddDemand(device.Demand{Technique: m.Name(), Bandwidth: rate})
	// Per §3.2.3, a mirror's capacity demand equals the data capacity (it
	// is a rolling current copy, whatever its RP bookkeeping says); the
	// batch-smoothing buffer is negligible against the array cache.
	dest.AddDemand(device.Demand{
		Technique: m.Name(),
		Bandwidth: rate,
		Capacity:  w.DataCap,
	})
	return nil
}

// CopyDevice implements Technique.
func (m *Mirror) CopyDevice() string { return m.DestArray }

// ReadDevice implements Technique.
func (m *Mirror) ReadDevice() string { return m.DestArray }

// TransportDevice implements Technique: restores from the mirror cross the
// links.
func (m *Mirror) TransportDevice() string { return m.Links }

// RestoreSize implements Technique: the mirror is a full copy.
func (m *Mirror) RestoreSize(w *workload.Workload) units.ByteSize { return w.DataCap }

// Validate implements Technique.
func (m *Mirror) Validate() error {
	if m.Mode < MirrorSync || m.Mode > MirrorAsyncBatch {
		return fmt.Errorf("protect: unknown mirror mode %d", int(m.Mode))
	}
	if m.DestArray == "" || m.Links == "" {
		return fmt.Errorf("%w (mirror destination and links)", ErrNoDeviceName)
	}
	if err := m.Pol.Validate(); err != nil {
		return fmt.Errorf("mirror: %w", err)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Backup

// Backup copies RPs from a source array to a backup device (tape library
// or disk). The policy's primary window set describes full backups; an
// optional secondary set describes cumulative incrementals (CycleCnt per
// cycle).
type Backup struct {
	InstanceName string
	// SourceArray is read during backup windows; Target stores the backup
	// copies.
	SourceArray string
	Target      string
	// Pol is the RP policy.
	Pol hierarchy.Policy
}

var _ Technique = (*Backup)(nil)

// Name implements Technique.
func (b *Backup) Name() string { return nameOr(b.InstanceName, KindBackup) }

// Kind implements Technique.
func (b *Backup) Kind() Kind { return KindBackup }

// Level implements Technique.
func (b *Backup) Level() hierarchy.Level {
	return hierarchy.Level{Name: b.Name(), Policy: b.Pol}
}

// fullRate is the bandwidth needed to move a full backup within its
// propagation window.
func (b *Backup) fullRate(w *workload.Workload) units.Rate {
	return units.RateOf(w.DataCap, b.Pol.Primary.PropW)
}

// largestIncrement returns the size of the largest cumulative incremental
// in a cycle: all unique updates since the last full, accumulated over
// cycleCnt secondary windows.
func (b *Backup) largestIncrement(w *workload.Workload) units.ByteSize {
	if b.Pol.Secondary == nil {
		return 0
	}
	span := time.Duration(b.Pol.CycleCnt) * b.Pol.Secondary.AccW
	return w.UniqueBytes(span)
}

// rate is the per-device bandwidth demand: the maximum of the full-backup
// rate and the largest-incremental rate (§3.2.3).
func (b *Backup) rate(w *workload.Workload) units.Rate {
	r := b.fullRate(w)
	if b.Pol.Secondary != nil {
		if ir := units.RateOf(b.largestIncrement(w), b.Pol.Secondary.PropW); ir > r {
			r = ir
		}
	}
	return r
}

// ApplyDemands registers the backup read rate on the source array and the
// write rate plus retention capacity on the target. Target capacity is
// retCnt cycles of data — each cycle one full plus its growing
// incrementals — plus one extra full copy so a failure during a running
// full backup never leaves the system without a complete RP. The source
// array is charged no capacity: a PiT technique provides the consistent
// copy being read.
func (b *Backup) ApplyDemands(w *workload.Workload, devs DeviceMap) error {
	src, err := devs.Get(b.SourceArray)
	if err != nil {
		return err
	}
	tgt, err := devs.Get(b.Target)
	if err != nil {
		return err
	}
	rate := b.rate(w)
	src.AddDemand(device.Demand{Technique: b.Name(), Bandwidth: rate})

	perCycle := w.DataCap
	if b.Pol.Secondary != nil {
		for k := 1; k <= b.Pol.CycleCnt; k++ {
			perCycle += w.UniqueBytes(time.Duration(k) * b.Pol.Secondary.AccW)
		}
	}
	tgt.AddDemand(device.Demand{
		Technique: b.Name(),
		Bandwidth: rate,
		Capacity:  units.ByteSize(b.Pol.RetCnt)*perCycle + w.DataCap,
	})
	return nil
}

// CopyDevice implements Technique.
func (b *Backup) CopyDevice() string { return b.Target }

// TransportDevice implements Technique.
func (b *Backup) TransportDevice() string { return "" }

// ReadDevice implements Technique.
func (b *Backup) ReadDevice() string { return b.Target }

// RestoreSize implements Technique: the worst case restores one full plus
// the largest cumulative incremental.
func (b *Backup) RestoreSize(w *workload.Workload) units.ByteSize {
	return w.DataCap + b.largestIncrement(w)
}

// Validate implements Technique.
func (b *Backup) Validate() error {
	if b.SourceArray == "" || b.Target == "" {
		return fmt.Errorf("%w (backup source and target)", ErrNoDeviceName)
	}
	if b.SourceArray == b.Target {
		return fmt.Errorf("%w (backup %q)", ErrSameDevice, b.SourceArray)
	}
	if err := b.Pol.Validate(); err != nil {
		return fmt.Errorf("backup: %w", err)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Remote vaulting

// Vaulting periodically ships the expiring full backups from the backup
// device to an off-site vault via a physical transport (§3.2.3). Only full
// backups are vaulted.
type Vaulting struct {
	InstanceName string
	// BackupDevice is the tape library the tapes leave from; Vault stores
	// them; Transport is the shipment method.
	BackupDevice string
	Vault        string
	Transport    string
	// Pol is the RP policy: accW is the shipment cycle, holdW the tape age
	// at shipment, propW the transit window.
	Pol hierarchy.Policy
	// BackupRetW is the retention window of the backup level feeding the
	// vault: when HoldW < BackupRetW the library must cut an extra tape
	// copy so originals can leave before their retention expires.
	BackupRetW time.Duration
}

var _ Technique = (*Vaulting)(nil)

// Name implements Technique.
func (v *Vaulting) Name() string { return nameOr(v.InstanceName, KindVaulting) }

// Kind implements Technique.
func (v *Vaulting) Kind() Kind { return KindVaulting }

// Level implements Technique.
func (v *Vaulting) Level() hierarchy.Level {
	return hierarchy.Level{Name: v.Name(), Policy: v.Pol}
}

// ShipmentsPerYear returns how many shipments the policy generates
// annually.
func (v *Vaulting) ShipmentsPerYear() float64 {
	if v.Pol.Primary.AccW <= 0 {
		return 0
	}
	return float64(units.Year) / float64(v.Pol.Primary.AccW)
}

// ApplyDemands registers vault capacity for retCnt retained fulls and the
// shipment count on the transport. If tapes must leave before backup
// retention expires (holdW < backup retW), the library is charged an
// extra full copy and the amortized bandwidth to cut it.
func (v *Vaulting) ApplyDemands(w *workload.Workload, devs DeviceMap) error {
	vault, err := devs.Get(v.Vault)
	if err != nil {
		return err
	}
	transport, err := devs.Get(v.Transport)
	if err != nil {
		return err
	}
	vault.AddDemand(device.Demand{
		Technique: v.Name(),
		Capacity:  units.ByteSize(v.Pol.RetCnt) * w.DataCap,
	})
	transport.AddDemand(device.Demand{
		Technique:        v.Name(),
		ShipmentsPerYear: v.ShipmentsPerYear(),
	})
	if v.BackupRetW > 0 && v.Pol.Primary.HoldW < v.BackupRetW {
		lib, err := devs.Get(v.BackupDevice)
		if err != nil {
			return err
		}
		lib.AddDemand(device.Demand{
			Technique: v.Name(),
			Bandwidth: units.RateOf(w.DataCap, v.Pol.Primary.AccW),
			Capacity:  w.DataCap,
		})
	}
	return nil
}

// CopyDevice implements Technique.
func (v *Vaulting) CopyDevice() string { return v.Vault }

// ReadDevice implements Technique: vaulted tapes are read back at the
// backup library (or its replacement).
func (v *Vaulting) ReadDevice() string { return v.BackupDevice }

// TransportDevice implements Technique: restores from the vault require a
// shipment back.
func (v *Vaulting) TransportDevice() string { return v.Transport }

// RestoreSize implements Technique: vaults hold full backups only.
func (v *Vaulting) RestoreSize(w *workload.Workload) units.ByteSize { return w.DataCap }

// Validate implements Technique.
func (v *Vaulting) Validate() error {
	if v.BackupDevice == "" || v.Vault == "" || v.Transport == "" {
		return fmt.Errorf("%w (vaulting library, vault and transport)", ErrNoDeviceName)
	}
	if err := v.Pol.Validate(); err != nil {
		return fmt.Errorf("vaulting: %w", err)
	}
	if v.BackupRetW < 0 {
		return fmt.Errorf("vaulting: backup retention window must be non-negative, got %v", v.BackupRetW)
	}
	return nil
}

// nameOr returns the explicit instance name or the kind's default.
func nameOr(instance string, k Kind) string {
	if instance != "" {
		return instance
	}
	return k.String()
}
