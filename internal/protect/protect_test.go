package protect

import (
	"errors"
	"math"
	"testing"
	"time"

	"stordep/internal/device"
	"stordep/internal/hierarchy"
	"stordep/internal/units"
	"stordep/internal/workload"
)

// Baseline policies from Table 3.
func splitMirrorPolicy() hierarchy.Policy {
	return hierarchy.Policy{
		Primary: hierarchy.WindowSet{AccW: 12 * time.Hour, Rep: hierarchy.RepFull},
		RetCnt:  4,
		RetW:    2 * units.Day,
		CopyRep: hierarchy.RepFull,
	}
}

func backupPolicy() hierarchy.Policy {
	return hierarchy.Policy{
		Primary: hierarchy.WindowSet{AccW: units.Week, PropW: 48 * time.Hour, HoldW: time.Hour, Rep: hierarchy.RepFull},
		RetCnt:  4,
		RetW:    4 * units.Week,
		CopyRep: hierarchy.RepFull,
	}
}

func vaultPolicy() hierarchy.Policy {
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

func testDevices(t *testing.T) DeviceMap {
	t.Helper()
	var m DeviceMap
	for _, spec := range []device.Spec{
		device.MidrangeArray(), device.TapeLibrary(), device.TapeVault(),
		device.AirShipment(), device.WANLinks(1), device.RemoteMirrorArray(),
	} {
		d, err := device.New(spec)
		if err != nil {
			t.Fatal(err)
		}
		m = append(m, d)
	}
	return m
}

// named returns m's device called name, failing the test when m has none.
func named(t *testing.T, m DeviceMap, name string) *device.Device {
	t.Helper()
	d, err := m.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func demandFor(t *testing.T, d *device.Device, technique string) device.Demand {
	t.Helper()
	var sum device.Demand
	found := false
	for _, dem := range d.Demands() {
		if dem.Technique == technique {
			sum.Bandwidth += dem.Bandwidth
			sum.Capacity += dem.Capacity
			sum.ShipmentsPerYear += dem.ShipmentsPerYear
			found = true
		}
	}
	if !found {
		t.Fatalf("no demand for %q on %s", technique, d.Name())
	}
	sum.Technique = technique
	return sum
}

func TestDeviceMapGet(t *testing.T) {
	m := testDevices(t)
	if _, err := m.Get(device.NameDiskArray); err != nil {
		t.Errorf("Get(disk-array) = %v", err)
	}
	if _, err := m.Get("nope"); !errors.Is(err, ErrUnknownDevice) {
		t.Errorf("Get(nope) = %v, want ErrUnknownDevice", err)
	}
}

func TestKindStrings(t *testing.T) {
	tests := []struct{ got, want string }{
		{KindPrimary.String(), "foreground"},
		{KindSplitMirror.String(), "split-mirror"},
		{KindSnapshot.String(), "virtual-snapshot"},
		{KindSyncMirror.String(), "sync-mirror"},
		{KindAsyncMirror.String(), "async-mirror"},
		{KindAsyncBatchMirror.String(), "async-batch-mirror"},
		{KindBackup.String(), "backup"},
		{KindVaulting.String(), "vaulting"},
		{Kind(0).String(), "Kind(0)"},
		{MirrorSync.String(), "sync"},
		{MirrorAsync.String(), "async"},
		{MirrorAsyncBatch.String(), "async-batch"},
		{MirrorMode(0).String(), "MirrorMode(0)"},
	}
	for _, tt := range tests {
		if tt.got != tt.want {
			t.Errorf("got %q, want %q", tt.got, tt.want)
		}
	}
}

func TestPrimaryDemands(t *testing.T) {
	w := workload.Cello()
	devs := testDevices(t)
	p := &Primary{Array: device.NameDiskArray}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := p.ApplyDemands(w, devs); err != nil {
		t.Fatal(err)
	}
	dem := demandFor(t, named(t, devs, device.NameDiskArray), "foreground")
	if dem.Bandwidth != w.AvgAccessRate {
		t.Errorf("foreground bw = %v, want %v", dem.Bandwidth, w.AvgAccessRate)
	}
	if dem.Capacity != w.DataCap {
		t.Errorf("foreground cap = %v, want %v", dem.Capacity, w.DataCap)
	}
	if p.RestoreSize(w) != w.DataCap {
		t.Error("primary restore size should be the object")
	}
	if p.Level().Name != "" {
		t.Error("primary should not contribute a hierarchy level")
	}
}

// TestSplitMirrorMatchesTable5 checks the split-mirror demands against the
// published utilization: 72.8% capacity (five full mirrors, RAID-1) and
// 0.6% bandwidth (resilvering at ~3.2 MB/s) on the 512 MB/s array.
func TestSplitMirrorMatchesTable5(t *testing.T) {
	w := workload.Cello()
	devs := testDevices(t)
	sm := &SplitMirror{Array: device.NameDiskArray, Pol: splitMirrorPolicy()}
	if err := sm.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := sm.ApplyDemands(w, devs); err != nil {
		t.Fatal(err)
	}
	dem := demandFor(t, named(t, devs, device.NameDiskArray), sm.Name())
	if want := 5 * 1360 * units.GB; dem.Capacity != want {
		t.Errorf("split mirror cap = %v, want %v", dem.Capacity, want)
	}
	// Resilver: 2 x batchUpdR(60h) x 5 = 2 x 317 x 5 = 3170 KB/s.
	if want := 3170 * units.KBPerSec; math.Abs(float64(dem.Bandwidth-want)) > float64(units.KBPerSec) {
		t.Errorf("split mirror bw = %v, want ~%v", dem.Bandwidth, want)
	}
	arr := named(t, devs, device.NameDiskArray)
	if u := arr.Utilizations()[0]; math.Abs(u.CapUtil-0.728) > 0.001 {
		t.Errorf("split mirror capUtil = %.4f, want 0.728", u.CapUtil)
	}
	if u := arr.Utilizations()[0]; math.Abs(u.BWUtil-0.006) > 0.001 {
		t.Errorf("split mirror bwUtil = %.4f, want 0.006", u.BWUtil)
	}
}

func TestSnapshotDemands(t *testing.T) {
	w := workload.Cello()
	devs := testDevices(t)
	sn := &Snapshot{Array: device.NameDiskArray, Pol: splitMirrorPolicy()}
	if err := sn.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := sn.ApplyDemands(w, devs); err != nil {
		t.Fatal(err)
	}
	dem := demandFor(t, named(t, devs, device.NameDiskArray), sn.Name())
	// Copy-on-write costs one extra read and write per foreground write.
	if want := 2 * w.AvgUpdateRate; dem.Bandwidth != want {
		t.Errorf("snapshot bw = %v, want %v", dem.Bandwidth, want)
	}
	// Capacity: sum of deltas for 4 snapshots at 12h spacing; far below
	// the five full copies split mirrors need.
	var want units.ByteSize
	for k := 1; k <= 4; k++ {
		want += w.UniqueBytes(time.Duration(k) * 12 * time.Hour)
	}
	if dem.Capacity != want {
		t.Errorf("snapshot cap = %v, want %v", dem.Capacity, want)
	}
	if dem.Capacity >= 5*w.DataCap/10 {
		t.Errorf("snapshot capacity %v should be far below mirror capacity", dem.Capacity)
	}
	if got := sn.RestoreSize(w); got != w.UniqueBytes(48*time.Hour) {
		t.Errorf("snapshot restore size = %v", got)
	}
}

// TestBackupMatchesTable5 checks backup demands: ~8.1 MB/s on both array
// and library (full 1360 GB over a 48-hour window) and 6.6 TB of library
// capacity (four retained fulls plus one in flight).
func TestBackupMatchesTable5(t *testing.T) {
	w := workload.Cello()
	devs := testDevices(t)
	b := &Backup{SourceArray: device.NameDiskArray, Target: device.NameTapeLibrary, Pol: backupPolicy()}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := b.ApplyDemands(w, devs); err != nil {
		t.Fatal(err)
	}
	arrDem := demandFor(t, named(t, devs, device.NameDiskArray), b.Name())
	libDem := demandFor(t, named(t, devs, device.NameTapeLibrary), b.Name())
	if math.Abs(arrDem.Bandwidth.MBPS()-8.06) > 0.05 {
		t.Errorf("backup array bw = %v, want ~8.06MB/s", arrDem.Bandwidth)
	}
	if arrDem.Capacity != 0 {
		t.Errorf("backup must not charge source capacity, got %v", arrDem.Capacity)
	}
	if libDem.Bandwidth != arrDem.Bandwidth {
		t.Errorf("library bw %v != array bw %v", libDem.Bandwidth, arrDem.Bandwidth)
	}
	if want := 5 * 1360 * units.GB; libDem.Capacity != want {
		t.Errorf("library cap = %v, want %v (6.6TB)", libDem.Capacity, want)
	}
	lib := named(t, devs, device.NameTapeLibrary)
	if u := lib.BWUtil(); math.Abs(u-0.034) > 0.001 {
		t.Errorf("library bwUtil = %.4f, want 0.034", u)
	}
	if u := lib.CapUtil(); math.Abs(u-0.034) > 0.001 {
		t.Errorf("library capUtil = %.4f, want 0.034", u)
	}
	if got := b.RestoreSize(w); got != w.DataCap {
		t.Errorf("full-only restore size = %v, want %v", got, w.DataCap)
	}
}

// TestBackupWithIncrementals exercises the F+I cycle of Table 7: weekly
// fulls (48h windows) plus five daily cumulative incrementals.
func TestBackupWithIncrementals(t *testing.T) {
	w := workload.Cello()
	devs := testDevices(t)
	pol := hierarchy.Policy{
		Primary:   hierarchy.WindowSet{AccW: 48 * time.Hour, PropW: 48 * time.Hour, HoldW: time.Hour, Rep: hierarchy.RepFull},
		Secondary: &hierarchy.WindowSet{AccW: 24 * time.Hour, PropW: 12 * time.Hour, HoldW: time.Hour, Rep: hierarchy.RepPartial},
		CycleCnt:  5,
		RetCnt:    4,
		RetW:      4 * units.Week,
		CopyRep:   hierarchy.RepFull,
	}
	b := &Backup{SourceArray: device.NameDiskArray, Target: device.NameTapeLibrary, Pol: pol}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := b.ApplyDemands(w, devs); err != nil {
		t.Fatal(err)
	}
	// Largest incremental: unique updates over 5 days.
	wantIncr := w.UniqueBytes(5 * units.Day)
	if got := b.largestIncrement(w); got != wantIncr {
		t.Errorf("largest incremental = %v, want %v", got, wantIncr)
	}
	// Rate: max(full over 48h, incr over 12h). Full = 1360GB/48h = 8.06;
	// incr = ~130GB/12h = ~3.1 MB/s, so full dominates.
	dem := demandFor(t, named(t, devs, device.NameTapeLibrary), b.Name())
	if math.Abs(dem.Bandwidth.MBPS()-8.06) > 0.05 {
		t.Errorf("F+I bw = %v, want full-dominated ~8.06MB/s", dem.Bandwidth)
	}
	// Capacity: 4 cycles x (full + 5 growing incrementals) + extra full.
	perCycle := w.DataCap
	for k := 1; k <= 5; k++ {
		perCycle += w.UniqueBytes(time.Duration(k) * units.Day)
	}
	if want := 4*perCycle + w.DataCap; dem.Capacity != want {
		t.Errorf("F+I cap = %v, want %v", dem.Capacity, want)
	}
	// Restore: full + largest incremental.
	if got := b.RestoreSize(w); got != w.DataCap+wantIncr {
		t.Errorf("F+I restore size = %v", got)
	}
}

// TestVaultingMatchesTable5 checks vault capacity (39 fulls = 51.8 TB) and
// that the matched hold/retention windows add no library demands.
func TestVaultingMatchesTable5(t *testing.T) {
	w := workload.Cello()
	devs := testDevices(t)
	v := &Vaulting{
		BackupDevice: device.NameTapeLibrary,
		Vault:        device.NameTapeVault,
		Transport:    device.NameAirShipment,
		Pol:          vaultPolicy(),
		BackupRetW:   4 * units.Week,
	}
	if err := v.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := v.ApplyDemands(w, devs); err != nil {
		t.Fatal(err)
	}
	dem := demandFor(t, named(t, devs, device.NameTapeVault), v.Name())
	if want := 39 * 1360 * units.GB; dem.Capacity != want {
		t.Errorf("vault cap = %v, want %v (51.8TB)", dem.Capacity, want)
	}
	if u := named(t, devs, device.NameTapeVault).CapUtil(); math.Abs(u-0.026) > 0.001 {
		t.Errorf("vault capUtil = %.4f, want 0.026", u)
	}
	// 13 shipments per year (every 4 weeks).
	ship := demandFor(t, named(t, devs, device.NameAirShipment), v.Name())
	if math.Abs(ship.ShipmentsPerYear-13) > 1e-9 {
		t.Errorf("shipments = %v, want 13", ship.ShipmentsPerYear)
	}
	// holdW (4wk12h) >= backup retW (4wk): no library demand.
	for _, d := range named(t, devs, device.NameTapeLibrary).Demands() {
		if d.Technique == v.Name() {
			t.Errorf("unexpected library demand: %+v", d)
		}
	}
}

func TestVaultingExtraCopyWhenHoldShort(t *testing.T) {
	w := workload.Cello()
	devs := testDevices(t)
	pol := vaultPolicy()
	pol.Primary.AccW = units.Week
	pol.Primary.HoldW = 12 * time.Hour // shorter than backup retention
	v := &Vaulting{
		BackupDevice: device.NameTapeLibrary,
		Vault:        device.NameTapeVault,
		Transport:    device.NameAirShipment,
		Pol:          pol,
		BackupRetW:   4 * units.Week,
	}
	if err := v.ApplyDemands(w, devs); err != nil {
		t.Fatal(err)
	}
	dem := demandFor(t, named(t, devs, device.NameTapeLibrary), v.Name())
	if dem.Capacity != w.DataCap {
		t.Errorf("extra tape copy capacity = %v, want %v", dem.Capacity, w.DataCap)
	}
	if dem.Bandwidth <= 0 {
		t.Error("extra tape copy needs bandwidth")
	}
	// Weekly shipments now.
	ship := demandFor(t, named(t, devs, device.NameAirShipment), v.Name())
	if math.Abs(ship.ShipmentsPerYear-52) > 1e-9 {
		t.Errorf("shipments = %v, want 52", ship.ShipmentsPerYear)
	}
}

func TestMirrorLinkRates(t *testing.T) {
	w := workload.Cello()
	pol := hierarchy.Policy{
		Primary: hierarchy.WindowSet{AccW: time.Minute, PropW: time.Minute, Rep: hierarchy.RepFull},
		RetCnt:  1,
		RetW:    time.Minute,
		CopyRep: hierarchy.RepFull,
	}
	tests := []struct {
		mode MirrorMode
		want units.Rate
	}{
		{MirrorSync, 7990 * units.KBPerSec},      // peak: 10x burst
		{MirrorAsync, 799 * units.KBPerSec},      // average updates
		{MirrorAsyncBatch, 727 * units.KBPerSec}, // unique updates in 1 min
	}
	for _, tt := range tests {
		t.Run(tt.mode.String(), func(t *testing.T) {
			m := &Mirror{Mode: tt.mode, DestArray: device.NameMirrorArray, Links: device.NameWANLinks, Pol: pol}
			if err := m.Validate(); err != nil {
				t.Fatal(err)
			}
			if got := m.LinkRate(w); got != tt.want {
				t.Errorf("LinkRate = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestMirrorDemands(t *testing.T) {
	w := workload.Cello()
	devs := testDevices(t)
	pol := hierarchy.Policy{
		Primary: hierarchy.WindowSet{AccW: time.Minute, PropW: time.Minute, Rep: hierarchy.RepFull},
		RetCnt:  1,
		RetW:    time.Minute,
		CopyRep: hierarchy.RepFull,
	}
	m := &Mirror{Mode: MirrorAsyncBatch, DestArray: device.NameMirrorArray, Links: device.NameWANLinks, Pol: pol}
	if err := m.ApplyDemands(w, devs); err != nil {
		t.Fatal(err)
	}
	linkDem := demandFor(t, named(t, devs, device.NameWANLinks), m.Name())
	if linkDem.Bandwidth != 727*units.KBPerSec {
		t.Errorf("link bw = %v", linkDem.Bandwidth)
	}
	destDem := demandFor(t, named(t, devs, device.NameMirrorArray), m.Name())
	if destDem.Capacity != w.DataCap {
		t.Errorf("mirror cap = %v, want %v", destDem.Capacity, w.DataCap)
	}
	if destDem.Bandwidth != linkDem.Bandwidth {
		t.Error("destination bandwidth should match link rate")
	}
	if m.TransportDevice() != device.NameWANLinks {
		t.Error("mirror restores cross the links")
	}
}

func TestValidateErrors(t *testing.T) {
	pol := splitMirrorPolicy()
	tests := []struct {
		name string
		tech Technique
	}{
		{"primary no array", &Primary{}},
		{"mirror no device", &SplitMirror{Pol: pol}},
		{"mirror bad policy", &SplitMirror{Array: "a", Pol: hierarchy.Policy{}}},
		{"snapshot no array", &Snapshot{Pol: pol}},
		{"snapshot bad policy", &Snapshot{Array: "a"}},
		{"interarray bad mode", &Mirror{DestArray: "d", Links: "l", Pol: pol}},
		{"interarray no devices", &Mirror{Mode: MirrorSync, Pol: pol}},
		{"interarray bad policy", &Mirror{Mode: MirrorSync, DestArray: "d", Links: "l"}},
		{"backup no devices", &Backup{Pol: pol}},
		{"backup same device", &Backup{SourceArray: "a", Target: "a", Pol: pol}},
		{"backup bad policy", &Backup{SourceArray: "a", Target: "b"}},
		{"vault no devices", &Vaulting{Pol: pol}},
		{"vault bad policy", &Vaulting{BackupDevice: "a", Vault: "b", Transport: "c"}},
		{"vault negative retW", &Vaulting{BackupDevice: "a", Vault: "b", Transport: "c", Pol: pol, BackupRetW: -1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.tech.Validate(); err == nil {
				t.Error("Validate() = nil, want error")
			}
		})
	}
}

func TestApplyDemandsUnknownDevice(t *testing.T) {
	w := workload.Cello()
	devs := testDevices(t)
	techs := []Technique{
		&Primary{Array: "ghost"},
		&SplitMirror{Array: "ghost", Pol: splitMirrorPolicy()},
		&Snapshot{Array: "ghost", Pol: splitMirrorPolicy()},
		&Backup{SourceArray: "ghost", Target: device.NameTapeLibrary, Pol: backupPolicy()},
		&Backup{SourceArray: device.NameDiskArray, Target: "ghost", Pol: backupPolicy()},
		&Vaulting{BackupDevice: device.NameTapeLibrary, Vault: "ghost", Transport: device.NameAirShipment, Pol: vaultPolicy()},
		&Vaulting{BackupDevice: device.NameTapeLibrary, Vault: device.NameTapeVault, Transport: "ghost", Pol: vaultPolicy()},
		&Mirror{Mode: MirrorSync, DestArray: "ghost", Links: device.NameWANLinks, Pol: splitMirrorPolicy()},
		&Mirror{Mode: MirrorSync, DestArray: device.NameMirrorArray, Links: "ghost", Pol: splitMirrorPolicy()},
	}
	for _, tech := range techs {
		if err := tech.ApplyDemands(w, devs); !errors.Is(err, ErrUnknownDevice) {
			t.Errorf("%T.ApplyDemands = %v, want ErrUnknownDevice", tech, err)
		}
	}
}

func TestInstanceNames(t *testing.T) {
	sm := &SplitMirror{InstanceName: "pm-mirrors", Array: "a", Pol: splitMirrorPolicy()}
	if sm.Name() != "pm-mirrors" {
		t.Errorf("Name = %q", sm.Name())
	}
	if sm.Level().Name != "pm-mirrors" {
		t.Errorf("Level name = %q", sm.Level().Name)
	}
	b := &Backup{SourceArray: "a", Target: "b", Pol: backupPolicy()}
	if b.Name() != "backup" {
		t.Errorf("default name = %q", b.Name())
	}
}
