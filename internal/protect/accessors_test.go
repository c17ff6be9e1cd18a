package protect

import (
	"math"
	"testing"
	"time"

	"stordep/internal/device"
	"stordep/internal/hierarchy"
	"stordep/internal/units"
	"stordep/internal/workload"
)

// TestTechniqueAccessors pins the identity methods of every technique:
// kind, hierarchy level, and the device roles recovery relies on.
func TestTechniqueAccessors(t *testing.T) {
	pol := splitMirrorPolicy()
	ec := &ErasureCode{Fragments: 3, Threshold: 2, Sites: []string{"f1", "f2", "f3"}, Links: "l", Pol: pol}
	tests := []struct {
		tech      Technique
		kind      Kind
		levelName string
		copyDev   string
		readDev   string
		transport string
	}{
		{&Primary{Array: "a"}, KindPrimary, "", "a", "a", ""},
		{&SplitMirror{Array: "a", Pol: pol}, KindSplitMirror, "split-mirror", "a", "a", ""},
		{&Snapshot{Array: "a", Pol: pol}, KindSnapshot, "virtual-snapshot", "a", "a", ""},
		{&Backup{SourceArray: "a", Target: "b", Pol: pol}, KindBackup, "backup", "b", "b", ""},
		{&Vaulting{BackupDevice: "b", Vault: "v", Transport: "t", Pol: pol}, KindVaulting, "vaulting", "v", "b", "t"},
		{&Mirror{Mode: MirrorSync, DestArray: "d", Links: "l", Pol: pol}, KindSyncMirror, "sync-mirror", "d", "d", "l"},
		{&Mirror{Mode: MirrorAsync, DestArray: "d", Links: "l", Pol: pol}, KindAsyncMirror, "async-mirror", "d", "d", "l"},
		{ec, KindErasureCode, "erasure-code", "f1", "f1", "l"},
	}
	for _, tt := range tests {
		t.Run(tt.tech.Name(), func(t *testing.T) {
			if got := tt.tech.Kind(); got != tt.kind {
				t.Errorf("Kind = %v, want %v", got, tt.kind)
			}
			if got := tt.tech.Level().Name; got != tt.levelName {
				t.Errorf("Level name = %q, want %q", got, tt.levelName)
			}
			if got := tt.tech.CopyDevice(); got != tt.copyDev {
				t.Errorf("CopyDevice = %q, want %q", got, tt.copyDev)
			}
			if got := tt.tech.ReadDevice(); got != tt.readDev {
				t.Errorf("ReadDevice = %q, want %q", got, tt.readDev)
			}
			if got := tt.tech.TransportDevice(); got != tt.transport {
				t.Errorf("TransportDevice = %q, want %q", got, tt.transport)
			}
		})
	}
	if KindErasureCode.String() != "erasure-code" {
		t.Errorf("kind string = %q", KindErasureCode.String())
	}
	if ec.SurvivalThreshold() != 2 || len(ec.CopyDevices()) != 3 {
		t.Error("erasure multi-site accessors")
	}
	// CopyDevices returns a copy.
	sites := ec.CopyDevices()
	sites[0] = "mutated"
	if ec.Sites[0] != "f1" {
		t.Error("CopyDevices exposed internal slice")
	}
	// Empty-site edge.
	if (&ErasureCode{}).CopyDevice() != "" {
		t.Error("empty erasure CopyDevice")
	}
}

func TestErasureApplyDemandsInPackage(t *testing.T) {
	w := workload.Cello()
	var m DeviceMap
	for _, name := range []string{"f1", "f2", "f3"} {
		d, err := device.New(device.Spec{
			Name: name, Kind: device.KindStorage,
			MaxCapSlots: 10000, SlotCap: units.GB,
			MaxBWSlots: 100, SlotBW: units.MBPerSec,
		})
		if err != nil {
			t.Fatal(err)
		}
		m = append(m, d)
	}
	links, err := device.New(device.Spec{Name: "l", Kind: device.KindInterconnect,
		MaxBWSlots: 10, SlotBW: 10 * units.MBPerSec})
	if err != nil {
		t.Fatal(err)
	}
	m = append(m, links)

	pol := hierarchy.Policy{
		Primary: hierarchy.WindowSet{AccW: time.Hour, PropW: time.Hour, Rep: hierarchy.RepPartial},
		RetCnt:  1, RetW: time.Hour, CopyRep: hierarchy.RepFull,
	}
	ec := &ErasureCode{Fragments: 3, Threshold: 2, Sites: []string{"f1", "f2", "f3"}, Links: "l", Pol: pol}
	if err := ec.ApplyDemands(w, m); err != nil {
		t.Fatal(err)
	}
	// Links carry 1.5x the hourly batch rate.
	wantLink := 1.5 * float64(w.BatchUpdateRate(time.Hour))
	if got := float64(named(t, m, "l").TotalBandwidth()); math.Abs(got-wantLink) > 1 {
		t.Errorf("link demand = %v, want %v", got, wantLink)
	}
	// Each site: half the object, a third of the stream.
	if got := named(t, m, "f1").TotalCapacity(); got != w.DataCap/2 {
		t.Errorf("site capacity = %v, want %v", got, w.DataCap/2)
	}
	if got := ec.RestoreSize(w); got != w.DataCap {
		t.Errorf("restore size = %v", got)
	}
	// Unknown devices error.
	bad := &ErasureCode{Fragments: 1, Threshold: 1, Sites: []string{"ghost"}, Links: "l", Pol: pol}
	if err := bad.ApplyDemands(w, m); err == nil {
		t.Error("ghost site accepted")
	}
	badLinks := &ErasureCode{Fragments: 1, Threshold: 1, Sites: []string{"f1"}, Links: "ghost", Pol: pol}
	if err := badLinks.ApplyDemands(w, m); err == nil {
		t.Error("ghost links accepted")
	}
}
