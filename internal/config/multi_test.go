package config

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"time"

	"stordep/internal/casestudy"
	"stordep/internal/core"
	"stordep/internal/cost"
	"stordep/internal/device"
	"stordep/internal/failure"
	"stordep/internal/hierarchy"
	"stordep/internal/protect"
	"stordep/internal/units"
	"stordep/internal/workload"
)

// sampleMulti is a three-object design exercising every per-object encode
// path: split-mirror, snapshot, backup, vaulting and remote mirror levels,
// a diamond dependency graph, and instance names on every technique.
func sampleMulti() *core.MultiDesign {
	base := casestudy.Baseline()
	pol := func(accW time.Duration, retCnt int) hierarchy.Policy {
		return hierarchy.Policy{
			Primary: hierarchy.WindowSet{AccW: accW, Rep: hierarchy.RepFull},
			RetCnt:  retCnt,
			RetW:    time.Duration(retCnt+1) * accW,
			CopyRep: hierarchy.RepFull,
		}
	}
	mirrorPol := hierarchy.Policy{
		Primary: hierarchy.WindowSet{AccW: time.Hour, PropW: 30 * time.Minute, Rep: hierarchy.RepFull},
		RetCnt:  2,
		RetW:    4 * time.Hour,
		CopyRep: hierarchy.RepFull,
	}
	small := func(name string, gb float64) *workload.Workload {
		return &workload.Workload{
			Name:          name,
			DataCap:       units.ByteSize(gb) * units.GB,
			AvgAccessRate: 400 * units.KBPerSec,
			AvgUpdateRate: 100 * units.KBPerSec,
			BurstMult:     4,
			BatchCurve: []workload.BatchPoint{
				{Window: time.Minute, Rate: 90 * units.KBPerSec},
				{Window: 12 * time.Hour, Rate: 40 * units.KBPerSec},
			},
		}
	}
	devices := append(append([]core.PlacedDevice(nil), base.Devices...),
		core.PlacedDevice{Spec: device.RemoteMirrorArray(),
			Placement: failure.Placement{Array: "arr-mirror", Building: "mirror-bldg", Site: casestudy.MirrorSite, Region: "central"}},
		core.PlacedDevice{Spec: device.WANLinks(2)},
	)
	return &core.MultiDesign{
		Name:         "sample-multi",
		Requirements: cost.CaseStudyRequirements(),
		Devices:      devices,
		Facility:     base.Facility,
		Objects: []core.ObjectSpec{
			{
				Name:     "catalog",
				Workload: small("catalog", 50),
				Primary:  &protect.Primary{Array: device.NameDiskArray},
				Levels: []protect.Technique{
					&protect.SplitMirror{InstanceName: "catalog-mirror", Array: device.NameDiskArray, Pol: pol(4*time.Hour, 3)},
					&protect.Backup{InstanceName: "catalog-backup", SourceArray: device.NameDiskArray,
						Target: device.NameTapeLibrary, Pol: casestudy.BackupPolicy()},
				},
			},
			{
				Name:      "orders",
				Workload:  small("orders", 200),
				Primary:   &protect.Primary{Array: device.NameDiskArray},
				DependsOn: []string{"catalog"},
				Levels: []protect.Technique{
					&protect.Snapshot{InstanceName: "orders-snap", Array: device.NameDiskArray, Pol: pol(6*time.Hour, 2)},
					&protect.Mirror{InstanceName: "orders-mirror", Mode: protect.MirrorAsyncBatch,
						DestArray: device.NameMirrorArray, Links: device.NameWANLinks, Pol: mirrorPol},
				},
			},
			{
				Name:      "sessions",
				Workload:  small("sessions", 20),
				Primary:   &protect.Primary{Array: device.NameDiskArray},
				DependsOn: []string{"catalog", "orders"},
				Levels: []protect.Technique{
					&protect.Backup{InstanceName: "sessions-backup", SourceArray: device.NameDiskArray,
						Target: device.NameTapeLibrary, Pol: casestudy.BackupPolicy()},
					&protect.Vaulting{InstanceName: "sessions-vault", BackupDevice: device.NameTapeLibrary,
						Vault: device.NameTapeVault, Transport: device.NameAirShipment,
						Pol: casestudy.VaultPolicy(), BackupRetW: casestudy.BackupPolicy().RetW},
				},
			},
		},
	}
}

func TestMultiRoundTrip(t *testing.T) {
	md := sampleMulti()
	if err := md.Validate(); err != nil {
		t.Fatalf("sample invalid: %v", err)
	}
	data, err := MarshalMulti(md)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalMulti(data)
	if err != nil {
		t.Fatal(err)
	}
	// The decoded design re-encodes byte-identically: the JSON form is a
	// fixed point, which is what repro replay relies on.
	data2, err := MarshalMulti(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Error("re-encoded JSON differs from the original encoding")
	}
	if got.Name != md.Name || len(got.Objects) != len(md.Objects) {
		t.Fatalf("decoded %q with %d objects", got.Name, len(got.Objects))
	}
	for i, obj := range got.Objects {
		want := md.Objects[i]
		if obj.Name != want.Name {
			t.Errorf("object %d name %q != %q", i, obj.Name, want.Name)
		}
		if !reflect.DeepEqual(obj.DependsOn, want.DependsOn) {
			t.Errorf("object %s deps %v != %v", obj.Name, obj.DependsOn, want.DependsOn)
		}
		if len(obj.Levels) != len(want.Levels) {
			t.Fatalf("object %s has %d levels, want %d", obj.Name, len(obj.Levels), len(want.Levels))
		}
		for j := range obj.Levels {
			if obj.Levels[j].Name() != want.Levels[j].Name() {
				t.Errorf("object %s level %d name %q != %q",
					obj.Name, j+1, obj.Levels[j].Name(), want.Levels[j].Name())
			}
		}
		if obj.Workload.DataCap != want.Workload.DataCap {
			t.Errorf("object %s dataCap %v != %v", obj.Name, obj.Workload.DataCap, want.Workload.DataCap)
		}
	}
	if err := got.Validate(); err != nil {
		t.Errorf("decoded design invalid: %v", err)
	}
	if _, err := core.BuildMulti(got); err != nil {
		t.Errorf("decoded design does not build: %v", err)
	}
}

func TestUnmarshalMultiErrors(t *testing.T) {
	for name, data := range map[string]string{
		"not json":     `{`,
		"bad level":    `{"objects":[{"name":"a","workload":{"dataCap":"1GB"},"primary":{"array":"x"},"levels":[{"type":"warp-drive","policy":{"accW":"1h","retCnt":1,"retW":"2h"}}]}]}`,
		"bad duration": `{"objects":[{"name":"a","workload":{"dataCap":"1GB"},"primary":{"array":"x"},"levels":[{"type":"backup","policy":{"accW":"soon","retCnt":1,"retW":"2h"}}]}]}`,
		"bad workload": `{"objects":[{"name":"a","workload":{"dataCap":"heavy"},"primary":{"array":"x"}}]}`,
		"bad device":   `{"devices":[{"spec":{"name":"d","kind":"quantum"}}],"objects":[]}`,
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := UnmarshalMulti([]byte(data)); !errors.Is(err, ErrBadDesign) {
				t.Errorf("UnmarshalMulti = %v, want ErrBadDesign", err)
			}
		})
	}
}

func TestMarshalMultiRejectsIncompleteObject(t *testing.T) {
	md := sampleMulti()
	md.Objects[0].Workload = nil
	if _, err := MarshalMulti(md); !errors.Is(err, ErrBadDesign) {
		t.Errorf("nil workload: %v", err)
	}
	md = sampleMulti()
	md.Objects[1].Primary = nil
	if _, err := MarshalMulti(md); !errors.Is(err, ErrBadDesign) {
		t.Errorf("nil primary: %v", err)
	}
}
