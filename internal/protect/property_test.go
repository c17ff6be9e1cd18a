package protect

import (
	"testing"
	"testing/quick"
	"time"

	"stordep/internal/device"
	"stordep/internal/hierarchy"
	"stordep/internal/units"
	"stordep/internal/workload"
)

// randWorkload builds a valid workload from fuzz inputs.
func randWorkload(capGB uint16, updKB uint16, burst uint8) *workload.Workload {
	cap := units.ByteSize(capGB%5000+1) * units.GB
	upd := units.Rate(updKB%4000+1) * units.KBPerSec
	return &workload.Workload{
		Name:          "fuzz",
		DataCap:       cap,
		AvgAccessRate: 2 * upd,
		AvgUpdateRate: upd,
		BurstMult:     float64(burst%20) + 1,
		BatchCurve: []workload.BatchPoint{
			{Window: time.Minute, Rate: upd * 9 / 10},
			{Window: 24 * time.Hour, Rate: upd / 2},
		},
	}
}

func simplePolicy(accHours uint8, retCnt uint8) hierarchy.Policy {
	acc := time.Duration(accHours%48+1) * time.Hour
	ret := int(retCnt%10) + 1
	return hierarchy.Policy{
		Primary: hierarchy.WindowSet{AccW: acc, PropW: acc / 2, Rep: hierarchy.RepFull},
		RetCnt:  ret,
		RetW:    time.Duration(ret) * acc,
		CopyRep: hierarchy.RepFull,
	}
}

// Property: mirroring protocols' link demands are always ordered
// batch <= async <= sync (coalesced <= raw <= peak).
func TestMirrorProtocolOrderingProperty(t *testing.T) {
	f := func(capGB, updKB uint16, burst, accH uint8) bool {
		w := randWorkload(capGB, updKB, burst)
		if w.Validate() != nil {
			return false
		}
		pol := simplePolicy(accH, 1)
		mk := func(mode MirrorMode) units.Rate {
			m := &Mirror{Mode: mode, DestArray: "d", Links: "l", Pol: pol}
			return m.LinkRate(w)
		}
		batch, async, sync := mk(MirrorAsyncBatch), mk(MirrorAsync), mk(MirrorSync)
		return batch <= async && async <= sync
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: every technique's restore size is positive and never exceeds
// object size plus one retention span of unique updates.
func TestRestoreSizeBoundsProperty(t *testing.T) {
	f := func(capGB, updKB uint16, burst, accH, retC uint8) bool {
		w := randWorkload(capGB, updKB, burst)
		if w.Validate() != nil {
			return false
		}
		pol := simplePolicy(accH, retC)
		techs := []Technique{
			&SplitMirror{Array: "a", Pol: pol},
			&Snapshot{Array: "a", Pol: pol},
			&Backup{SourceArray: "a", Target: "b", Pol: pol},
			&Vaulting{BackupDevice: "b", Vault: "v", Transport: "t", Pol: pol},
			&Mirror{Mode: MirrorAsyncBatch, DestArray: "d", Links: "l", Pol: pol},
		}
		for _, tech := range techs {
			size := tech.RestoreSize(w)
			if size < 0 || size > 2*w.DataCap+w.DataCap {
				return false
			}
			// Full-copy techniques restore at least the object.
			switch tech.(type) {
			case *SplitMirror, *Backup, *Vaulting, *Mirror:
				if size < w.DataCap {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: demands are monotone in the workload — scaling the workload
// up never shrinks any device demand.
func TestDemandMonotoneProperty(t *testing.T) {
	newDevs := func() DeviceMap {
		var m DeviceMap
		specs := []device.Spec{
			{Name: "a", Kind: device.KindStorage, MaxCapSlots: 1 << 20, SlotCap: units.GB, MaxBWSlots: 1 << 20, SlotBW: units.MBPerSec},
			{Name: "b", Kind: device.KindStorage, MaxCapSlots: 1 << 20, SlotCap: units.GB, MaxBWSlots: 1 << 20, SlotBW: units.MBPerSec},
			{Name: "l", Kind: device.KindInterconnect, MaxBWSlots: 1 << 20, SlotBW: units.MBPerSec},
			{Name: "t", Kind: device.KindTransport},
			{Name: "v", Kind: device.KindStorage, MaxCapSlots: 1 << 20, SlotCap: units.GB},
		}
		for _, s := range specs {
			d, err := device.New(s)
			if err != nil {
				panic(err)
			}
			m = append(m, d)
		}
		return m
	}
	apply := func(w *workload.Workload, accH, retC uint8) (units.ByteSize, units.Rate, bool) {
		pol := simplePolicy(accH, retC)
		devs := newDevs()
		techs := []Technique{
			&SplitMirror{Array: "a", Pol: pol},
			&Snapshot{InstanceName: "snap", Array: "a", Pol: pol},
			&Backup{SourceArray: "a", Target: "b", Pol: pol},
			&Vaulting{BackupDevice: "b", Vault: "v", Transport: "t", Pol: pol, BackupRetW: pol.RetW},
			&Mirror{Mode: MirrorAsync, DestArray: "b", Links: "l", Pol: pol},
		}
		var cap units.ByteSize
		var bw units.Rate
		for _, tech := range techs {
			if err := tech.ApplyDemands(w, devs); err != nil {
				return 0, 0, false
			}
		}
		for _, d := range devs {
			cap += d.TotalCapacity()
			bw += d.TotalBandwidth()
		}
		return cap, bw, true
	}
	f := func(capGB, updKB uint16, burst, accH, retC uint8) bool {
		small := randWorkload(capGB, updKB, burst)
		if small.Validate() != nil {
			return false
		}
		big, err := small.Scale(2)
		if err != nil {
			return false
		}
		capS, bwS, ok := apply(small, accH, retC)
		if !ok {
			return false
		}
		capB, bwB, ok := apply(big, accH, retC)
		if !ok {
			return false
		}
		return capB >= capS && bwB >= bwS
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: vault shipments per year are inversely proportional to the
// accumulation window.
func TestShipmentsInverseProperty(t *testing.T) {
	f := func(weeks uint8) bool {
		wks := time.Duration(weeks%51+1) * units.Week
		pol := hierarchy.Policy{
			Primary: hierarchy.WindowSet{AccW: wks, PropW: 24 * time.Hour, Rep: hierarchy.RepFull},
			RetCnt:  1, RetW: wks, CopyRep: hierarchy.RepFull,
		}
		if pol.Primary.PropW > pol.Primary.AccW {
			pol.Primary.PropW = pol.Primary.AccW
		}
		v := &Vaulting{BackupDevice: "b", Vault: "v", Transport: "t", Pol: pol}
		got := v.ShipmentsPerYear()
		want := float64(units.Year) / float64(wks)
		return got > 0 && got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the erasure code's total fragment storage equals the n/m
// stretch exactly, for any valid (n, m).
func TestErasureStretchProperty(t *testing.T) {
	f := func(capGB uint16, n8, m8 uint8) bool {
		n := int(n8%8) + 1
		m := int(m8%uint8(n)) + 1
		w := randWorkload(capGB, 100, 2)
		sites := make([]string, n)
		for i := range sites {
			sites[i] = string(rune('a' + i))
		}
		ec := &ErasureCode{Fragments: n, Threshold: m, Sites: sites, Links: "l",
			Pol: simplePolicy(3, 1)}
		if err := ec.Validate(); err != nil {
			return false
		}
		perSite := w.DataCap / units.ByteSize(m)
		total := units.ByteSize(n) * perSite
		// n/m stretch within float tolerance.
		want := float64(w.DataCap) * float64(n) / float64(m)
		diff := float64(total) - want
		if diff < 0 {
			diff = -diff
		}
		return diff < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
