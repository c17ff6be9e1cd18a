package device

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"

	"stordep/internal/units"
)

func TestSpecValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Spec)
		wantErr error
	}{
		{"valid", func(s *Spec) {}, nil},
		{"no name", func(s *Spec) { s.Name = "" }, ErrNoName},
		{"bad kind", func(s *Spec) { s.Kind = 0 }, ErrBadKind},
		{"kind too large", func(s *Spec) { s.Kind = 99 }, ErrBadKind},
		{"negative slots", func(s *Spec) { s.MaxCapSlots = -1 }, ErrNegative},
		{"negative slot cap", func(s *Spec) { s.SlotCap = -1 }, ErrNegative},
		{"negative bw", func(s *Spec) { s.SlotBW = -1 }, ErrNegative},
		{"negative delay", func(s *Spec) { s.Delay = -time.Second }, ErrNegative},
		{"NaN slot cap", func(s *Spec) { s.SlotCap = units.ByteSize(math.NaN()) }, ErrNegative},
		{"NaN slot bw", func(s *Spec) { s.SlotBW = units.Rate(math.NaN()) }, ErrNegative},
		{"NaN enclosure bw", func(s *Spec) { s.EnclBW = units.Rate(math.NaN()) }, ErrNegative},
		{"overhead below one", func(s *Spec) { s.CapOverhead = 0.5 }, ErrBadOverhead},
		{"bad spare kind", func(s *Spec) { s.Spare.Kind = 42 }, ErrBadSpare},
		{"negative spare time", func(s *Spec) {
			s.Spare = Spare{Kind: SpareDedicated, ProvisionTime: -1}
		}, ErrBadSpare},
		{"negative discount", func(s *Spec) {
			s.Spare = Spare{Kind: SpareShared, Discount: -0.2}
		}, ErrBadSpare},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := MidrangeArray()
			tt.mutate(&s)
			err := s.Validate()
			if tt.wantErr == nil {
				if err != nil {
					t.Errorf("Validate() = %v, want nil", err)
				}
				return
			}
			if !errors.Is(err, tt.wantErr) {
				t.Errorf("Validate() = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestCatalogSpecsValid(t *testing.T) {
	specs := []Spec{
		MidrangeArray(), TapeLibrary(), TapeVault(), AirShipment(),
		WANLinks(1), WANLinks(10), RemoteMirrorArray(), SharedRecoveryArray(),
	}
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			t.Errorf("catalog spec %s invalid: %v", s.Name, err)
		}
	}
}

func TestMaxCapacityAndBandwidth(t *testing.T) {
	tests := []struct {
		name    string
		spec    Spec
		wantCap units.ByteSize
		wantBW  units.Rate
	}{
		// Array: 256x73GB = 18688 GB; bw = min(512, 6400) = 512 MB/s.
		{"array", MidrangeArray(), 18688 * units.GB, 512 * units.MBPerSec},
		// Tape: 500x400GB = 200 TB; bw = min(240, 960) = 240 MB/s.
		{"tape", TapeLibrary(), 200000 * units.GB, 240 * units.MBPerSec},
		// Vault: 2 PB, no bandwidth.
		{"vault", TapeVault(), 2000000 * units.GB, 0},
		// Shipment: neither.
		{"shipment", AirShipment(), 0, 0},
		// 10 OC-3 links: no capacity, 193.75 MB/s.
		{"links", WANLinks(10), 0, 193.75 * units.MBPerSec},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.spec.MaxCapacity(); got != tt.wantCap {
				t.Errorf("MaxCapacity = %v, want %v", got, tt.wantCap)
			}
			if got := tt.spec.MaxBandwidth(); got != tt.wantBW {
				t.Errorf("MaxBandwidth = %v, want %v", got, tt.wantBW)
			}
		})
	}
}

func TestMaxBandwidthEnclosureOnly(t *testing.T) {
	s := Spec{Name: "x", Kind: KindInterconnect, EnclBW: 100 * units.MBPerSec}
	if got := s.MaxBandwidth(); got != 100*units.MBPerSec {
		t.Errorf("MaxBandwidth = %v", got)
	}
}

func TestRawCapacityFor(t *testing.T) {
	arr := MidrangeArray()
	if got := arr.RawCapacityFor(1360 * units.GB); got != 2720*units.GB {
		t.Errorf("RAID-1 raw capacity = %v, want 2720GB", got)
	}
	tape := TapeLibrary()
	if got := tape.RawCapacityFor(1360 * units.GB); got != 1360*units.GB {
		t.Errorf("tape raw capacity = %v, want 1360GB", got)
	}
}

func newDevice(t *testing.T, s Spec) *Device {
	t.Helper()
	d, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewRejectsInvalid(t *testing.T) {
	if _, err := New(Spec{}); err == nil {
		t.Fatal("New with empty spec should fail")
	}
}

func TestUtilizationTable5DiskArray(t *testing.T) {
	// Reproduce the disk-array rows of Table 5 from raw demands.
	d := newDevice(t, MidrangeArray())
	d.AddDemand(Demand{Technique: "foreground", Bandwidth: 1028 * units.KBPerSec, Capacity: 1360 * units.GB})
	d.AddDemand(Demand{Technique: "split-mirror", Bandwidth: 3170 * units.KBPerSec, Capacity: 5 * 1360 * units.GB})
	d.AddDemand(Demand{Technique: "backup", Bandwidth: 8.06 * units.MBPerSec})

	if err := d.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	rows := d.Utilizations()
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	approx := func(got, want, tol float64, what string) {
		t.Helper()
		if math.Abs(got-want) > tol {
			t.Errorf("%s = %.4f, want %.4f", what, got, want)
		}
	}
	approx(rows[0].BWUtil, 0.002, 0.0005, "foreground bwUtil")
	approx(rows[0].CapUtil, 0.146, 0.001, "foreground capUtil")
	approx(rows[1].BWUtil, 0.006, 0.001, "split-mirror bwUtil")
	approx(rows[1].CapUtil, 0.728, 0.001, "split-mirror capUtil")
	approx(rows[2].BWUtil, 0.016, 0.001, "backup bwUtil")
	approx(d.BWUtil(), 0.024, 0.001, "overall bwUtil")
	approx(d.CapUtil(), 0.874, 0.001, "overall capUtil")
	// Total bandwidth demand should be about 12.4 MB/s.
	if got := d.TotalBandwidth(); math.Abs(got.MBPS()-12.26) > 0.2 {
		t.Errorf("total bandwidth = %v", got)
	}
}

func TestCheckOverload(t *testing.T) {
	t.Run("capacity", func(t *testing.T) {
		d := newDevice(t, MidrangeArray())
		d.AddDemand(Demand{Technique: "x", Capacity: 10000 * units.GB}) // x2 RAID > 18688
		if err := d.Check(); !errors.Is(err, ErrCapOverload) {
			t.Errorf("Check = %v, want ErrCapOverload", err)
		}
	})
	t.Run("bandwidth", func(t *testing.T) {
		d := newDevice(t, MidrangeArray())
		d.AddDemand(Demand{Technique: "x", Bandwidth: 513 * units.MBPerSec})
		if err := d.Check(); !errors.Is(err, ErrBWOverload) {
			t.Errorf("Check = %v, want ErrBWOverload", err)
		}
	})
	t.Run("capacity on capacityless device", func(t *testing.T) {
		d := newDevice(t, WANLinks(1))
		d.AddDemand(Demand{Technique: "x", Capacity: units.GB})
		if err := d.Check(); !errors.Is(err, ErrCapOverload) {
			t.Errorf("Check = %v, want ErrCapOverload", err)
		}
	})
	t.Run("bandwidth on vault", func(t *testing.T) {
		d := newDevice(t, TapeVault())
		d.AddDemand(Demand{Technique: "x", Bandwidth: units.MBPerSec})
		if err := d.Check(); !errors.Is(err, ErrBWOverload) {
			t.Errorf("Check = %v, want ErrBWOverload", err)
		}
	})
	t.Run("fits", func(t *testing.T) {
		d := newDevice(t, TapeVault())
		d.AddDemand(Demand{Technique: "vaulting", Capacity: 53040 * units.GB})
		if err := d.Check(); err != nil {
			t.Errorf("Check = %v, want nil", err)
		}
		if got := d.CapUtil(); math.Abs(got-0.0265) > 0.001 {
			t.Errorf("vault capUtil = %.4f, want ~0.0265", got)
		}
	})
}

func TestAvailableBandwidth(t *testing.T) {
	d := newDevice(t, TapeLibrary())
	d.AddDemand(Demand{Technique: "backup", Bandwidth: 8.1 * units.MBPerSec})
	want := (240 - 8.1) * units.MBPerSec
	if got := d.AvailableBandwidth(); math.Abs(float64(got-want)) > 1 {
		t.Errorf("AvailableBandwidth = %v, want %v", got, want)
	}
	// Saturated device has zero available bandwidth, never negative.
	d.AddDemand(Demand{Technique: "flood", Bandwidth: 500 * units.MBPerSec})
	if got := d.AvailableBandwidth(); got != 0 {
		t.Errorf("AvailableBandwidth = %v, want 0", got)
	}
}

// outlays collects the rows EachOutlay reports.
func outlays(d *Device) []TechOutlay {
	var rows []TechOutlay
	d.EachOutlay(func(row TechOutlay) { rows = append(rows, row) })
	return rows
}

func TestOutlaysPrimaryCarriesFixed(t *testing.T) {
	d := newDevice(t, MidrangeArray())
	d.AddDemand(Demand{Technique: "foreground", Capacity: 1360 * units.GB})
	d.AddDemand(Demand{Technique: "split-mirror", Capacity: 5 * 1360 * units.GB})

	rows := outlays(d)
	if len(rows) != 2 {
		t.Fatalf("got %d outlay rows", len(rows))
	}
	// Foreground: fixed 123297 + 2720 raw GB x 17.2 = 170081; x2 spare.
	wantFG := units.Money(123297 + 2*1360*17.2)
	if got := rows[0].Base; math.Abs(float64(got-wantFG)) > 1 {
		t.Errorf("foreground base = %v, want %v", got, wantFG)
	}
	if got := rows[0].SpareCost; math.Abs(float64(got-wantFG)) > 1 {
		t.Errorf("foreground spare = %v, want %v (1x discount)", got, wantFG)
	}
	// Split mirror: only incremental capacity cost, no fixed.
	wantSM := units.Money(2 * 5 * 1360 * 17.2)
	if got := rows[1].Base; math.Abs(float64(got-wantSM)) > 1 {
		t.Errorf("split-mirror base = %v, want %v", got, wantSM)
	}
	wantTotal := 2 * (wantFG + wantSM)
	if got := d.TotalOutlay(); math.Abs(float64(got-wantTotal)) > 1 {
		t.Errorf("TotalOutlay = %v, want %v", got, wantTotal)
	}
}

func TestOutlaysShipments(t *testing.T) {
	d := newDevice(t, AirShipment())
	d.AddDemand(Demand{Technique: "vaulting", ShipmentsPerYear: 13})
	if got, want := d.TotalOutlay(), units.Money(650); got != want {
		t.Errorf("shipment outlay = %v, want %v", got, want)
	}
}

func TestOutlaysNoSpareNoMarkup(t *testing.T) {
	d := newDevice(t, TapeVault())
	d.AddDemand(Demand{Technique: "vaulting", Capacity: 53040 * units.GB})
	rows := outlays(d)
	if rows[0].SpareCost != 0 {
		t.Errorf("vault spare cost = %v, want 0", rows[0].SpareCost)
	}
	want := units.Money(25000 + 53040*0.4)
	if got := rows[0].Base; math.Abs(float64(got-want)) > 1 {
		t.Errorf("vault outlay = %v, want %v", got, want)
	}
}

func TestOutlaysSharedSpareDiscount(t *testing.T) {
	d := newDevice(t, SharedRecoveryArray())
	d.AddDemand(Demand{Technique: "recovery", Capacity: 1360 * units.GB})
	rows := outlays(d)
	if got, want := rows[0].SpareCost, units.Money(0.2)*rows[0].Base; math.Abs(float64(got-want)) > 1e-9 {
		t.Errorf("shared spare cost = %v, want %v", got, want)
	}
}

func TestDemandsMergedByTechnique(t *testing.T) {
	d := newDevice(t, MidrangeArray())
	d.AddDemand(Demand{Technique: "a", Bandwidth: units.MBPerSec})
	d.AddDemand(Demand{Technique: "a", Bandwidth: 2 * units.MBPerSec})
	rows := d.Utilizations()
	if len(rows) != 1 {
		t.Fatalf("got %d rows, want merged 1", len(rows))
	}
	if rows[0].Bandwidth != 3*units.MBPerSec {
		t.Errorf("merged bandwidth = %v", rows[0].Bandwidth)
	}
}

func TestDemandsReturnsCopy(t *testing.T) {
	d := newDevice(t, MidrangeArray())
	d.AddDemand(Demand{Technique: "a", Bandwidth: units.MBPerSec})
	got := d.Demands()
	got[0].Bandwidth = 999 * units.MBPerSec
	if d.Demands()[0].Bandwidth != units.MBPerSec {
		t.Error("Demands exposed internal state")
	}
}

func TestKindAndSpareStrings(t *testing.T) {
	tests := []struct {
		got, want string
	}{
		{KindStorage.String(), "storage"},
		{KindInterconnect.String(), "interconnect"},
		{KindTransport.String(), "transport"},
		{Kind(0).String(), "Kind(0)"},
		{SpareNone.String(), "none"},
		{SpareDedicated.String(), "dedicated"},
		{SpareShared.String(), "shared"},
		{SpareKind(9).String(), "SpareKind(9)"},
	}
	for _, tt := range tests {
		if tt.got != tt.want {
			t.Errorf("got %q, want %q", tt.got, tt.want)
		}
	}
}

// Property: utilization sums over techniques equal device totals.
func TestUtilizationAdditiveProperty(t *testing.T) {
	f := func(bws []uint16, caps []uint16) bool {
		d, err := New(MidrangeArray())
		if err != nil {
			return false
		}
		n := len(bws)
		if len(caps) < n {
			n = len(caps)
		}
		var wantBW, wantCap float64
		for i := 0; i < n; i++ {
			dem := Demand{
				Technique: string(rune('a' + i%5)),
				Bandwidth: units.Rate(bws[i]) * units.KBPerSec,
				Capacity:  units.ByteSize(caps[i]) * units.MB,
			}
			wantBW += float64(dem.Bandwidth)
			wantCap += float64(dem.Capacity)
			d.AddDemand(dem)
		}
		var gotBW, gotCap float64
		for _, row := range d.Utilizations() {
			gotBW += float64(row.Bandwidth)
			gotCap += float64(row.Capacity)
		}
		return math.Abs(gotBW-wantBW) < 1e-3 && math.Abs(gotCap-wantCap) < 1e-3
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: outlay is monotone in capacity demand.
func TestOutlayMonotoneProperty(t *testing.T) {
	f := func(a, b uint16) bool {
		lo, hi := units.ByteSize(a)*units.GB, units.ByteSize(b)*units.GB
		if lo > hi {
			lo, hi = hi, lo
		}
		dLo, _ := New(MidrangeArray())
		dHi, _ := New(MidrangeArray())
		dLo.AddDemand(Demand{Technique: "t", Capacity: lo})
		dHi.AddDemand(Demand{Technique: "t", Capacity: hi})
		return dLo.TotalOutlay() <= dHi.TotalOutlay()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestExtendedCatalog(t *testing.T) {
	for _, s := range []Spec{VirtualTapeLibrary(), GigELinks(4), EconomyArray()} {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
	vtl := VirtualTapeLibrary()
	if vtl.Delay != 0 {
		t.Error("VTL should have no load delay")
	}
	if vtl.MaxBandwidth() != 500*units.MBPerSec {
		t.Errorf("VTL bandwidth = %v", vtl.MaxBandwidth())
	}
	gige := GigELinks(4)
	if gige.MaxBandwidth() != 4*125*units.MBPerSec {
		t.Errorf("GigE bandwidth = %v", gige.MaxBandwidth())
	}
	econ := EconomyArray()
	if got := econ.RawCapacityFor(1000 * units.GB); got != 1250*units.GB {
		t.Errorf("RAID-5 overhead: %v", got)
	}
	// Economy array is cheaper per raw GB than the midrange array.
	if econ.Cost.PerGB >= MidrangeArray().Cost.PerGB {
		t.Error("economy array should be cheaper per GB")
	}
}
