package core_test

import (
	"testing"
	"time"

	"stordep/internal/casestudy"
	"stordep/internal/core"
	"stordep/internal/device"
	"stordep/internal/failure"
	"stordep/internal/units"
)

// TestRestoreRules pins each §3.3.4 restore rule to an exact recovery
// time written out from the device parameters, so a mistake in the one
// restore function shows even though every assessment path shares it:
// provisioning overlaps the media return, the reader's and the
// destination's provisioning both count, the access delay and a crossed
// link's delay serialize, an intact device offers its headroom and a
// stand-in its full rate, an intra-array copy runs at half the
// destination's headroom, any other copy at the smaller offered
// bandwidth capped by a crossed link, a multi-sited level reads from its
// first surviving site, and the sum saturates at units.Forever.
func TestRestoreRules(t *testing.T) {
	array, library, courier := device.MidrangeArray(), device.TapeLibrary(), device.AirShipment()
	base := casestudy.Baseline()
	facility, cello := base.Facility.ProvisionTime, base.Workload.DataCap
	headroom := func(sys *core.System, name string) units.Rate { return sys.Device(name).AvailableBandwidth() }

	// A replaced reader that provisions longer than the destination: the
	// courier is faster than the facility, and the primary array's spare
	// sits off-site, so only the library waits for the facility.
	slowReader := casestudy.Baseline()
	for i := range slowReader.Devices {
		switch pd := &slowReader.Devices[i]; pd.Spec.Name {
		case device.NameAirShipment:
			pd.Spec.Delay = time.Hour
		case device.NameDiskArray:
			pd.SparePlacement = failure.Placement{Array: "arr-spare", Building: "spare-bldg", Site: "spare-site", Region: "west"}
		}
	}
	// A library faster than the primary array, so a replaced array's
	// full rate bounds the restore and its lost headroom must not.
	fastLibrary := casestudy.Baseline()
	for i := range fastLibrary.Devices {
		if pd := &fastLibrary.Devices[i]; pd.Spec.Name == device.NameTapeLibrary {
			pd.Spec.EnclBW = 0
		}
	}
	// A mirror whose WAN links add a propagation delay.
	slowLinks := casestudy.AsyncBMirror(1)
	const propagation = 40 * time.Millisecond
	slowLinks.Devices[2].Spec.Delay = propagation
	// An erasure code whose first fragment shares the primary's region,
	// with no facility to replace it: only the second fragment can read.
	// The primary array's spare sits in another region.
	nearFragment := erasureDesign(5, 3)
	nearFragment.Devices[2].Placement.Region = nearFragment.Devices[0].Placement.Region
	nearFragment.Devices[0].SparePlacement = failure.Placement{Array: "a0-spare", Building: "b9", Site: "spare-site", Region: "spare-region"}
	nearFragment.Facility = nil

	tests := []struct {
		name   string
		design *core.Design
		sc     failure.Scenario
		want   func(sys *core.System) time.Duration
	}{
		{
			name:   "intra-array copy at half the headroom",
			design: casestudy.Baseline(),
			sc:     failure.Scenario{Scope: failure.ScopeObject, TargetAge: 24 * time.Hour, RecoverSize: units.MB},
			want: func(sys *core.System) time.Duration {
				return array.Delay + units.Div(units.MB, headroom(sys, device.NameDiskArray)/2)
			},
		},
		{
			name:   "spare provisioning then access delay then the smaller bandwidth",
			design: casestudy.Baseline(),
			sc:     failure.Scenario{Scope: failure.ScopeArray},
			want: func(sys *core.System) time.Duration {
				bw := min(headroom(sys, device.NameTapeLibrary), array.MaxBandwidth())
				return array.Spare.ProvisionTime + library.Delay + units.Div(cello, bw)
			},
		},
		{
			name:   "replaced destination offers its full rate",
			design: fastLibrary,
			sc:     failure.Scenario{Scope: failure.ScopeArray},
			want: func(sys *core.System) time.Duration {
				bw := min(headroom(sys, device.NameTapeLibrary), array.MaxBandwidth())
				return array.Spare.ProvisionTime + library.Delay + units.Div(cello, bw)
			},
		},
		{
			name:   "media return hides the facility",
			design: casestudy.Baseline(),
			sc:     failure.Scenario{Scope: failure.ScopeSite},
			want: func(*core.System) time.Duration {
				return max(courier.Delay, facility) + library.Delay + units.Div(cello, min(library.MaxBandwidth(), array.MaxBandwidth()))
			},
		},
		{
			name:   "reader provisioning outlasts media return and destination",
			design: slowReader,
			sc:     failure.Scenario{Scope: failure.ScopeSite},
			want: func(*core.System) time.Duration {
				return max(time.Hour, facility, array.Spare.ProvisionTime) + library.Delay + units.Div(cello, min(library.MaxBandwidth(), array.MaxBandwidth()))
			},
		},
		{
			name:   "crossed link adds its delay and caps the rate",
			design: slowLinks,
			sc:     failure.Scenario{Scope: failure.ScopeSite},
			want: func(sys *core.System) time.Duration {
				bw := min(headroom(sys, device.NameMirrorArray), array.MaxBandwidth(), headroom(sys, device.NameWANLinks))
				return facility + device.RemoteMirrorArray().Delay + propagation + units.Div(cello, bw)
			},
		},
		{
			name:   "multi-sited level reads its first surviving site",
			design: nearFragment,
			sc:     failure.Scenario{Scope: failure.ScopeRegion},
			want: func(sys *core.System) time.Duration {
				second := nearFragment.Devices[3].Spec
				bw := min(headroom(sys, second.Name), array.MaxBandwidth(), headroom(sys, device.NameWANLinks))
				return array.Spare.ProvisionTime + second.Delay + units.Div(cello, bw)
			},
		},
		{
			name:   "saturates at Forever",
			design: casestudy.Baseline(),
			sc:     failure.Scenario{Scope: failure.ScopeSite, RecoverSize: (240 * units.MBPerSec).Over(units.Forever - time.Hour)},
			want:   func(*core.System) time.Duration { return units.Forever },
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			sys, err := core.Build(tt.design)
			if err != nil {
				t.Fatal(err)
			}
			a, err := sys.Assess(tt.sc)
			if err != nil {
				t.Fatal(err)
			}
			if want := tt.want(sys); a.RecoveryTime != want {
				t.Errorf("recovery time %v, want %v (plan %s)", a.RecoveryTime, want, a.Plan.String())
			}
		})
	}
}
