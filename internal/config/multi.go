package config

import (
	"encoding/json"
	"fmt"

	"stordep/internal/core"
	"stordep/internal/cost"
	"stordep/internal/protect"
	"stordep/internal/units"
)

// Multi-object designs (§3.1.1) serialize with the same vocabulary as
// single-object ones: the shared fleet and facility at the top level, and
// per-object workload, primary copy, protection levels and recovery
// dependencies under "objects".

// multiJSON is the on-disk schema of a MultiDesign.
type multiJSON struct {
	Name         string           `json:"name"`
	Requirements requirementsJSON `json:"requirements"`
	Devices      []placedJSON     `json:"devices"`
	Facility     *facilityJSON    `json:"facility,omitempty"`
	Objects      []objectJSON     `json:"objects"`
}

type objectJSON struct {
	Name      string       `json:"name"`
	Workload  workloadJSON `json:"workload"`
	Primary   primaryJSON  `json:"primary"`
	DependsOn []string     `json:"dependsOn,omitempty"`
	Levels    []levelJSON  `json:"levels"`
}

// MarshalMulti encodes a multi-object design as indented JSON.
func MarshalMulti(md *core.MultiDesign) ([]byte, error) {
	mj := &multiJSON{
		Name: md.Name,
		Requirements: requirementsJSON{
			UnavailPenaltyPerHour: md.Requirements.UnavailPenaltyRate.DollarsPerHour(),
			LossPenaltyPerHour:    md.Requirements.LossPenaltyRate.DollarsPerHour(),
		},
		Devices: encodeDevices(md.Devices),
	}
	if md.Facility != nil {
		mj.Facility = &facilityJSON{
			Placement:     encodePlacement(md.Facility.Placement),
			ProvisionTime: units.FormatDuration(md.Facility.ProvisionTime),
			CostFactor:    md.Facility.CostFactor,
		}
	}
	for _, obj := range md.Objects {
		if obj.Workload == nil || obj.Primary == nil {
			return nil, fmt.Errorf("%w: object %q: workload and primary required", ErrBadDesign, obj.Name)
		}
		oj := objectJSON{
			Name:      obj.Name,
			Workload:  encodeWorkload(obj.Workload),
			Primary:   primaryJSON{Array: obj.Primary.Array},
			DependsOn: append([]string(nil), obj.DependsOn...),
		}
		for i, tech := range obj.Levels {
			lj, err := encodeLevel(tech)
			if err != nil {
				return nil, fmt.Errorf("config: object %s level %d: %w", obj.Name, i+1, err)
			}
			oj.Levels = append(oj.Levels, lj)
		}
		mj.Objects = append(mj.Objects, oj)
	}
	return json.MarshalIndent(mj, "", "  ")
}

// UnmarshalMulti decodes a multi-object design from JSON. The result is
// not yet validated; call core.BuildMulti (or MultiDesign.Validate)
// before use.
func UnmarshalMulti(data []byte) (*core.MultiDesign, error) {
	var mj multiJSON
	if err := json.Unmarshal(data, &mj); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadDesign, err)
	}
	md := &core.MultiDesign{
		Name: mj.Name,
		Requirements: cost.Requirements{
			UnavailPenaltyRate: units.PerHour(mj.Requirements.UnavailPenaltyPerHour),
			LossPenaltyRate:    units.PerHour(mj.Requirements.LossPenaltyPerHour),
		},
	}
	var err error
	if md.Devices, err = decodeDevices(mj.Devices); err != nil {
		return nil, err
	}
	if md.Facility, err = decodeFacility(mj.Facility); err != nil {
		return nil, err
	}
	for _, oj := range mj.Objects {
		w, err := decodeWorkload(&oj.Workload)
		if err != nil {
			return nil, fmt.Errorf("config: object %s: %w", oj.Name, err)
		}
		obj := core.ObjectSpec{
			Name:      oj.Name,
			Workload:  w,
			Primary:   &protect.Primary{Array: oj.Primary.Array},
			DependsOn: append([]string(nil), oj.DependsOn...),
		}
		for i, lj := range oj.Levels {
			tech, err := decodeLevel(&lj)
			if err != nil {
				return nil, fmt.Errorf("config: object %s level %d: %w", oj.Name, i+1, err)
			}
			obj.Levels = append(obj.Levels, tech)
		}
		md.Objects = append(md.Objects, obj)
	}
	return md, nil
}
