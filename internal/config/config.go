// Package config serializes storage system designs to and from JSON, so
// designs can be versioned, shared and evaluated from the command line.
// Quantities use human-readable strings ("1360GB", "799KB/s", "4wk12h")
// in the units idiom of the paper's tables.
//
// Unmarshal decodes the canonical form Marshal writes with a one-pass
// reader that needs no reflection. The reader declines any other input,
// malformed input included, to encoding/json, which alone defines the
// format, its lenient cases and its error texts. FuzzUnmarshalMatchesJSON
// checks that whatever the reader accepts, encoding/json decodes to the
// same value.
package config

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
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

// Level type tags.
const (
	typeSplitMirror = "split-mirror"
	typeSnapshot    = "snapshot"
	typeBackup      = "backup"
	typeVaulting    = "vaulting"
	typeMirror      = "mirror"
	typeErasure     = "erasure-code"
)

// designJSON is the on-disk schema.
type designJSON struct {
	Name         string           `json:"name"`
	Workload     workloadJSON     `json:"workload"`
	Requirements requirementsJSON `json:"requirements"`
	Devices      []placedJSON     `json:"devices"`
	Primary      primaryJSON      `json:"primary"`
	Levels       []levelJSON      `json:"levels"`
	Facility     *facilityJSON    `json:"facility,omitempty"`
}

type workloadJSON struct {
	Name          string      `json:"name"`
	DataCap       string      `json:"dataCap"`
	AvgAccessRate string      `json:"avgAccessRate"`
	AvgUpdateRate string      `json:"avgUpdateRate"`
	BurstMult     float64     `json:"burstMult"`
	BatchCurve    []pointJSON `json:"batchCurve"`
}

type pointJSON struct {
	Window string `json:"window"`
	Rate   string `json:"rate"`
}

type requirementsJSON struct {
	UnavailPenaltyPerHour float64 `json:"unavailPenaltyPerHour"`
	LossPenaltyPerHour    float64 `json:"lossPenaltyPerHour"`
}

type placedJSON struct {
	Spec           specJSON       `json:"spec"`
	Placement      placementJSON  `json:"placement,omitempty"`
	SparePlacement *placementJSON `json:"sparePlacement,omitempty"`
}

type specJSON struct {
	Name        string           `json:"name"`
	Kind        string           `json:"kind"`
	MaxCapSlots int              `json:"maxCapSlots,omitempty"`
	SlotCap     string           `json:"slotCap,omitempty"`
	MaxBWSlots  int              `json:"maxBWSlots,omitempty"`
	SlotBW      string           `json:"slotBW,omitempty"`
	EnclBW      string           `json:"enclBW,omitempty"`
	Delay       string           `json:"delay,omitempty"`
	CapOverhead float64          `json:"capOverhead,omitempty"`
	Cost        costJSON         `json:"cost"`
	Spare       *spareJSON       `json:"spare,omitempty"`
	Reliability *reliabilityJSON `json:"reliability,omitempty"`
}

type reliabilityJSON struct {
	Failure distJSON `json:"failure"`
	Repair  distJSON `json:"repair"`
}

type distJSON struct {
	Kind  string  `json:"kind"`
	Mean  string  `json:"mean"`
	Shape float64 `json:"shape,omitempty"`
}

type costJSON struct {
	Fixed       float64 `json:"fixed,omitempty"`
	PerGB       float64 `json:"perGB,omitempty"`
	PerMBPerSec float64 `json:"perMBPerSec,omitempty"`
	PerShipment float64 `json:"perShipment,omitempty"`
}

type spareJSON struct {
	Kind          string  `json:"kind"`
	ProvisionTime string  `json:"provisionTime,omitempty"`
	Discount      float64 `json:"discount,omitempty"`
}

type placementJSON struct {
	Array    string `json:"array,omitempty"`
	Building string `json:"building,omitempty"`
	Site     string `json:"site,omitempty"`
	Region   string `json:"region,omitempty"`
}

type primaryJSON struct {
	Array string `json:"array"`
}

type levelJSON struct {
	Type string `json:"type"`
	Name string `json:"name,omitempty"`
	// Device references; which are used depends on Type.
	Array       string `json:"array,omitempty"`
	SourceArray string `json:"sourceArray,omitempty"`
	Target      string `json:"target,omitempty"`
	DestArray   string `json:"destArray,omitempty"`
	Links       string `json:"links,omitempty"`
	Vault       string `json:"vault,omitempty"`
	Transport   string `json:"transport,omitempty"`
	// Mode applies to mirror levels: sync, async, async-batch.
	Mode string `json:"mode,omitempty"`
	// BackupRetW applies to vaulting levels.
	BackupRetW string `json:"backupRetW,omitempty"`
	// Fragments/Threshold/Sites apply to erasure-code levels.
	Fragments int        `json:"fragments,omitempty"`
	Threshold int        `json:"threshold,omitempty"`
	Sites     []string   `json:"sites,omitempty"`
	Policy    policyJSON `json:"policy"`
}

type policyJSON struct {
	AccW      string         `json:"accW"`
	PropW     string         `json:"propW,omitempty"`
	HoldW     string         `json:"holdW,omitempty"`
	RetCnt    int            `json:"retCnt"`
	RetW      string         `json:"retW"`
	CopyRep   string         `json:"copyRep,omitempty"`
	PropRep   string         `json:"propRep,omitempty"`
	Secondary *windowSetJSON `json:"secondary,omitempty"`
	CycleCnt  int            `json:"cycleCnt,omitempty"`
}

type windowSetJSON struct {
	AccW  string `json:"accW"`
	PropW string `json:"propW,omitempty"`
	HoldW string `json:"holdW,omitempty"`
	Rep   string `json:"rep,omitempty"`
}

type facilityJSON struct {
	Placement     placementJSON `json:"placement"`
	ProvisionTime string        `json:"provisionTime"`
	CostFactor    float64       `json:"costFactor"`
}

// ErrBadDesign wraps schema-level decode failures.
var ErrBadDesign = errors.New("config: invalid design")

// Marshal encodes a design as indented JSON.
func Marshal(d *core.Design) ([]byte, error) {
	dj, err := encodeDesign(d)
	if err != nil {
		return nil, err
	}
	return json.MarshalIndent(dj, "", "  ")
}

// Unmarshal decodes a design from JSON. The result is not yet validated;
// call core.Build (or Design.Validate) before use.
func Unmarshal(data []byte) (*core.Design, error) {
	var dj designJSON
	if readCanonical(data, &dj) {
		return decodeDesign(&dj)
	}
	// encoding/json merges into existing values, so it must not see the
	// reader's partial decode. Its own schema value also keeps dj on the
	// stack: passing dj's address to json.Unmarshal would move dj to the
	// heap.
	fresh := new(designJSON)
	if err := json.Unmarshal(data, fresh); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadDesign, err)
	}
	return decodeDesign(fresh)
}

// Save writes a design file.
func Save(path string, d *core.Design) error {
	data, err := Marshal(d)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Load reads a design file.
func Load(path string) (*core.Design, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	return Unmarshal(data)
}

// MarshalPolicy encodes one protection policy in the same schema a design
// file's level policy uses, so policies can travel on their own — e.g. as
// the options of a distributed-search policy knob (internal/dist).
func MarshalPolicy(p hierarchy.Policy) ([]byte, error) {
	return json.Marshal(encodePolicy(p))
}

// UnmarshalPolicy decodes a standalone policy encoded by MarshalPolicy.
func UnmarshalPolicy(data []byte) (hierarchy.Policy, error) {
	var pj policyJSON
	if err := json.Unmarshal(data, &pj); err != nil {
		return hierarchy.Policy{}, fmt.Errorf("%w: policy: %v", ErrBadDesign, err)
	}
	return decodePolicy(&pj)
}

// --- encoding ---------------------------------------------------------------

// fmtSize and fmtRate render quantities losslessly (%g prints the
// shortest digit string that round-trips a float64), unlike the one-
// decimal display formatting of the units package.
func fmtSize(b units.ByteSize) string {
	switch {
	case b == 0:
		return "0B"
	case b >= units.GB:
		return fmt.Sprintf("%gGB", float64(b/units.GB))
	case b >= units.MB:
		return fmt.Sprintf("%gMB", float64(b/units.MB))
	case b >= units.KB:
		return fmt.Sprintf("%gKB", float64(b/units.KB))
	default:
		return fmt.Sprintf("%gB", float64(b))
	}
}

func fmtRate(r units.Rate) string {
	switch {
	case r == 0:
		return "0B/s"
	case r >= units.MBPerSec:
		return fmt.Sprintf("%gMB/s", float64(r/units.MBPerSec))
	case r >= units.KBPerSec:
		return fmt.Sprintf("%gKB/s", float64(r/units.KBPerSec))
	default:
		return fmt.Sprintf("%gB/s", float64(r))
	}
}

func encodeDesign(d *core.Design) (*designJSON, error) {
	if d.Workload == nil || d.Primary == nil {
		return nil, fmt.Errorf("%w: workload and primary required", ErrBadDesign)
	}
	dj := &designJSON{
		Name:     d.Name,
		Workload: encodeWorkload(d.Workload),
		Requirements: requirementsJSON{
			UnavailPenaltyPerHour: d.Requirements.UnavailPenaltyRate.DollarsPerHour(),
			LossPenaltyPerHour:    d.Requirements.LossPenaltyRate.DollarsPerHour(),
		},
		Primary: primaryJSON{Array: d.Primary.Array},
	}
	dj.Devices = encodeDevices(d.Devices)
	for i, tech := range d.Levels {
		lj, err := encodeLevel(tech)
		if err != nil {
			return nil, fmt.Errorf("config: level %d: %w", i+1, err)
		}
		dj.Levels = append(dj.Levels, lj)
	}
	if d.Facility != nil {
		dj.Facility = &facilityJSON{
			Placement:     encodePlacement(d.Facility.Placement),
			ProvisionTime: units.FormatDuration(d.Facility.ProvisionTime),
			CostFactor:    d.Facility.CostFactor,
		}
	}
	return dj, nil
}

func encodeWorkload(w *workload.Workload) workloadJSON {
	wj := workloadJSON{
		Name:          w.Name,
		DataCap:       fmtSize(w.DataCap),
		AvgAccessRate: fmtRate(w.AvgAccessRate),
		AvgUpdateRate: fmtRate(w.AvgUpdateRate),
		BurstMult:     w.BurstMult,
	}
	for _, p := range w.BatchCurve {
		wj.BatchCurve = append(wj.BatchCurve, pointJSON{
			Window: units.FormatDuration(p.Window),
			Rate:   fmtRate(p.Rate),
		})
	}
	return wj
}

func encodeDevices(devs []core.PlacedDevice) []placedJSON {
	var out []placedJSON
	for _, pd := range devs {
		pj := placedJSON{
			Spec:      encodeSpec(pd.Spec),
			Placement: encodePlacement(pd.Placement),
		}
		if pd.SparePlacement != (failure.Placement{}) {
			sp := encodePlacement(pd.SparePlacement)
			pj.SparePlacement = &sp
		}
		out = append(out, pj)
	}
	return out
}

func encodeSpec(s device.Spec) specJSON {
	sj := specJSON{
		Name:        s.Name,
		Kind:        s.Kind.String(),
		MaxCapSlots: s.MaxCapSlots,
		MaxBWSlots:  s.MaxBWSlots,
		CapOverhead: s.CapOverhead,
		Cost: costJSON{
			Fixed:       float64(s.Cost.Fixed),
			PerGB:       s.Cost.PerGB,
			PerMBPerSec: s.Cost.PerMBPerSec,
			PerShipment: s.Cost.PerShipment,
		},
	}
	if s.SlotCap > 0 {
		sj.SlotCap = fmtSize(s.SlotCap)
	}
	if s.SlotBW > 0 {
		sj.SlotBW = fmtRate(s.SlotBW)
	}
	if s.EnclBW > 0 {
		sj.EnclBW = fmtRate(s.EnclBW)
	}
	if s.Delay > 0 {
		sj.Delay = units.FormatDuration(s.Delay)
	}
	if s.Spare.Kind != 0 && s.Spare.Kind != device.SpareNone {
		sj.Spare = &spareJSON{
			Kind:          s.Spare.Kind.String(),
			ProvisionTime: units.FormatDuration(s.Spare.ProvisionTime),
			Discount:      s.Spare.Discount,
		}
	}
	if !s.Reliability.IsZero() {
		sj.Reliability = &reliabilityJSON{
			Failure: encodeDist(s.Reliability.Failure),
			Repair:  encodeDist(s.Reliability.Repair),
		}
	}
	return sj
}

func encodeDist(d device.Distribution) distJSON {
	dj := distJSON{Kind: d.Kind.String(), Mean: units.FormatDuration(d.Mean)}
	if d.Kind == device.DistWeibull {
		dj.Shape = d.Shape
	}
	return dj
}

func encodePlacement(p failure.Placement) placementJSON {
	return placementJSON{Array: p.Array, Building: p.Building, Site: p.Site, Region: p.Region}
}

func encodeWindows(w hierarchy.WindowSet) windowSetJSON {
	return windowSetJSON{
		AccW:  units.FormatDuration(w.AccW),
		PropW: units.FormatDuration(w.PropW),
		HoldW: units.FormatDuration(w.HoldW),
		Rep:   w.Rep.String(),
	}
}

func encodePolicy(p hierarchy.Policy) policyJSON {
	pj := policyJSON{
		AccW:     units.FormatDuration(p.Primary.AccW),
		PropW:    units.FormatDuration(p.Primary.PropW),
		HoldW:    units.FormatDuration(p.Primary.HoldW),
		RetCnt:   p.RetCnt,
		RetW:     units.FormatDuration(p.RetW),
		CopyRep:  p.CopyRep.String(),
		PropRep:  p.Primary.Rep.String(),
		CycleCnt: p.CycleCnt,
	}
	if p.Secondary != nil {
		sj := encodeWindows(*p.Secondary)
		pj.Secondary = &sj
	}
	return pj
}

func encodeLevel(tech protect.Technique) (levelJSON, error) {
	switch t := tech.(type) {
	case *protect.SplitMirror:
		return levelJSON{Type: typeSplitMirror, Name: t.InstanceName, Array: t.Array, Policy: encodePolicy(t.Pol)}, nil
	case *protect.Snapshot:
		return levelJSON{Type: typeSnapshot, Name: t.InstanceName, Array: t.Array, Policy: encodePolicy(t.Pol)}, nil
	case *protect.Backup:
		return levelJSON{
			Type: typeBackup, Name: t.InstanceName,
			SourceArray: t.SourceArray, Target: t.Target,
			Policy: encodePolicy(t.Pol),
		}, nil
	case *protect.Vaulting:
		return levelJSON{
			Type: typeVaulting, Name: t.InstanceName,
			SourceArray: t.BackupDevice, Vault: t.Vault, Transport: t.Transport,
			BackupRetW: units.FormatDuration(t.BackupRetW),
			Policy:     encodePolicy(t.Pol),
		}, nil
	case *protect.Mirror:
		return levelJSON{
			Type: typeMirror, Name: t.InstanceName,
			DestArray: t.DestArray, Links: t.Links, Mode: t.Mode.String(),
			Policy: encodePolicy(t.Pol),
		}, nil
	case *protect.ErasureCode:
		return levelJSON{
			Type: typeErasure, Name: t.InstanceName,
			Fragments: t.Fragments, Threshold: t.Threshold,
			Sites: append([]string(nil), t.Sites...), Links: t.Links,
			Policy: encodePolicy(t.Pol),
		}, nil
	default:
		return levelJSON{}, fmt.Errorf("%w: unsupported technique %T", ErrBadDesign, tech)
	}
}

// --- decoding ---------------------------------------------------------------

func decodeDesign(dj *designJSON) (*core.Design, error) {
	w, err := decodeWorkload(&dj.Workload)
	if err != nil {
		return nil, err
	}
	d := &core.Design{
		Name:     dj.Name,
		Workload: w,
		Requirements: cost.Requirements{
			UnavailPenaltyRate: units.PerHour(dj.Requirements.UnavailPenaltyPerHour),
			LossPenaltyRate:    units.PerHour(dj.Requirements.LossPenaltyPerHour),
		},
		Primary: &protect.Primary{Array: dj.Primary.Array},
	}
	if d.Devices, err = decodeDevices(dj.Devices); err != nil {
		return nil, err
	}
	if len(dj.Levels) > 0 {
		d.Levels = make([]protect.Technique, len(dj.Levels))
	}
	for i := range dj.Levels {
		if d.Levels[i], err = decodeLevel(&dj.Levels[i]); err != nil {
			return nil, fmt.Errorf("config: level %d: %w", i+1, err)
		}
	}
	if d.Facility, err = decodeFacility(dj.Facility); err != nil {
		return nil, err
	}
	return d, nil
}

func decodeDevices(djs []placedJSON) ([]core.PlacedDevice, error) {
	if len(djs) == 0 {
		return nil, nil
	}
	out := make([]core.PlacedDevice, len(djs))
	for i := range djs {
		pj, pd := &djs[i], &out[i]
		if err := decodeSpec(&pj.Spec, &pd.Spec); err != nil {
			return nil, fmt.Errorf("config: device %d: %w", i, err)
		}
		pd.Placement = decodePlacement(pj.Placement)
		if pj.SparePlacement != nil {
			pd.SparePlacement = decodePlacement(*pj.SparePlacement)
		}
	}
	return out, nil
}

func decodeFacility(fj *facilityJSON) (*core.Facility, error) {
	if fj == nil {
		return nil, nil
	}
	prov, err := parseDuration(fj.ProvisionTime)
	if err != nil {
		return nil, fmt.Errorf("config: facility: %w", err)
	}
	return &core.Facility{
		Placement:     decodePlacement(fj.Placement),
		ProvisionTime: prov,
		CostFactor:    fj.CostFactor,
	}, nil
}

func decodeWorkload(wj *workloadJSON) (*workload.Workload, error) {
	dataCap, err := parseSize(wj.DataCap)
	if err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	access, err := parseRate(wj.AvgAccessRate)
	if err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	update, err := parseRate(wj.AvgUpdateRate)
	if err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	w := &workload.Workload{
		Name:          wj.Name,
		DataCap:       dataCap,
		AvgAccessRate: access,
		AvgUpdateRate: update,
		BurstMult:     wj.BurstMult,
	}
	if len(wj.BatchCurve) > 0 {
		w.BatchCurve = make([]workload.BatchPoint, len(wj.BatchCurve))
	}
	for i, pj := range wj.BatchCurve {
		p := &w.BatchCurve[i]
		if p.Window, err = parseDuration(pj.Window); err != nil {
			return nil, fmt.Errorf("batch curve: %w", err)
		}
		if p.Rate, err = parseRate(pj.Rate); err != nil {
			return nil, fmt.Errorf("batch curve: %w", err)
		}
	}
	return w, nil
}

// decodeSpec fills spec, which must be zero, from sj.
func decodeSpec(sj *specJSON, spec *device.Spec) error {
	kind, err := parseKind(sj.Kind)
	if err != nil {
		return err
	}
	*spec = device.Spec{
		Name:        sj.Name,
		Kind:        kind,
		MaxCapSlots: sj.MaxCapSlots,
		MaxBWSlots:  sj.MaxBWSlots,
		CapOverhead: sj.CapOverhead,
		Cost: device.CostModel{
			Fixed:       units.Money(sj.Cost.Fixed),
			PerGB:       sj.Cost.PerGB,
			PerMBPerSec: sj.Cost.PerMBPerSec,
			PerShipment: sj.Cost.PerShipment,
		},
		Spare: device.Spare{Kind: device.SpareNone},
	}
	if spec.SlotCap, err = parseSize(sj.SlotCap); err != nil {
		return err
	}
	if spec.SlotBW, err = parseRate(sj.SlotBW); err != nil {
		return err
	}
	if spec.EnclBW, err = parseRate(sj.EnclBW); err != nil {
		return err
	}
	if spec.Delay, err = parseDurationOpt(sj.Delay); err != nil {
		return err
	}
	if sj.Spare != nil {
		if spec.Spare.Kind, err = parseSpareKind(sj.Spare.Kind); err != nil {
			return err
		}
		if spec.Spare.ProvisionTime, err = parseDurationOpt(sj.Spare.ProvisionTime); err != nil {
			return err
		}
		spec.Spare.Discount = sj.Spare.Discount
	}
	if sj.Reliability != nil {
		if spec.Reliability.Failure, err = decodeDist(sj.Reliability.Failure); err != nil {
			return err
		}
		if spec.Reliability.Repair, err = decodeDist(sj.Reliability.Repair); err != nil {
			return err
		}
	}
	return nil
}

func decodeDist(dj distJSON) (device.Distribution, error) {
	kind, err := device.ParseDistKind(dj.Kind)
	if err != nil {
		return device.Distribution{}, fmt.Errorf("%w: %v", ErrBadDesign, err)
	}
	mean, err := parseDuration(dj.Mean)
	if err != nil {
		return device.Distribution{}, err
	}
	return device.Distribution{Kind: kind, Mean: mean, Shape: dj.Shape}, nil
}

func decodePlacement(p placementJSON) failure.Placement {
	return failure.Placement{Array: p.Array, Building: p.Building, Site: p.Site, Region: p.Region}
}

func decodePolicy(pj *policyJSON) (hierarchy.Policy, error) {
	accW, err := parseDuration(pj.AccW)
	if err != nil {
		return hierarchy.Policy{}, err
	}
	propW, err := parseDurationOpt(pj.PropW)
	if err != nil {
		return hierarchy.Policy{}, err
	}
	holdW, err := parseDurationOpt(pj.HoldW)
	if err != nil {
		return hierarchy.Policy{}, err
	}
	retW, err := parseDuration(pj.RetW)
	if err != nil {
		return hierarchy.Policy{}, err
	}
	copyRep, err := parseRep(pj.CopyRep)
	if err != nil {
		return hierarchy.Policy{}, err
	}
	propRep, err := parseRep(pj.PropRep)
	if err != nil {
		return hierarchy.Policy{}, err
	}
	pol := hierarchy.Policy{
		Primary:  hierarchy.WindowSet{AccW: accW, PropW: propW, HoldW: holdW, Rep: propRep},
		RetCnt:   pj.RetCnt,
		RetW:     retW,
		CopyRep:  copyRep,
		CycleCnt: pj.CycleCnt,
	}
	if pj.Secondary != nil {
		sAccW, err := parseDuration(pj.Secondary.AccW)
		if err != nil {
			return hierarchy.Policy{}, err
		}
		sPropW, err := parseDurationOpt(pj.Secondary.PropW)
		if err != nil {
			return hierarchy.Policy{}, err
		}
		sHoldW, err := parseDurationOpt(pj.Secondary.HoldW)
		if err != nil {
			return hierarchy.Policy{}, err
		}
		rep := hierarchy.RepPartial
		if pj.Secondary.Rep != "" {
			if rep, err = parseRep(pj.Secondary.Rep); err != nil {
				return hierarchy.Policy{}, err
			}
		}
		pol.Secondary = &hierarchy.WindowSet{AccW: sAccW, PropW: sPropW, HoldW: sHoldW, Rep: rep}
	}
	return pol, nil
}

func decodeLevel(lj *levelJSON) (protect.Technique, error) {
	pol, err := decodePolicy(&lj.Policy)
	if err != nil {
		return nil, err
	}
	switch lj.Type {
	case typeSplitMirror:
		return &protect.SplitMirror{InstanceName: lj.Name, Array: lj.Array, Pol: pol}, nil
	case typeSnapshot:
		return &protect.Snapshot{InstanceName: lj.Name, Array: lj.Array, Pol: pol}, nil
	case typeBackup:
		return &protect.Backup{InstanceName: lj.Name, SourceArray: lj.SourceArray, Target: lj.Target, Pol: pol}, nil
	case typeVaulting:
		retW, err := parseDurationOpt(lj.BackupRetW)
		if err != nil {
			return nil, err
		}
		return &protect.Vaulting{
			InstanceName: lj.Name,
			BackupDevice: lj.SourceArray,
			Vault:        lj.Vault,
			Transport:    lj.Transport,
			Pol:          pol,
			BackupRetW:   retW,
		}, nil
	case typeMirror:
		mode, err := parseMode(lj.Mode)
		if err != nil {
			return nil, err
		}
		return &protect.Mirror{
			InstanceName: lj.Name,
			Mode:         mode,
			DestArray:    lj.DestArray,
			Links:        lj.Links,
			Pol:          pol,
		}, nil
	case typeErasure:
		return &protect.ErasureCode{
			InstanceName: lj.Name,
			Fragments:    lj.Fragments,
			Threshold:    lj.Threshold,
			Sites:        append([]string(nil), lj.Sites...),
			Links:        lj.Links,
			Pol:          pol,
		}, nil
	default:
		return nil, fmt.Errorf("%w: unknown level type %q", ErrBadDesign, lj.Type)
	}
}

// --- parsing helpers --------------------------------------------------------

func parseDuration(s string) (time.Duration, error) {
	if s == "" {
		return 0, fmt.Errorf("%w: missing duration", ErrBadDesign)
	}
	d, err := units.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadDesign, err)
	}
	return d, nil
}

func parseDurationOpt(s string) (time.Duration, error) {
	if s == "" {
		return 0, nil
	}
	return parseDuration(s)
}

func parseSize(s string) (units.ByteSize, error) {
	if s == "" {
		return 0, nil
	}
	b, err := units.ParseByteSize(s)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadDesign, err)
	}
	return b, nil
}

func parseRate(s string) (units.Rate, error) {
	if s == "" {
		return 0, nil
	}
	r, err := units.ParseRate(s)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadDesign, err)
	}
	return r, nil
}

func parseKind(s string) (device.Kind, error) {
	switch s {
	case "storage":
		return device.KindStorage, nil
	case "interconnect":
		return device.KindInterconnect, nil
	case "transport":
		return device.KindTransport, nil
	default:
		return 0, fmt.Errorf("%w: unknown device kind %q", ErrBadDesign, s)
	}
}

func parseSpareKind(s string) (device.SpareKind, error) {
	switch s {
	case "", "none":
		return device.SpareNone, nil
	case "dedicated":
		return device.SpareDedicated, nil
	case "shared":
		return device.SpareShared, nil
	default:
		return 0, fmt.Errorf("%w: unknown spare kind %q", ErrBadDesign, s)
	}
}

func parseRep(s string) (hierarchy.Representation, error) {
	switch s {
	case "", "full":
		return hierarchy.RepFull, nil
	case "partial":
		return hierarchy.RepPartial, nil
	default:
		return 0, fmt.Errorf("%w: unknown representation %q", ErrBadDesign, s)
	}
}

func parseMode(s string) (protect.MirrorMode, error) {
	switch s {
	case "sync":
		return protect.MirrorSync, nil
	case "async":
		return protect.MirrorAsync, nil
	case "async-batch":
		return protect.MirrorAsyncBatch, nil
	default:
		return 0, fmt.Errorf("%w: unknown mirror mode %q", ErrBadDesign, s)
	}
}
