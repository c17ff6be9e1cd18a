package core

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"stordep/internal/cost"
	"stordep/internal/device"
	"stordep/internal/failure"
	"stordep/internal/hierarchy"
	"stordep/internal/protect"
	"stordep/internal/recovery"
	"stordep/internal/workload"
)

// ObjectSpec is one data object in a multi-object design: its workload,
// primary copy, protection levels, and the objects whose recovery must
// complete before this one can begin (§3.1.1: "inter-object dependencies
// during recovery" — an application's data volume is useless before its
// catalog volume is back).
type ObjectSpec struct {
	Name      string
	Workload  *workload.Workload
	Primary   *protect.Primary
	Levels    []protect.Technique
	DependsOn []string
}

// MultiDesign extends Design to several data objects sharing one device
// fleet, the extension §3.1.1 sketches: each object's demands are tracked
// explicitly, utilization aggregates across objects, and recovery honors
// inter-object dependencies.
type MultiDesign struct {
	Name         string
	Requirements cost.Requirements
	Devices      []PlacedDevice
	Facility     *Facility
	Objects      []ObjectSpec
}

// Multi-design validation errors.
var (
	ErrNoObjects   = errors.New("core: multi design needs at least one object")
	ErrDupObject   = errors.New("core: duplicate object name")
	ErrDupTech     = errors.New("core: technique instance names must be unique across objects")
	ErrUnknownDep  = errors.New("core: dependency on unknown object")
	ErrDependCycle = errors.New("core: object dependencies form a cycle")
)

// Validate checks the multi design: every object forms a valid
// single-object design over the shared fleet, technique names are
// globally unique (required for demand attribution), and the dependency
// graph is acyclic.
func (md *MultiDesign) Validate() error {
	if len(md.Objects) == 0 {
		return ErrNoObjects
	}
	names := make(map[string]bool, len(md.Objects))
	techNames := make(map[string]bool)
	for _, obj := range md.Objects {
		if obj.Name == "" {
			return fmt.Errorf("%w: object with empty name", ErrDupObject)
		}
		if names[obj.Name] {
			return fmt.Errorf("%w: %q", ErrDupObject, obj.Name)
		}
		names[obj.Name] = true
		for _, tech := range obj.Levels {
			if techNames[tech.Name()] {
				return fmt.Errorf("%w: %q (set InstanceName per object)", ErrDupTech, tech.Name())
			}
			techNames[tech.Name()] = true
		}
		if err := md.ObjectDesign(obj).Validate(); err != nil {
			return fmt.Errorf("core: object %s: %w", obj.Name, err)
		}
	}
	for _, obj := range md.Objects {
		for _, dep := range obj.DependsOn {
			if !names[dep] {
				return fmt.Errorf("%w: %s -> %q", ErrUnknownDep, obj.Name, dep)
			}
		}
	}
	return md.checkAcyclic()
}

// checkAcyclic rejects dependency cycles via iterative DFS coloring.
func (md *MultiDesign) checkAcyclic() error {
	deps := make(map[string][]string, len(md.Objects))
	for _, obj := range md.Objects {
		deps[obj.Name] = obj.DependsOn
	}
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[string]int, len(deps))
	var visit func(string) error
	visit = func(n string) error {
		switch color[n] {
		case gray:
			return fmt.Errorf("%w (at %q)", ErrDependCycle, n)
		case black:
			return nil
		}
		color[n] = gray
		for _, d := range deps[n] {
			if err := visit(d); err != nil {
				return err
			}
		}
		color[n] = black
		return nil
	}
	for _, obj := range md.Objects {
		if err := visit(obj.Name); err != nil {
			return err
		}
	}
	return nil
}

// ObjectDesign synthesizes the single-object view of one object over the
// shared fleet. The per-object design shares the fleet slice; demands are
// still applied on the shared devices by BuildMulti. Callers that build
// the result directly (e.g. the chaos engine's per-object invariant
// batteries) get a fresh fleet carrying only that object's demands.
func (md *MultiDesign) ObjectDesign(obj ObjectSpec) *Design {
	return &Design{
		Name:         fmt.Sprintf("%s/%s", md.Name, obj.Name),
		Workload:     obj.Workload,
		Requirements: md.Requirements,
		Devices:      md.Devices,
		Primary:      obj.Primary,
		Levels:       obj.Levels,
		Facility:     md.Facility,
	}
}

// LevelDeviceNames lists the devices whose failure takes a level's
// protection out of service: the copy device(s) holding its RPs and the
// interconnect/transport crossed to reach them. The read device only
// matters at restore time, not for RP propagation. Shared by the Monte
// Carlo sampler (device down intervals → level outages) and the chaos
// correlation engine (shared-device events → dependent-object outages).
// The names are appended to names, which is returned extended.
func LevelDeviceNames(names []string, tech protect.Technique) []string {
	if ms, ok := tech.(interface{ CopyDevices() []string }); ok {
		names = append(names, ms.CopyDevices()...)
	} else if d := tech.CopyDevice(); d != "" {
		names = append(names, d)
	}
	if d := tech.TransportDevice(); d != "" {
		names = append(names, d)
	}
	return names
}

// DevicePlacement returns the placement of the named fleet device.
func (md *MultiDesign) DevicePlacement(name string) (failure.Placement, bool) {
	for _, pd := range md.Devices {
		if pd.Spec.Name == name {
			return pd.Placement, true
		}
	}
	return failure.Placement{}, false
}

// MultiSystem is a built multi-object design: one shared device fleet
// carrying every object's demands, with a per-object System view for
// assessment.
type MultiSystem struct {
	design  *MultiDesign
	devices protect.DeviceMap
	objects map[string]*System
	order   []string
	outlays cost.Outlays
}

// BuildMulti validates the design, applies every object's demands to the
// shared fleet, and checks aggregate utilization — the point of the
// multi-object extension: two objects that fit individually can overload
// a shared array together.
func BuildMulti(md *MultiDesign) (*MultiSystem, error) {
	if err := md.Validate(); err != nil {
		return nil, err
	}
	// Each object's primary copy and levels register at most one demand
	// per device.
	room := 0
	for _, obj := range md.Objects {
		room += len(obj.Levels) + 1
	}
	devs := newDevices(new(device.Fleet), md.Devices, room)
	ms := &MultiSystem{
		design:  md,
		devices: devs,
		objects: make(map[string]*System, len(md.Objects)),
	}
	for _, obj := range md.Objects {
		if err := obj.Primary.ApplyDemands(obj.Workload, devs); err != nil {
			return nil, fmt.Errorf("core: object %s: %w", obj.Name, err)
		}
		for i, tech := range obj.Levels {
			if err := tech.ApplyDemands(obj.Workload, devs); err != nil {
				return nil, fmt.Errorf("core: object %s level %d: %w", obj.Name, i+1, err)
			}
		}
	}
	for _, dev := range devs {
		if err := dev.Check(); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	// Outlays are computed once over the shared fleet; facility retainer
	// piggybacks on the first object's placement view (the fleet and
	// facility are shared). Every object view carries them.
	ms.outlays = collectOutlays(nil, md.ObjectDesign(md.Objects[0]), devs)
	for _, obj := range md.Objects {
		od := md.ObjectDesign(obj)
		ms.objects[obj.Name] = newSystem(od, od.Chain(), devs, ms.outlays)
		ms.order = append(ms.order, obj.Name)
	}
	return ms, nil
}

// Object returns the per-object System view (shared devices, own chain).
func (ms *MultiSystem) Object(name string) *System { return ms.objects[name] }

// Objects returns the object names in design order.
func (ms *MultiSystem) Objects() []string {
	out := make([]string, len(ms.order))
	copy(out, ms.order)
	return out
}

// Outlays returns the fleet-wide annualized outlays.
func (ms *MultiSystem) Outlays() cost.Outlays { return ms.outlays }

// Utilization aggregates normal-mode utilization across all objects.
func (ms *MultiSystem) Utilization() Utilization {
	// Any object's System sees the shared devices; use the first.
	return ms.objects[ms.order[0]].Utilization()
}

// ObjectAssessment pairs an object with its assessment and its effective
// recovery time once dependencies are honored.
type ObjectAssessment struct {
	Object string
	*Assessment
	// RecoveryStart is when the object's recovery may begin: the latest
	// effective recovery time over its dependencies (zero for independent
	// objects).
	RecoveryStart time.Duration
	// EffectiveRT is when the object is back in service: its own recovery
	// time after every dependency has recovered. Independent objects
	// recover in parallel; dependent ones serialize.
	EffectiveRT time.Duration
}

// ServiceAssessment is the business-service view of a multi-object
// failure: the service runs again only when every object is back.
type ServiceAssessment struct {
	Scenario failure.Scenario
	Objects  []ObjectAssessment
	// RecoveryTime is the critical path over the dependency DAG.
	RecoveryTime time.Duration
	// DataLoss is the worst per-object loss (a service is as stale as its
	// stalest object).
	DataLoss time.Duration
	// Cost totals fleet outlays and service-level penalties.
	Cost cost.Summary
}

// Assess evaluates the scenario for every object and composes the
// service-level metrics along the dependency DAG.
func (ms *MultiSystem) Assess(sc failure.Scenario) (*ServiceAssessment, error) {
	perObject := make(map[string]*Assessment, len(ms.order))
	for _, name := range ms.order {
		a, err := ms.objects[name].Assess(sc)
		if err != nil {
			return nil, fmt.Errorf("core: object %s: %w", name, err)
		}
		perObject[name] = a
	}
	return ms.compose(sc, perObject)
}

// AssessDegraded evaluates the scenario while protection levels have been
// out of service, per object: outages maps object names to the compound
// level outages their hierarchies suffered (objects absent from the map
// are assessed healthy). Recovery still honors the dependency DAG, so an
// outage degrading one object's recovery delays everything downstream of
// it.
func (ms *MultiSystem) AssessDegraded(sc failure.Scenario, outages map[string][]hierarchy.LevelOutage) (*ServiceAssessment, error) {
	names := make([]string, 0, len(outages))
	for name := range outages {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, ok := ms.objects[name]; !ok {
			return nil, fmt.Errorf("core: outage for unknown object %q", name)
		}
	}
	perObject := make(map[string]*Assessment, len(ms.order))
	for _, name := range ms.order {
		var (
			a   *Assessment
			err error
		)
		if outs := outages[name]; len(outs) > 0 {
			a, err = ms.objects[name].AssessDegradedCompound(sc, outs)
		} else {
			a, err = ms.objects[name].Assess(sc)
		}
		if err != nil {
			return nil, fmt.Errorf("core: object %s: %w", name, err)
		}
		perObject[name] = a
	}
	return ms.compose(sc, perObject)
}

// compose folds per-object assessments into the service view: effective
// recovery times via the dependency-ordered schedule, worst per-object
// loss, and service-level penalties.
func (ms *MultiSystem) compose(sc failure.Scenario, perObject map[string]*Assessment) (*ServiceAssessment, error) {
	objs := make([]recovery.ObjectRT, 0, len(ms.order))
	for _, name := range ms.order {
		objs = append(objs, recovery.ObjectRT{Name: name, RT: perObject[name].RecoveryTime})
	}
	deps := make(map[string][]string, len(ms.design.Objects))
	for _, obj := range ms.design.Objects {
		deps[obj.Name] = obj.DependsOn
	}
	// The DAG was validated acyclic at build time; Schedule re-checks.
	sched, critical, err := recovery.Schedule(objs, deps)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	out := &ServiceAssessment{Scenario: sc, RecoveryTime: critical}
	for i, name := range ms.order {
		a := perObject[name]
		out.Objects = append(out.Objects, ObjectAssessment{
			Object:        name,
			Assessment:    a,
			RecoveryStart: sched[i].Start,
			EffectiveRT:   sched[i].Finish,
		})
		if a.DataLoss > out.DataLoss {
			out.DataLoss = a.DataLoss
		}
	}
	out.Cost = cost.Summary{
		Outlays:   ms.outlays,
		Penalties: cost.Assess(ms.design.Requirements, out.RecoveryTime, out.DataLoss),
	}
	return out, nil
}
