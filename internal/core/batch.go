package core

import (
	"fmt"
	"time"

	"stordep/internal/cost"
	"stordep/internal/device"
	"stordep/internal/failure"
	"stordep/internal/protect"
	"stordep/internal/recovery"
	"stordep/internal/units"
)

// This file implements the columnar batch assessment kernel: the
// scenario-evaluation arithmetic of AssessBrief restructured to run over
// flat per-candidate parameter arrays instead of a built System per
// candidate. A BatchKernel is compiled once per (base design, scenario
// set) pair and captures everything a candidate's knob choices cannot
// change — device placements, spare/facility resolution per scenario,
// multi-sited survival, fixed access delays — while a Cols block carries
// the per-candidate parameters that do vary (policy lags, retention
// spans, restore sizes, routing indices, bandwidth headroom, outlay
// totals). AssessBatch then walks N candidates per call with zero
// steady-state allocations.
//
// The kernel is an arithmetic replica, not an approximation: for any
// candidate whose row was folded from the kernel's level fragments (see
// rows.go), the Briefs it produces are bitwise identical to
// System.AssessBrief on the built candidate. The batch_test property
// tests and the fast paths' Probe checks both enforce this.

// batchMulti is the precomputed survival of one multi-sited level under
// one scenario: whether the survival threshold holds, and the device
// index of the first surviving fragment site (-1 when none survive).
type batchMulti struct {
	survives bool
	readIdx  int32
}

// BatchKernel holds the scenario- and placement-dependent tables shared
// by every candidate of a design space. Build one with NewBatchKernel;
// it is immutable afterwards and safe for concurrent AssessBatch calls
// with distinct Cols/BatchScratch.
type BatchKernel struct {
	sys      *System // the built base design
	scs      []failure.Scenario
	reqs     cost.Requirements
	nLevels  int
	nDevices int
	primary  int // device index of the primary array

	devName  []string
	devDelay []time.Duration
	devKind  []device.Kind

	// res[si*nDevices+d] resolves device d under scenario si
	// (System.resolve).
	res []resolution
	// multiLevel[j] marks base levels implementing protect.MultiSited;
	// their survival and fragment routing are placement-only and live in
	// multi[si*nLevels+j] (System.multiSurvival). Candidate columns must
	// keep these levels' multi-sited configuration identical to the base
	// design's.
	multiLevel []bool
	multi      []batchMulti

	// The base design cut into row inputs (rows.go): the primary copy's
	// demands and one fragment per level. retainer is the facility's cost
	// factor, charged on the base outlays of the devices marked covered
	// (those at the primary site).
	primaryDemands []IndexedDemand
	frags          []Fragment
	retainer       float64
	covered        []bool
}

// Cols is a columnar block of candidate parameters: row-major arrays
// with one row per candidate, sized for the kernel's level and device
// counts. All level-indexed arrays are len n*Levels, device-indexed
// arrays len n*Devices. Obtain one from BatchKernel.NewCols and fill
// rows with an Assembler.
type Cols struct {
	levels  int
	devices int

	// Valid marks rows holding a buildable candidate; Err carries the
	// build/validate error of invalid rows (AssessBatch skips them).
	Valid []bool
	Err   []error
	// OutlaysTotal is the candidate's total annual outlay
	// (System.Outlays().Total()).
	OutlaysTotal []units.Money

	// Per-level policy parameters (hierarchy.Policy derived).
	LvlLag     []time.Duration // Policy.TransferLag
	LvlAccW    []time.Duration // Policy.EffectiveAccW
	LvlRetSpan []time.Duration // Policy.RetentionSpan
	LvlRestore []units.ByteSize
	// Per-level routing: device indices of CopyDevice/ReadDevice and
	// TransportDevice (-1 when the technique names no transport).
	LvlCopy      []int32
	LvlRead      []int32
	LvlTransport []int32

	// Per-device bandwidth: the spec's MaxBandwidth and the normal-mode
	// AvailableBandwidth after the candidate's demands.
	DevMaxBW []units.Rate
	DevAvail []units.Rate
}

// NewCols allocates a columnar block for n candidates.
func (k *BatchKernel) NewCols(n int) *Cols {
	return &Cols{
		levels:       k.nLevels,
		devices:      k.nDevices,
		Valid:        make([]bool, n),
		Err:          make([]error, n),
		OutlaysTotal: make([]units.Money, n),
		LvlLag:       make([]time.Duration, n*k.nLevels),
		LvlAccW:      make([]time.Duration, n*k.nLevels),
		LvlRetSpan:   make([]time.Duration, n*k.nLevels),
		LvlRestore:   make([]units.ByteSize, n*k.nLevels),
		LvlCopy:      make([]int32, n*k.nLevels),
		LvlRead:      make([]int32, n*k.nLevels),
		LvlTransport: make([]int32, n*k.nLevels),
		DevMaxBW:     make([]units.Rate, n*k.nDevices),
		DevAvail:     make([]units.Rate, n*k.nDevices),
	}
}

// Rows returns how many candidate rows the block holds.
func (c *Cols) Rows() int { return len(c.Valid) }

// BatchScratch holds AssessBatch's output buffer so repeated calls reuse
// one allocation. A BatchScratch must not be shared between concurrent
// calls.
type BatchScratch struct {
	// Briefs is candidate-major: the brief for candidate i under
	// scenario si lands at Briefs[i*len(scenarios)+si]. Valid until the
	// next AssessBatch call with this scratch.
	Briefs []Brief
}

// Scenarios returns the kernel's scenario set (shared slice; read-only).
func (k *BatchKernel) Scenarios() []failure.Scenario { return k.scs }

// Levels returns the kernel's hierarchy level count.
func (k *BatchKernel) Levels() int { return k.nLevels }

// Devices returns the kernel's device count.
func (k *BatchKernel) Devices() int { return k.nDevices }

// maxRows is the most distinct outlay techniques a device can carry:
// the primary copy plus one technique per level.
func (k *BatchKernel) maxRows() int { return k.nLevels + 1 }

// BaseSpec returns the base design's spec of device di (read-only).
func (k *BatchKernel) BaseSpec(di int) *device.Spec { return &k.sys.design.Devices[di].Spec }

// BaseFragment returns the base design's fragment of level j (read-only).
func (k *BatchKernel) BaseFragment(j int) *Fragment { return &k.frags[j] }

// PrimaryDemands returns the primary copy's demands (shared slice,
// read-only), which every row folds first.
func (k *BatchKernel) PrimaryDemands() []IndexedDemand { return k.primaryDemands }

// Retainer returns the facility retainer's cost factor on device di's
// base outlays, or 0 when the retainer does not cover the device.
func (k *BatchKernel) Retainer(di int) float64 {
	if k.covered[di] {
		return k.retainer
	}
	return 0
}

// DeviceIndex returns the design-order index of the named device, or -1.
// Names are unique (Design.Validate) and few, so a scan is the lookup.
func (k *BatchKernel) DeviceIndex(name string) int {
	for i, n := range k.devName {
		if n == name {
			return i
		}
	}
	return -1
}

// The accessors below expose the kernel's precomputed per-scenario
// resolution tables read-only, so bound constructions (internal/opt's
// branch-and-bound pruner) can derive admissible floors from the same
// arithmetic assessOne uses without re-deriving placement survival.

// DeviceIntact reports whether device di survives scenario si untouched
// (neither lost nor replaced by spare/facility hardware).
func (k *BatchKernel) DeviceIntact(si, di int) bool {
	return k.res[si*k.nDevices+di].kind == resIntact
}

// PrimaryResolution reports how the primary array resolves under
// scenario si: lost means no spare or facility stands in (every
// candidate is unrecoverable for that scenario), otherwise provision is
// the stand-in's provisioning delay (zero when the array survives).
func (k *BatchKernel) PrimaryResolution(si int) (lost bool, provision time.Duration) {
	r := &k.res[si*k.nDevices+k.primary]
	return r.kind == resNone, r.provision
}

// MultiLevel reports whether base level j is multi-sited (survival
// decided by fragment placement, not the candidate's copy device).
func (k *BatchKernel) MultiLevel(j int) bool { return k.multiLevel[j] }

// MultiServe reports whether a multi-sited level's survival threshold
// holds under scenario si. Only meaningful when MultiLevel(j) is true.
func (k *BatchKernel) MultiServe(si, j int) bool { return k.multi[si*k.nLevels+j].survives }

// DeviceFixedDelay returns device di's fixed access delay (Spec.Delay),
// the serial term assessOne charges for every read through the device.
func (k *BatchKernel) DeviceFixedDelay(di int) time.Duration { return k.devDelay[di] }

// PenaltyFloor evaluates the scenario-independent penalty arithmetic for
// a given recovery time and data loss — the same cost.Assess fold
// assessOne applies, so a lower bound on (RT, DL) maps to a lower bound
// on penalties whenever the penalty rates are nonnegative (see
// NonNegativeRates).
func (k *BatchKernel) PenaltyFloor(rt, dl time.Duration) units.Money {
	return cost.Assess(k.reqs, rt, dl).Total()
}

// RecoveryFloor lower-bounds the recovery time assessOne reports when
// level j, carrying fragment f, serves under scenario si, given that
// each device d transfers at most ceil[d]. It is the restore assessOne
// evaluates (see restore), filled with ceil as every device's bandwidth.
// recovery.Restore's time never rises when a bandwidth rises
// (FuzzRestoreTime), and a candidate's bandwidths are at most the
// MaxBandwidth of the spec it carries, so the floor holds whenever
// ceil[d] is at least the MaxBandwidth of every spec device d can take.
// It is Forever when the reader or the destination resolves to no device
// (assessOne then reports the object lost).
func (k *BatchKernel) RecoveryFloor(si, j int, f *Fragment, ceil []units.Rate) time.Duration {
	var r recovery.Restore
	if !k.restore(&r, si, j, f.Copy, f.Read, f.Transport, f.Restore, ceil, ceil) {
		return units.Forever
	}
	return r.Time()
}

// restore fills r with the restore level j serves under scenario si,
// given the level's copy, read and transport device indices (tr is -1
// when it names no transport) and restore size. avail and maxBW are each
// device's normal-mode headroom and full rate. r must be zero. It
// reports false when the reader or the destination resolves to nothing.
func (k *BatchKernel) restore(r *recovery.Restore, si, j int, cp, rd, tr int32, size units.ByteSize, avail, maxBW []units.Rate) bool {
	base := si * k.nDevices
	r.MediaReturn = cp != rd
	if k.multiLevel[j] {
		if m := k.multi[si*k.nLevels+j]; m.readIdx >= 0 {
			rd = m.readIdx
		}
	}
	dest, read := &k.res[base+k.primary], &k.res[base+int(rd)]
	if dest.kind == resNone || read.kind == resNone {
		return false
	}
	// Fields are set one by one: a composite literal would build the
	// whole struct aside and copy it.
	r.ReadProvision, r.DestProvision = read.provision, dest.provision
	r.AccessDelay = k.devDelay[rd]
	r.ReadIntact, r.ReadAvail, r.ReadMax = read.kind == resIntact, avail[rd], maxBW[rd]
	r.DestIntact, r.DestAvail, r.DestMax = dest.kind == resIntact, avail[k.primary], maxBW[k.primary]
	r.SameDevice = int(rd) == k.primary
	r.Size, r.RecoverSize = size, k.scs[si].RecoverSize
	if tr >= 0 {
		r.Transit = k.devDelay[tr]
		if k.devKind[tr] == device.KindInterconnect && read.site != dest.site {
			r.CrossLink, r.LinkDelay, r.LinkBW = true, k.devDelay[tr], avail[tr]
		}
	}
	return true
}

// NonNegativeRates reports whether both penalty rates are >= 0, the
// condition under which cost.Assess is monotone nondecreasing in its
// duration arguments and PenaltyFloor yields admissible bounds.
func (k *BatchKernel) NonNegativeRates() bool {
	return k.reqs.UnavailPenaltyRate >= 0 && k.reqs.LossPenaltyRate >= 0
}

// NewBatchKernel compiles the scenario- and placement-dependent
// assessment tables for the system's design and cuts the design into
// row inputs (level fragments and primary demands). The
// scenario set is validated once here — AssessBatch never re-validates —
// and captured by value. Candidates evaluated against this kernel must
// not move devices, change spare/facility configuration, or alter any
// multi-sited level's fragment layout; Diff enforces that. The system's
// design must not be mutated while the kernel is in use.
func NewBatchKernel(sys *System, scs []failure.Scenario) (*BatchKernel, error) {
	d := sys.design
	for _, sc := range scs {
		if err := sc.Validate(); err != nil {
			return nil, err
		}
	}
	k := &BatchKernel{
		sys:      sys,
		scs:      append([]failure.Scenario(nil), scs...),
		reqs:     d.Requirements,
		nLevels:  len(d.Levels),
		nDevices: len(d.Devices),
		devName:  make([]string, len(d.Devices)),
		devDelay: make([]time.Duration, len(d.Devices)),
		devKind:  make([]device.Kind, len(d.Devices)),
	}
	for i, pd := range d.Devices {
		k.devName[i] = pd.Spec.Name
		k.devDelay[i] = pd.Spec.Delay
		k.devKind[i] = pd.Spec.Kind
	}
	if k.primary = k.DeviceIndex(d.Primary.Array); k.primary < 0 {
		return nil, fmt.Errorf("%w: %q", ErrUnknownLevel, d.Primary.Array)
	}

	k.res = make([]resolution, len(scs)*k.nDevices)
	for si, sc := range k.scs {
		for di := range d.Devices {
			k.res[si*k.nDevices+di] = sys.resolve(di, sc.Scope)
		}
	}
	k.multiLevel = make([]bool, k.nLevels)
	k.multi = make([]batchMulti, len(scs)*k.nLevels)
	for j, tech := range d.Levels {
		ms, ok := tech.(protect.MultiSited)
		if !ok {
			continue
		}
		k.multiLevel[j] = true
		for si, sc := range k.scs {
			survives, first := sys.multiSurvival(ms, sc.Scope)
			k.multi[si*k.nLevels+j] = batchMulti{survives: survives, readIdx: int32(k.DeviceIndex(first))}
		}
	}

	k.covered = make([]bool, k.nDevices)
	if d.Facility != nil && d.Facility.CostFactor != 0 {
		k.retainer = d.Facility.CostFactor
		site := d.PrimaryPlacement().Site
		for i, pd := range d.Devices {
			k.covered[i] = pd.Placement.Site != "" && pd.Placement.Site == site
		}
	}
	// The base design built, so its extraction repeats checks Build
	// already passed.
	a := k.NewAssembler()
	var err error
	if k.primaryDemands, err = a.capture(d.Primary.ApplyDemands, nil); err != nil {
		return nil, fmt.Errorf("core: batch kernel: primary: %w", err)
	}
	k.frags = make([]Fragment, k.nLevels)
	for j, tech := range d.Levels {
		if k.frags[j], err = a.Fragment(tech, nil); err != nil {
			return nil, fmt.Errorf("core: batch kernel: level %d: %w", j+1, err)
		}
	}
	return k, nil
}

// AssessBatch assesses the first n candidate rows of cols under every
// kernel scenario, writing Briefs into scratch (candidate-major, see
// BatchScratch.Briefs). Rows with Valid=false get zero Briefs — callers
// surface cols.Err for those. After the scratch's buffer has warmed up
// the call performs no allocations.
func (k *BatchKernel) AssessBatch(n int, cols *Cols, scratch *BatchScratch) {
	ns := len(k.scs)
	need := n * ns
	if cap(scratch.Briefs) < need {
		scratch.Briefs = make([]Brief, need)
	}
	scratch.Briefs = scratch.Briefs[:need]
	for i := 0; i < n; i++ {
		out := scratch.Briefs[i*ns : (i+1)*ns]
		if !cols.Valid[i] {
			for si := range out {
				out[si] = Brief{}
			}
			continue
		}
		lvl := i * k.nLevels
		dev := i * k.nDevices
		avail := cols.DevAvail[dev : dev+k.nDevices]
		maxBW := cols.DevMaxBW[dev : dev+k.nDevices]
		for si := range k.scs {
			out[si] = k.assessOne(cols, lvl, avail, maxBW, si, cols.OutlaysTotal[i])
		}
	}
}

// assessOne is the flat-form replica of AssessBrief for one (candidate,
// scenario) pair: source selection over the guaranteed ranges, then the
// restore (see restore), then penalties. avail and maxBW are the
// candidate's per-device bandwidths. Pure arithmetic over the kernel
// tables and the candidate's columns — no allocation.
func (k *BatchKernel) assessOne(cols *Cols, lvl int, avail, maxBW []units.Rate, si int, outlays units.Money) Brief {
	sc := &k.scs[si]
	resBase := si * k.nDevices

	// Source selection: argmin worst-case loss over surviving levels,
	// ties to the lower level (§3.3.3). cum accumulates CumTransferLag —
	// a level's own transfer lag is included in its cumulative lag.
	bestLevel := -1
	var bestLoss time.Duration
	var cum time.Duration
	for j := 0; j < k.nLevels; j++ {
		cum += cols.LvlLag[lvl+j]
		var surv bool
		if k.multiLevel[j] {
			surv = k.multi[si*k.nLevels+j].survives
		} else {
			surv = k.res[resBase+int(cols.LvlCopy[lvl+j])].kind == resIntact
		}
		if !surv {
			continue
		}
		oldest := cols.LvlRetSpan[lvl+j] + cum
		newest := cum + cols.LvlAccW[lvl+j]
		if (oldest == 0 && newest == 0) || oldest < newest {
			continue // guaranteed range empty: conservatively too old
		}
		var loss time.Duration
		switch {
		case sc.TargetAge < newest:
			loss = newest // too recent: worst-case lag (MaxLag)
		case sc.TargetAge > oldest:
			continue // too old: cannot serve
		default:
			loss = cols.LvlAccW[lvl+j] // covered: one accumulation window
		}
		if bestLevel == -1 || loss < bestLoss {
			bestLevel = j
			bestLoss = loss
		}
	}
	if bestLevel < 0 {
		return k.lostBrief(outlays)
	}
	at := lvl + bestLevel
	var r recovery.Restore
	if !k.restore(&r, si, bestLevel, cols.LvlCopy[at], cols.LvlRead[at], cols.LvlTransport[at], cols.LvlRestore[at], avail, maxBW) {
		return k.lostBrief(outlays)
	}
	b := Brief{RecoveryTime: r.Time(), DataLoss: bestLoss}
	b.Penalties = cost.Assess(k.reqs, b.RecoveryTime, b.DataLoss).Total()
	b.Total = outlays + b.Penalties
	return b
}

// lostBrief fills the §3.3.3 whole-object-lost case.
func (k *BatchKernel) lostBrief(outlays units.Money) Brief {
	b := Brief{
		RecoveryTime:    units.Forever,
		DataLoss:        units.Forever,
		WholeObjectLost: true,
	}
	b.Penalties = cost.Assess(k.reqs, units.Forever, units.Forever).Total()
	b.Total = outlays + b.Penalties
	return b
}
