package opt

import (
	"fmt"
	"slices"
	"sort"

	"stordep/internal/core"
	"stordep/internal/device"
	"stordep/internal/failure"
	"stordep/internal/parallel"
	"stordep/internal/protect"
)

// This file compiles a knob space into flat per-candidate parameter
// tables so the exhaustive inner loop can run through the columnar batch
// kernel (core.BatchKernel) instead of cloning, re-applying knobs and
// re-building a System per candidate.
//
// The observation behind the compilation: knobs touch small, disjoint
// parts of a design. A one-time pass learns each knob's footprint, the
// hierarchy levels and device specs it changes, from the first of its
// options that applies, passes Diff against the base design
// (core.BatchKernel.Diff) and touches anything; no built-in knob's
// footprint changes between options. Knobs with overlapping footprints
// are unioned into groups, and for every joint option combination of
// each group the pass precomputes the level fragments (core.Fragment:
// policy lags, retention spans, restore sizes, routing indices, demand
// lists) and device specs that combination produces. Filling a
// candidate row is then a table lookup plus core's fold
// (core.Assembler.Fold) in exactly Build's order, so the results are
// bit-identical to the clone-and-build path. Every table entry is
// applied and diffed against the whole base design, so an option that
// writes outside its knob's footprint only makes its entries suspect; a
// knob none of whose options touches anything is scanned to its last
// option, which proves it touchless.
//
// Compilation itself applies options to one private copy of the base
// design per worker, reset in place rather than cloned per option:
// after Diff accepts an option's result, each level it reported is
// replaced by a fresh CloneTechnique of the base level and each device
// spec it reported is copied back from the base. Diff compares every
// field of the design, its devices and its techniques, so the reset
// copy equals a fresh clone wherever a knob or the fragment extraction
// can look. When an Apply errors or Diff refuses the result (the cases
// that mark an option or an entry suspect), nothing says what changed,
// so the copy is dropped and cloned again. Nothing in the copy is
// shared with the caller's design, and knobs install nothing shared
// into it (Knob.Apply), so no option's writes outlive its reset.
//
// A group whose members are all Revertible skips the reset and walks
// its entries like an odometer: an entry re-applies its members from
// the first one whose option differs from what the worker's copy holds.
// Revertible promises that a knob overwrites all the state it controls
// and reads only state the knobs before it in the choice vector write,
// so the members before that one would write exactly what the copy
// already holds, and each entry sees exactly a fresh clone's state.
// Every member is re-applied on a fresh clone, after a drop or a reset,
// and on a change of group, which first resets the copy. An entry whose
// diff strays outside its group is still reset.
//
// Fragment extraction captures an entry's demand records in place, into
// the unused tail of its worker's demand chunk, sized for the worker's
// share of the group's remaining entries; the fragments keep capped
// windows of it, so no record is copied after its capture.
//
// Anything the tables cannot represent exactly is handled by falling
// back, at one of three granularities:
//
//   - per candidate: options whose effects the tables cannot carry
//     (moved devices, changed spare/facility/multi-sited configuration,
//     apply errors, unknown device references, invalid policies,
//     duplicate level names) mark just those candidates "slow"; slow
//     candidates take the clone+build path inside the batched sweep
//     (sweep.go) and stay byte-identical by construction.
//   - per compilation: oversized groups, base designs that will not
//     build, or a probe mismatch refuse the compilation; the sweep then
//     runs every candidate of the slice as a slow row.
//   - probes: before a compiled space is trusted, a spread of candidate
//     indices is evaluated both ways and compared field by field
//     (core.Probe).
//
// The compilation assumes each knob's Apply reads only design state
// that it (or a knob sharing its touch footprint) also writes. Every
// built-in knob satisfies this: the only state a built-in knob reads
// (e.g. AccWKnob's propagation-window clamp, RetCntKnob's cycle-period
// read) lives on its own level, and any other knob writing that level
// lands in the same group, where joint enumeration reproduces the
// interaction exactly — provided one of its options changes the base on
// its own. A knob whose every option leaves the base as it is (an AccW
// knob offering only the base's window) is touchless and joins no
// group, even where it would rewrite what another knob set; only the
// probe pass, the safety net for exotic knobs, can then refuse the
// compilation, when a probe lands on an affected candidate.

const (
	// defaultBatchSize is the candidate count per batched sweep step.
	defaultBatchSize = 64
	// maxGroupOptions caps one group's joint-option product; interacting
	// knobs beyond it abort compilation rather than explode the tables.
	maxGroupOptions = 4096
	// maxCompileWork caps the total option extractions of one
	// compilation (per-knob diffs plus all group tables).
	maxCompileWork = 16384
	// compileProbes is how many spread candidate indices are verified
	// against the clone-and-build path before a compiled space is trusted.
	compileProbes = 16
)

// groupEntry is one joint option combination of a knob group: either
// the precomputed fragments/specs, or suspect (candidate goes slow).
type groupEntry struct {
	suspect bool
	frags   []core.Fragment // aligned with knobGroup.levels
	specs   []device.Spec   // aligned with knobGroup.devices
}

// knobGroup unions knobs whose touch footprints overlap. Its table
// holds one entry per joint option combination (members in knob order,
// last member least significant — the mixed-radix convention).
type knobGroup struct {
	members []int // knob indices, ascending
	radix   []int
	size    int
	levels  []int // touched level indices, ascending
	devices []int // touched device indices, ascending
	entries []groupEntry
	// revertible: every member is Revertible, so an entry re-applies
	// only the members from the first whose option changed, over the
	// previous entry's copy, without a reset.
	revertible bool
}

// compiledSpace is the compiled form of (base design, knob set,
// scenario set): immutable after compileSpace, safe for concurrent fill
// with distinct fillScratch/Cols.
type compiledSpace struct {
	base  *core.Design
	knobs []Knob
	scs   []failure.Scenario
	kern  *core.BatchKernel
	// cloneEach makes compilation clone the base for every option and
	// entry instead of reusing its reset copy: the reference the tests
	// compare the reset against.
	cloneEach bool

	nLevels  int
	nDevices int

	groups     []knobGroup
	levelOwner []int // level -> owning group, -1 = untouched (base)
	specOwner  []int // device -> owning group, -1 = untouched (base)
	specSlot   []int // position in the owner's devices list
	// knobSuspect[k][o]: option o of knob k is unrepresentable (apply
	// error or forbidden change) — every candidate choosing it is slow.
	knobSuspect [][]bool
}

// fillScratch is one worker's reusable state for fill: core's row
// assembler plus the candidate's fragment and spec per level and device.
// Levels and devices no group owns keep pointing at the base. No
// allocation happens in fill once a scratch exists.
type fillScratch struct {
	asm   *core.Assembler
	frags []*core.Fragment
	specs []*device.Spec
}

func newFillScratch(cs *compiledSpace) *fillScratch {
	fs := &fillScratch{
		asm:   cs.kern.NewAssembler(),
		frags: make([]*core.Fragment, cs.nLevels),
		specs: make([]*device.Spec, cs.nDevices),
	}
	for j := range fs.frags {
		fs.frags[j] = cs.kern.BaseFragment(j)
	}
	for di := range fs.specs {
		fs.specs[di] = cs.kern.BaseSpec(di)
	}
	return fs
}

// workDesign is one compile worker's private copy of the base design.
// Options are applied to it in place; restore readies it for the next
// option.
type workDesign struct {
	cs *compiledSpace
	d  *core.Design // nil after drop: the next get clones the base
}

// get returns the copy and whether it is a fresh clone of the base,
// cloning when none is held (and every time in cloneEach mode).
func (w *workDesign) get() (d *core.Design, fresh bool, err error) {
	if w.d != nil && !w.cs.cloneEach {
		return w.d, false, nil
	}
	if d, err = Clone(w.cs.base); err != nil {
		return nil, false, err
	}
	w.d = d
	return d, true, nil
}

// restore returns the copy to the base state after Diff reported t:
// each reported level becomes a fresh clone of the base level and each
// reported spec is copied back. Diff accepted everything else as equal
// to the base.
func (w *workDesign) restore(t *core.Touch) {
	for _, j := range t.Levels {
		// Clone succeeded on the base, so every base level is a Cloner.
		w.d.Levels[j] = w.cs.base.Levels[j].(protect.Cloner).CloneTechnique()
	}
	for _, di := range t.Devices {
		w.d.Devices[di].Spec = w.cs.base.Devices[di].Spec
	}
}

// drop discards the copy after an apply error or a refused Diff, when
// nothing says which of its parts changed.
func (w *workDesign) drop() { w.d = nil }

// compileSpace builds the compiled form or reports why it cannot. A nil
// error means the space passed probe verification; any error means the
// caller runs every candidate slow (the error is diagnostic only).
func compileSpace(base *core.Design, knobs []Knob, scs []failure.Scenario, workers int) (*compiledSpace, error) {
	work := 0
	for _, k := range knobs {
		work += len(k.Options)
	}
	if work > maxCompileWork {
		return nil, fmt.Errorf("opt: compile: %d knob options exceed the compile work cap", work)
	}
	baseSys, err := core.Build(base)
	if err != nil {
		return nil, fmt.Errorf("opt: compile: base design: %w", err)
	}
	kern, err := core.NewBatchKernel(baseSys, scs)
	if err != nil {
		return nil, fmt.Errorf("opt: compile: %w", err)
	}
	cs := &compiledSpace{
		base:     base,
		knobs:    knobs,
		scs:      scs,
		kern:     kern,
		nLevels:  kern.Levels(),
		nDevices: kern.Devices(),
	}
	remaining := maxCompileWork - work
	if err := cs.groupKnobs(remaining); err != nil {
		return nil, err
	}
	if err := cs.extractGroups(workers); err != nil {
		return nil, err
	}
	if err := cs.verify(); err != nil {
		return nil, err
	}
	return cs, nil
}

// groupKnobs learns each knob's touch footprint from the first of its
// options that applies, passes Diff and touches a level or device spec,
// then unions knobs sharing a level or a device spec into groups. The
// options before it that fail are suspect; a knob none of whose options
// touches anything is scanned to its last option and joins no group.
// budget bounds the total group table size.
func (cs *compiledSpace) groupKnobs(budget int) error {
	nk := len(cs.knobs)
	cs.knobSuspect = make([][]bool, nk)
	touchL := make([][]int, nk)
	touchD := make([][]int, nk)
	var t core.Touch
	w := workDesign{cs: cs}
	for k := range cs.knobs {
		opts := cs.knobs[k].Options
		cs.knobSuspect[k] = make([]bool, len(opts))
		for o := range opts {
			d, _, err := w.get()
			if err != nil {
				return err
			}
			if cs.knobs[k].Apply(d, o) != nil || !cs.kern.Diff(d, &t) {
				// Candidates choosing the option go slow, where an apply
				// error aborts the search exactly as it should.
				cs.knobSuspect[k][o] = true
				w.drop()
				continue
			}
			w.restore(&t)
			if len(t.Levels) > 0 || len(t.Devices) > 0 {
				touchL[k] = slices.Clone(t.Levels)
				touchD[k] = slices.Clone(t.Devices)
				break
			}
		}
	}

	// Union-find over knobs: two knobs sharing a touched level or spec
	// interact and must be enumerated jointly.
	parent := make([]int, nk)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }
	levelTo := map[int]int{}
	devTo := map[int]int{}
	for k := 0; k < nk; k++ {
		for _, j := range touchL[k] {
			if p, ok := levelTo[j]; ok {
				union(p, k)
			} else {
				levelTo[j] = k
			}
		}
		for _, di := range touchD[k] {
			if p, ok := devTo[di]; ok {
				union(p, k)
			} else {
				devTo[di] = k
			}
		}
	}

	byRoot := map[int]*knobGroup{}
	var roots []int
	for k := 0; k < nk; k++ {
		if len(touchL[k]) == 0 && len(touchD[k]) == 0 {
			continue // touchless knob: every option leaves the base state
		}
		r := find(k)
		g, ok := byRoot[r]
		if !ok {
			g = &knobGroup{revertible: true}
			byRoot[r] = g
			roots = append(roots, r)
		}
		g.members = append(g.members, k)
		g.revertible = g.revertible && cs.knobs[k].Revertible
		g.levels = append(g.levels, touchL[k]...)
		g.devices = append(g.devices, touchD[k]...)
	}

	cs.levelOwner = make([]int, cs.nLevels)
	cs.specOwner = make([]int, cs.nDevices)
	cs.specSlot = make([]int, cs.nDevices)
	for j := range cs.levelOwner {
		cs.levelOwner[j] = -1
	}
	for i := range cs.specOwner {
		cs.specOwner[i] = -1
	}
	total := 0
	for _, r := range roots {
		g := byRoot[r]
		sort.Ints(g.members)
		g.levels = dedupSorted(g.levels)
		g.devices = dedupSorted(g.devices)
		g.size = 1
		for _, k := range g.members {
			n := len(cs.knobs[k].Options)
			g.radix = append(g.radix, n)
			if g.size > maxGroupOptions/n {
				return fmt.Errorf("opt: compile: knob group around %q exceeds %d joint options",
					cs.knobs[k].Name, maxGroupOptions)
			}
			g.size *= n
		}
		total += g.size
		if total > budget {
			return fmt.Errorf("opt: compile: group tables exceed the compile work cap")
		}
		gi := len(cs.groups)
		for _, j := range g.levels {
			cs.levelOwner[j] = gi
		}
		for slot, di := range g.devices {
			cs.specOwner[di] = gi
			cs.specSlot[di] = slot
		}
		cs.groups = append(cs.groups, *g)
	}
	return nil
}

// extractor is one extraction worker's state: its core.Assembler, its
// reset-in-place copy of the base, an entry's diff and member options,
// the odometer's reading and the demand chunk fragments capture into.
// While holds is set, the copy differs from the base only where touch
// says, holding group gi's members applied with options held.
type extractor struct {
	asm   *core.Assembler
	work  workDesign
	touch core.Touch
	opts  []int
	gi    int // the group of the last entry extracted, -1 before any
	held  []int
	holds bool
	// free is the unused tail of the current demand chunk, and most the
	// most records one entry of group gi captures: the base's count on
	// the group's levels, or more once an entry captured more.
	free []core.IndexedDemand
	most int
}

// enter readies x for entries of group gi: a copy holding another
// group's entry returns to the base, and most restarts at the base's
// record count on gi's levels.
func (x *extractor) enter(cs *compiledSpace, gi int) {
	if x.holds {
		x.work.restore(&x.touch)
		x.holds = false
	}
	x.gi, x.most = gi, 0
	for _, j := range cs.groups[gi].levels {
		x.most += len(cs.kern.BaseFragment(j).Demands)
	}
}

// extractGroups fills each group's joint-option table by applying the
// member knobs (in knob order) to the worker's reset-in-place copy of
// the base and re-diffing against the base. Combinations whose effects
// stray outside the group's footprint, or fail any validation, are
// marked suspect. Each group's fragments and specs are allocated once,
// and every entry gets a capped window of them; fragment demands are
// captured in place into the extractor's demand chunk. Extraction is
// the expensive part of compilation, so the entries of every group, in
// group order, run as one index space on the worker pool, each worker
// extracting on its own extractor.
func (cs *compiledSpace) extractGroups(workers int) error {
	starts := make([]int, len(cs.groups)+1) // flat index of each group's entry 0
	for gi := range cs.groups {
		g := &cs.groups[gi]
		starts[gi+1] = starts[gi] + g.size
		g.entries = make([]groupEntry, g.size)
		nl, nd := len(g.levels), len(g.devices)
		frags := make([]core.Fragment, g.size*nl)
		specs := make([]device.Spec, g.size*nd)
		for t := range g.entries {
			g.entries[t].frags = frags[t*nl : (t+1)*nl : (t+1)*nl]
			g.entries[t].specs = specs[t*nd : (t+1)*nd : (t+1)*nd]
		}
	}
	acc := func() *extractor {
		return &extractor{
			asm:  cs.kern.NewAssembler(),
			work: workDesign{cs: cs},
			opts: make([]int, len(cs.knobs)),
			gi:   -1,
			held: make([]int, len(cs.knobs)),
		}
	}
	total := starts[len(cs.groups)]
	w := min(parallel.Workers(workers), total)
	_, err := parallel.Reduce(workers, total, acc, func(x *extractor, i int) (*extractor, error) {
		gi := max(x.gi, 0)
		for starts[gi+1] <= i { // a worker's indices ascend
			gi++
		}
		if gi != x.gi {
			x.enter(cs, gi)
		}
		if cap(x.free) < x.most {
			// A chunk for this worker's share of the group's entries left.
			left := (starts[gi+1] - i + w - 1) / w
			x.free = make([]core.IndexedDemand, 0, x.most*left)
		}
		t := i - starts[gi]
		ok, err := cs.extractEntry(x, gi, t)
		cs.groups[gi].entries[t].suspect = !ok
		return x, err
	}, func(a, _ *extractor) *extractor { return a })
	return err
}

// extractEntry fills entry t of group gi, reporting false when that
// option combination is unrepresentable (its candidates go slow).
func (cs *compiledSpace) extractEntry(x *extractor, gi, t int) (bool, error) {
	g := &cs.groups[gi]
	opts := x.opts[:len(g.members)]
	rem := t
	for mi := len(g.members) - 1; mi >= 0; mi-- {
		opts[mi] = rem % g.radix[mi]
		rem /= g.radix[mi]
	}
	for mi, k := range g.members {
		if cs.knobSuspect[k][opts[mi]] {
			return false, nil
		}
	}
	d, fresh, err := x.work.get()
	if err != nil {
		return false, err
	}
	// The odometer: members before the first whose option differs from
	// the one the copy holds keep the state they wrote. Only a Revertible
	// group's entry leaves holds set, and a fresh clone holds nothing.
	from := 0
	if x.holds && !fresh {
		for from < len(opts) && opts[from] == x.held[from] {
			from++
		}
	}
	x.holds = false
	for mi := from; mi < len(g.members); mi++ {
		if cs.knobs[g.members[mi]].Apply(d, opts[mi]) != nil {
			x.work.drop()
			return false, nil
		}
	}
	if !cs.kern.Diff(d, &x.touch) {
		x.work.drop()
		return false, nil
	}
	for _, j := range x.touch.Levels {
		if cs.levelOwner[j] != gi {
			x.work.restore(&x.touch)
			return false, nil
		}
	}
	for _, di := range x.touch.Devices {
		if cs.specOwner[di] != gi {
			x.work.restore(&x.touch)
			return false, nil
		}
	}
	if g.revertible {
		x.holds = true
		copy(x.held, opts)
	} else {
		defer x.work.restore(&x.touch)
	}
	e := &g.entries[t]
	recs := 0
	for li, j := range g.levels {
		f, err := x.asm.Fragment(d.Levels[j], x.free)
		if err != nil {
			return false, nil
		}
		n := len(f.Demands)
		x.free, recs = f.Demands[n:], recs+n
		if f.Demands = f.Demands[:n:n]; n == 0 {
			f.Demands = nil // as a capture into no buffer gives
		}
		e.frags[li] = f
	}
	x.most = max(x.most, recs)
	for si, di := range g.devices {
		e.specs[si] = d.Devices[di].Spec
	}
	return true, nil
}

// fill resolves candidate `choice` into Cols row `row`: each group's
// table entry supplies the fragments and specs it owns, and core's fold
// does the demand, check and outlay folds in exactly Build's order.
// Returns true when the candidate must take the slow path (the
// row is marked invalid). Allocation-free.
func (cs *compiledSpace) fill(fs *fillScratch, cols *core.Cols, row int, choice []int) bool {
	for k, o := range choice {
		if cs.knobSuspect[k][o] {
			cols.Valid[row] = false
			return true
		}
	}
	for gi := range cs.groups {
		g := &cs.groups[gi]
		t := 0
		for mi, k := range g.members {
			t = t*g.radix[mi] + choice[k]
		}
		e := &g.entries[t]
		if e.suspect {
			cols.Valid[row] = false
			return true
		}
		for li, j := range g.levels {
			fs.frags[j] = &e.frags[li]
		}
		for si, di := range g.devices {
			fs.specs[di] = &e.specs[si]
		}
	}
	return !fs.asm.Fold(cols, row, fs.frags, fs.specs)
}

// verify evaluates a spread of candidate indices through both the
// compiled tables and the clone+build path and compares every
// output field (core.Probe). Any mismatch rejects the compilation.
// Slow-path candidates are exact by construction and only checked for
// agreement about *being* slow when the clone+build path errors.
func (cs *compiledSpace) verify() error {
	space, err := spaceSize(cs.knobs)
	if err != nil {
		return err
	}
	probes := min(compileProbes, space)
	cols := cs.kern.NewCols(1)
	var bs core.BatchScratch
	fs := newFillScratch(cs)
	choice := make([]int, len(cs.knobs))
	for p := 0; p < probes; p++ {
		idx := spreadIndex(p, probes, space)
		decodeChoice(choice, cs.knobs, idx)
		slow := cs.fill(fs, cols, 0, choice)
		d, err := Clone(cs.base)
		if err != nil {
			return err
		}
		if err := applyChoiceTo(d, cs.knobs, choice); err != nil {
			if !slow {
				return fmt.Errorf("opt: compile probe %d: apply fails (%v) but tables claim fast path", idx, err)
			}
			continue
		}
		if slow {
			continue
		}
		cs.kern.AssessBatch(1, cols, &bs)
		if err := core.Probe(d, cs.scs, cols.OutlaysTotal[0], bs.Briefs); err != nil {
			return fmt.Errorf("opt: compile probe %d: %w", idx, err)
		}
	}
	return nil
}

// spreadIndex returns the p-th of n indices spread evenly over [0, size):
// p*(size-1)/(n-1), computed as p*q + p*r/(n-1) where
// size-1 = q*(n-1) + r, so no intermediate product overflows however
// large the space.
func spreadIndex(p, n, size int) int {
	if n <= 1 {
		return 0
	}
	q, r := (size-1)/(n-1), (size-1)%(n-1)
	return p*q + p*r/(n-1)
}

func dedupSorted(s []int) []int {
	sort.Ints(s)
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}
