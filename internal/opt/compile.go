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
// A group's tables are flat, with no per-entry headers: entry t is
// suspect[t], its fragments are frags[t*len(levels):][:len(levels)],
// aligned with the group's levels, and its specs likewise in specs,
// aligned with its devices. A suspect entry's rows are zero. The tables
// are carved from the search's arena (arena.go), which the search draws
// from a pool in compileSpace and returns in release once its sweep
// ends; nothing in them outlives the search.
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
// windows of it, so no record is copied after its capture. The chunks
// come from the worker's arena slot.
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
// interaction exactly.
//
// A touchless knob, one whose every option leaves the base as it is (an
// AccW knob offering only the base's window), joins no group, yet it may
// rewrite what a group's entry set (that AccW knob on a weekly vault
// policy). So after each non-suspect entry is extracted, every option of
// every touchless knob is applied at its knob-order place among the
// group's members, and the result is diffed and re-extracted: an option
// that changes the entry's touch set, fragments or specs makes the entry
// suspect, and the copy is reset before the next entry. A touchless knob
// is checked one at a time, so what two of them do together on one
// entry is still left to the probes. When the knob and the group are
// Revertible, the check runs on the held copy: the option, then the
// members after it, re-applied as the odometer would, and a copy the
// option left alike (same touch set, fragments and specs) keeps holding
// the entry without a reset. That trusts such an option to have written
// nothing a later entry's members read but no fragment shows. Otherwise
// the check runs on a reset copy, reset again after it. A space with no
// touchless knob does no extra work.

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

// knobGroup unions knobs whose touch footprints overlap. Its tables
// hold one entry per joint option combination (members in knob order,
// last member least significant — the mixed-radix convention), flat:
// suspect[t] marks entry t unrepresentable (its candidates go slow, and
// its rows are zero), and entryFrags and entrySpecs locate its rows.
type knobGroup struct {
	members []int // knob indices, ascending
	radix   []int
	size    int
	levels  []int // touched level indices, ascending
	devices []int // touched device indices, ascending
	suspect []bool
	frags   []core.Fragment // size rows of len(levels)
	specs   []device.Spec   // size rows of len(devices)
	// revertible: every member is Revertible, so an entry re-applies
	// only the members from the first whose option changed, over the
	// previous entry's copy, without a reset.
	revertible bool
}

// entryFrags returns entry t's fragments, aligned with g.levels.
func (g *knobGroup) entryFrags(t int) []core.Fragment {
	nl := len(g.levels)
	return g.frags[t*nl : (t+1)*nl]
}

// entrySpecs returns entry t's device specs, aligned with g.devices.
func (g *knobGroup) entrySpecs(t int) []device.Spec {
	nd := len(g.devices)
	return g.specs[t*nd : (t+1)*nd]
}

// compiledSpace is the compiled form of (base design, knob set,
// scenario set): immutable after compileSpace, safe for concurrent fill
// with distinct fillScratch/Cols, until release returns its arena.
type compiledSpace struct {
	base  *core.Design
	knobs []Knob
	scs   []failure.Scenario
	kern  *core.BatchKernel
	ar    *arena
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
	// touchless lists, ascending, the knobs no group holds: none of
	// their options changes the base.
	touchless []int
}

// release returns the space's arena to the pool. Neither the space nor
// a pruner built on it may be used afterwards.
func (cs *compiledSpace) release() {
	cs.ar.release()
	cs.ar = nil
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

// ready points fs at the base fragment and spec of every level and
// device, reusing its arrays, with asm as its assembler.
func (fs *fillScratch) ready(cs *compiledSpace, asm *core.Assembler) {
	fs.asm = asm
	fs.frags = sized(fs.frags, cs.nLevels)
	fs.specs = sized(fs.specs, cs.nDevices)
	for j := range fs.frags {
		fs.frags[j] = cs.kern.BaseFragment(j)
	}
	for di := range fs.specs {
		fs.specs[di] = cs.kern.BaseSpec(di)
	}
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
// caller runs every candidate slow (the error is diagnostic only). The
// tables live in an arena drawn from the pool, which the caller returns
// with release once it is done with the space; a refused compilation
// has returned it already.
func compileSpace(base *core.Design, knobs []Knob, scs []failure.Scenario, workers int) (*compiledSpace, error) {
	return compileIn(arenaPool.Get().(*arena), base, knobs, scs, workers)
}

// compileIn is compileSpace on the arena ar, which it returns to the
// pool when it refuses the space.
func compileIn(ar *arena, base *core.Design, knobs []Knob, scs []failure.Scenario, workers int) (_ *compiledSpace, err error) {
	defer func() {
		if err != nil {
			ar.release()
		}
	}()
	work := 0
	for _, k := range knobs {
		work += len(k.Options)
	}
	if work > maxCompileWork {
		return nil, fmt.Errorf("opt: compile: %d knob options exceed the compile work cap", work)
	}
	if err := ar.base.Rebuild(base); err != nil {
		return nil, fmt.Errorf("opt: compile: base design: %w", err)
	}
	kern, err := core.NewBatchKernel(&ar.base, scs)
	if err != nil {
		return nil, fmt.Errorf("opt: compile: %w", err)
	}
	cs := &compiledSpace{
		base:     base,
		knobs:    knobs,
		scs:      scs,
		kern:     kern,
		ar:       ar,
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
	if err := cs.verify(workers); err != nil {
		return nil, err
	}
	return cs, nil
}

// groupKnobs learns each knob's touch footprint from the first of its
// options that applies, passes Diff and touches a level or device spec,
// then unions knobs sharing a level or a device spec into groups. The
// options before it that fail are suspect; a knob none of whose options
// touches anything is scanned to its last option, joins no group and is
// listed in cs.touchless. budget bounds the total group table size.
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
			// Every option leaves the base state; extraction checks each
			// entry against its options.
			cs.touchless = append(cs.touchless, k)
			continue
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

// extractor is one extraction worker's state, kept in its arena slot:
// its core.Assembler, its reset-in-place copy of the base, an entry's
// diff and member options, the odometer's reading, the demand chunks
// fragments capture into, and what a touchless check diffs and
// extracts into. While holds is set, the copy differs from the base
// only where touch says, holding group gi's members applied with
// options held.
type extractor struct {
	asm   *core.Assembler
	work  workDesign
	touch core.Touch
	opts  []int
	gi    int // the group of the last entry extracted, -1 before any
	held  []int
	holds bool
	// free is the unused tail of the current demand chunk, most the
	// most records one entry of group gi captures (the base's count on
	// the group's levels, or more once an entry captured more), and
	// left the worker's share of the group's entries not yet extracted.
	free []core.IndexedDemand
	most int
	left int
	// chunks are the demand chunks of this and earlier searches, drawn
	// in order; drawn of them hold this search's records.
	chunks [][]core.IndexedDemand
	drawn  int
	// probe and scratch take a touchless check's diff and demands.
	probe   core.Touch
	scratch []core.IndexedDemand
}

// ready readies x for a search of cs with assembler asm.
func (x *extractor) ready(cs *compiledSpace, asm *core.Assembler) {
	x.asm, x.work = asm, workDesign{cs: cs}
	x.opts, x.held = sized(x.opts, len(cs.knobs)), sized(x.held, len(cs.knobs))
	x.gi, x.holds, x.free, x.most = -1, false, nil, 0
}

// chunk returns an empty demand chunk of at least n records: the next
// pooled one when it is large enough, else a new one of exactly n that
// takes its place in the pool.
func (x *extractor) chunk(n int) []core.IndexedDemand {
	if x.drawn == len(x.chunks) {
		x.chunks = append(x.chunks, nil)
	}
	c := x.chunks[x.drawn]
	if cap(c) < n {
		c = make([]core.IndexedDemand, 0, n)
		x.chunks[x.drawn] = c
	}
	x.drawn++
	return c
}

// room returns the free tail of the worker's demand chunk when it has
// room for n more records, and otherwise draws the next chunk, sized for
// the worker's share of the group's entries left at the most records an
// entry has captured so far, and for at least n.
func (x *extractor) room(n int) []core.IndexedDemand {
	if cap(x.free) < n {
		x.free = x.chunk(max(n, x.most*x.left))
	}
	return x.free
}

// reset clears the records of the chunks drawn and drops the copy and
// the assembler.
func (x *extractor) reset() {
	for _, c := range x.chunks[:x.drawn] {
		clear(c[:cap(c)])
	}
	clear(x.scratch[:cap(x.scratch)])
	x.drawn = 0
	x.asm, x.work, x.free = nil, workDesign{}, nil
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
// stray outside the group's footprint, fail any validation, or change
// under a touchless knob's option, are marked suspect. The groups'
// tables are carved from the arena, and fragment demands are captured
// in place into the extractor's demand chunks. Extraction is the
// expensive part of compilation, so the entries of every group, in
// group order, run as one index space on the worker pool, each worker
// extracting on its own slot's extractor.
func (cs *compiledSpace) extractGroups(workers int) error {
	ar := cs.ar
	starts := make([]int, len(cs.groups)+1) // flat index of each group's entry 0
	nf, ns := 0, 0
	for gi := range cs.groups {
		g := &cs.groups[gi]
		starts[gi+1] = starts[gi] + g.size
		nf += g.size * len(g.levels)
		ns += g.size * len(g.devices)
	}
	total := starts[len(cs.groups)]
	ar.suspect, ar.frags, ar.specs = sized(ar.suspect, total), sized(ar.frags, nf), sized(ar.specs, ns)
	suspect, frags, specs := ar.suspect, ar.frags, ar.specs
	for gi := range cs.groups {
		g := &cs.groups[gi]
		g.suspect, suspect = carve(suspect, g.size)
		g.frags, frags = carve(frags, g.size*len(g.levels))
		g.specs, specs = carve(specs, g.size*len(g.devices))
	}
	w := min(parallel.Workers(workers), total)
	ar.deal(w, cs)
	acc := func() *extractor { return &ar.draw().x }
	_, err := parallel.Reduce(workers, total, acc, func(x *extractor, i int) (*extractor, error) {
		gi := max(x.gi, 0)
		for starts[gi+1] <= i { // a worker's indices ascend
			gi++
		}
		if gi != x.gi {
			x.enter(cs, gi)
		}
		x.left = (starts[gi+1] - i + w - 1) / w // this worker's share
		t := i - starts[gi]
		ok, err := cs.extractEntry(x, gi, t)
		if ok && err == nil && len(cs.touchless) > 0 {
			ok, err = cs.checkTouchless(x, gi, t)
		}
		g := &cs.groups[gi]
		if g.suspect[t] = !ok; !ok {
			clear(g.entryFrags(t))
			clear(g.entrySpecs(t))
		}
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
	frags, recs := g.entryFrags(t), 0
	for li, j := range g.levels {
		f, err := x.asm.Fragment(d.Levels[j], x.room)
		if err != nil {
			return false, nil
		}
		n := len(f.Demands)
		x.free, recs = f.Demands[n:], recs+n
		if f.Demands = f.Demands[:n:n]; n == 0 {
			f.Demands = nil // as a capture into no buffer gives
		}
		frags[li] = f
	}
	x.most = max(x.most, recs)
	specs := g.entrySpecs(t)
	for si, di := range g.devices {
		specs[si] = d.Devices[di].Spec
	}
	return true, nil
}

// checkTouchless applies every representable option of every touchless
// knob to entry t of group gi, just extracted by x, at the knob's place
// among the members in knob order, and reports whether each leaves the
// entry's touch set, fragments and specs as they are; false makes the
// entry suspect, with x's copy reset or dropped. On a held copy, when
// the knob is Revertible, the option and the members after it are
// applied over the entry as the odometer would, and a copy left alike
// keeps holding the entry. Otherwise the members before the knob, the
// option and the members after it are applied to the base, which the
// copy is reset to before and after.
func (cs *compiledSpace) checkTouchless(x *extractor, gi, t int) (bool, error) {
	g := &cs.groups[gi]
	opts := x.opts[:len(g.members)]
	for _, k := range cs.touchless {
		at, _ := slices.BinarySearch(g.members, k) // the members before k
		for o, bad := range cs.knobSuspect[k] {
			if bad {
				continue
			}
			d, fresh, err := x.work.get()
			if err != nil {
				return false, err
			}
			held := x.holds && !fresh && cs.knobs[k].Revertible
			from := at
			if !held {
				if x.holds && !fresh {
					x.work.restore(&x.touch)
				}
				x.holds, from = false, 0
			}
			applied := true
			for mi := from; mi <= len(g.members) && applied; mi++ {
				if mi == at {
					applied = cs.knobs[k].Apply(d, o) == nil
				}
				if mi < len(g.members) && applied {
					applied = cs.knobs[g.members[mi]].Apply(d, opts[mi]) == nil
				}
			}
			if !applied || !cs.kern.Diff(d, &x.probe) {
				x.work.drop()
				x.holds = false
				return false, nil
			}
			same := slices.Equal(x.probe.Levels, x.touch.Levels) &&
				slices.Equal(x.probe.Devices, x.touch.Devices) && cs.sameEntry(x, d, g, t)
			if !held || !same {
				x.work.restore(&x.probe)
				x.holds = false
			}
			if !same {
				return false, nil
			}
		}
	}
	return true, nil
}

// sameEntry reports whether d, whose diff x.probe equals entry t's, still
// extracts to entry t's rows. Only the levels and specs the diff reports
// can differ: everything else equals the base in both.
func (cs *compiledSpace) sameEntry(x *extractor, d *core.Design, g *knobGroup, t int) bool {
	frags, specs := g.entryFrags(t), g.entrySpecs(t)
	for _, j := range x.probe.Levels {
		li, _ := slices.BinarySearch(g.levels, j)
		f, err := x.asm.Fragment(d.Levels[j], func(int) []core.IndexedDemand { return x.scratch[:0] })
		if f.Demands != nil {
			x.scratch = f.Demands[:0]
		}
		if err != nil || !sameFragment(&f, &frags[li]) {
			return false
		}
	}
	for _, di := range x.probe.Devices {
		si, _ := slices.BinarySearch(g.devices, di)
		if d.Devices[di].Spec != specs[si] {
			return false
		}
	}
	return true
}

// sameFragment reports whether two fragments are equal field by field,
// their demand records included.
func sameFragment(a, b *core.Fragment) bool {
	return a.Lag == b.Lag && a.AccW == b.AccW && a.RetSpan == b.RetSpan && a.Restore == b.Restore &&
		a.Copy == b.Copy && a.Read == b.Read && a.Transport == b.Transport && a.Name == b.Name &&
		slices.Equal(a.Demands, b.Demands)
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
		if g.suspect[t] {
			cols.Valid[row] = false
			return true
		}
		frags, specs := g.entryFrags(t), g.entrySpecs(t)
		for li, j := range g.levels {
			fs.frags[j] = &frags[li]
		}
		for si, di := range g.devices {
			fs.specs[di] = &specs[si]
		}
	}
	return !fs.asm.Fold(cols, row, fs.frags, fs.specs)
}

// verify evaluates a spread of candidate indices through both the
// compiled tables and the clone+build path and compares every
// output field (core.Probe). Any mismatch rejects the compilation.
// Slow-path candidates are exact by construction and only checked for
// agreement about *being* slow when the clone+build path errors. The
// probes run as one index space on the worker pool, each worker on its
// own arena slot; the lowest failing probe's error is returned.
func (cs *compiledSpace) verify(workers int) error {
	space, err := spaceSize(cs.knobs)
	if err != nil {
		return err
	}
	probes := min(compileProbes, space)
	cs.ar.deal(min(parallel.Workers(workers), probes), cs)
	_, err = parallel.Reduce(workers, probes, cs.ar.draw, func(s *slot, p int) (*slot, error) {
		return s, cs.probe(s, spreadIndex(p, probes, space))
	}, func(a, _ *slot) *slot { return a })
	return err
}

// probe checks candidate idx on slot s. The tables' side fills and
// assesses on the slot's batch scratch. The reference side copies the
// base into the slot's probe design, applies the choice, builds into
// the slot's System and assesses on its scratch: each probe is still an
// independent clone, apply, build and assess, on storage the slot
// keeps from probe to probe.
func (cs *compiledSpace) probe(s *slot, idx int) error {
	cols, choice := s.batchCols(1), s.choice
	decodeChoice(choice, cs.knobs, idx)
	slow := cs.fill(&s.fs, cols, 0, choice)
	d := &s.probe
	if err := cs.base.CloneInto(d); err != nil {
		return fmt.Errorf("opt: %w", err)
	}
	if err := applyChoiceTo(d, cs.knobs, choice); err != nil {
		if !slow {
			return fmt.Errorf("opt: compile probe %d: apply fails (%v) but tables claim fast path", idx, err)
		}
		return nil
	}
	if slow {
		return nil
	}
	cs.kern.AssessBatch(1, cols, &s.bs)
	if err := core.Probe(&s.probeSys, &s.probeScratch, d, cs.scs, cols.OutlaysTotal[0], s.bs.Briefs); err != nil {
		return fmt.Errorf("opt: compile probe %d: %w", idx, err)
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
