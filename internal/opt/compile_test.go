package opt

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"stordep/internal/casestudy"
	"stordep/internal/core"
	"stordep/internal/hierarchy"
	"stordep/internal/units"
	"stordep/internal/whatif"
)

// compiledKnobs is a fixed knob set covering every built-in knob shape:
// technique substitution (policy), retention counts on two levels, a
// device-spec rewrite (link count), and a pure tie-breaker. All changes
// are representable, so the compiled tables carry every candidate.
func compiledKnobs() []Knob {
	weeklyVault := casestudy.VaultPolicy()
	weeklyVault.Primary.AccW = units.Week
	weeklyVault.RetCnt = 156
	return []Knob{
		PolicyKnob("vaulting", []string{"4-weekly", "weekly"},
			[]hierarchy.Policy{casestudy.VaultPolicy(), weeklyVault}),
		RetCntKnob("vaulting", []int{2, 4, 8, 13}),
		RetCntKnob("backup", []int{7, 14, 28}),
		LinkCountKnob("tape-library", []int{4, 8, 12, 16}),
		{
			Name:       "tie",
			Options:    []string{"first", "second", "third"},
			Apply:      func(*core.Design, int) error { return nil },
			Revertible: true,
		},
	}
}

// referenceTables builds a knob set's compile tables on a fresh clone
// of the base per option and per entry (groupKnobs and extractGroups
// with cloneEach set): the tables the reset-in-place copy must
// reproduce exactly.
func referenceTables(t *testing.T, base *core.Design, knobs []Knob, workers int) *compiledSpace {
	t.Helper()
	return buildTables(t, base, knobs, workers, true)
}

// buildTables runs compile's groupKnobs and extractGroups, without the
// probes that may refuse the tables, on the reset-in-place copy or, with
// cloneEach, on a fresh clone per option and entry.
func buildTables(t *testing.T, base *core.Design, knobs []Knob, workers int, cloneEach bool) *compiledSpace {
	t.Helper()
	sys, err := core.Build(base)
	if err != nil {
		t.Fatal(err)
	}
	kern, err := core.NewBatchKernel(sys, scenarios())
	if err != nil {
		t.Fatal(err)
	}
	cs := &compiledSpace{
		base:      base,
		knobs:     knobs,
		scs:       scenarios(),
		kern:      kern,
		ar:        new(arena),
		cloneEach: cloneEach,
		nLevels:   kern.Levels(),
		nDevices:  kern.Devices(),
	}
	if err := cs.groupKnobs(maxCompileWork); err != nil {
		t.Fatal(err)
	}
	if err := cs.extractGroups(workers); err != nil {
		t.Fatal(err)
	}
	return cs
}

// newFillScratch returns a fill scratch for cs with its own assembler.
func newFillScratch(cs *compiledSpace) *fillScratch {
	fs := new(fillScratch)
	fs.ready(cs, cs.kern.NewAssembler())
	return fs
}

// findDevice returns the index of the named device spec in d.
func findDevice(d *core.Design, name string) (int, error) {
	for di := range d.Devices {
		if d.Devices[di].Spec.Name == name {
			return di, nil
		}
	}
	return 0, fmt.Errorf("design has no device %q", name)
}

// TestCompileTablesMatchFreshClone: compiling on one reset-in-place
// copy of the base per worker builds exactly the tables a fresh clone
// per option and per entry builds — suspects, group footprints, and
// every entry's fragments and specs — and leaves the caller's base
// untouched. The knob sets cover each way an option can leave the copy:
// a policy clamp that reads what the previous entry wrote (AccW's
// propW), a replaced technique (PiT), a rewritten and a read-and-scaled
// device spec, and an option that writes the level and then errors or
// renames the design, so a dropped copy is followed by good entries.
func TestCompileTablesMatchFreshClone(t *testing.T) {
	// writeVault rewrites the vaulting level's hold window, so every
	// option of the knob below touches the level before deciding.
	writeVault := func(d *core.Design) (hierarchy.Policy, error) {
		li, err := findLevel(d, "vaulting")
		if err != nil {
			return hierarchy.Policy{}, err
		}
		pol := d.Levels[li].Level().Policy
		pol.Primary.HoldW += time.Hour
		return pol, setPolicy(d, "vaulting", pol)
	}
	boom := errors.New("boom")
	vaultTrouble := Knob{
		Name:    "vault trouble",
		Options: []string{"keep", "fail", "rename", "fail at 8", "rename at 4"},
		Apply: func(d *core.Design, i int) error {
			if i == 0 {
				return nil
			}
			pol, err := writeVault(d)
			if err != nil {
				return err
			}
			switch {
			case i == 1, i == 3 && pol.RetCnt == 8:
				return boom
			case i == 2, i == 4 && pol.RetCnt == 4:
				d.Name += " (renamed)"
			}
			return nil
		},
	}
	tapePrice := Knob{
		Name:    "tape price",
		Options: []string{"list", "double"},
		Apply: func(d *core.Design, i int) error {
			di, err := findDevice(d, "tape-library")
			if err != nil {
				return err
			}
			if i == 1 {
				d.Devices[di].Spec.Cost.Fixed *= 2
			}
			return nil
		},
	}
	sets := map[string][]Knob{
		"compiled": compiledKnobs(),
		"accW clamp": {
			AccWKnob("vaulting", []time.Duration{12 * time.Hour, units.Week, 4 * units.Week, units.Day}),
			RetCntKnob("vaulting", []int{2, 13, 39}),
		},
		"PiT": {
			PiTKnob("split-mirror"),
			RetCntKnob("split-mirror", []int{2, 4, 8}),
		},
		"device spec": {
			LinkCountKnob("tape-library", []int{2, 4, 8, 16}),
			tapePrice,
			RetCntKnob("backup", []int{7, 14}),
		},
		"dropped copy": {
			RetCntKnob("vaulting", []int{2, 4, 8, 13}),
			vaultTrouble,
		},
	}
	for name, knobs := range sets {
		for _, workers := range []int{1, 4} {
			label := fmt.Sprintf("%s, workers %d", name, workers)
			base := casestudy.Baseline()
			before, err := Clone(base)
			if err != nil {
				t.Fatal(err)
			}
			cs, err := compileSpace(base, knobs, scenarios(), workers)
			if err != nil {
				t.Fatalf("%s: compileSpace: %v", label, err)
			}
			if !reflect.DeepEqual(base, before) {
				t.Errorf("%s: compile changed the caller's base design", label)
			}
			ref := referenceTables(t, before, knobs, workers)
			if !reflect.DeepEqual(cs.knobSuspect, ref.knobSuspect) {
				t.Errorf("%s: knob suspects %v, fresh clones %v", label, cs.knobSuspect, ref.knobSuspect)
			}
			if len(cs.groups) != len(ref.groups) {
				t.Fatalf("%s: %d groups, fresh clones %d", label, len(cs.groups), len(ref.groups))
			}
			for gi := range cs.groups {
				g, r := &cs.groups[gi], &ref.groups[gi]
				if !reflect.DeepEqual(g.members, r.members) || !reflect.DeepEqual(g.levels, r.levels) ||
					!reflect.DeepEqual(g.devices, r.devices) {
					t.Errorf("%s: group %d members/levels/devices %v/%v/%v, fresh clones %v/%v/%v",
						label, gi, g.members, g.levels, g.devices, r.members, r.levels, r.devices)
					continue
				}
				for e := 0; e < g.size; e++ {
					if g.suspect[e] != r.suspect[e] || !reflect.DeepEqual(g.entryFrags(e), r.entryFrags(e)) ||
						!reflect.DeepEqual(g.entrySpecs(e), r.entrySpecs(e)) {
						t.Errorf("%s: group %d entry %d: suspect %v, %+v, %+v; fresh clones %v, %+v, %+v", label, gi, e,
							g.suspect[e], g.entryFrags(e), g.entrySpecs(e), r.suspect[e], r.entryFrags(e), r.entrySpecs(e))
					}
				}
			}
		}
	}
}

// vaultTroubleKnob writes the vaulting level's hold window for every
// option but "keep", then errors or renames the design, always or only
// at one vault retention count, so a dropped copy is followed by good
// entries and the footprint pass meets suspects before the first
// touching option.
func vaultTroubleKnob() Knob {
	boom := errors.New("boom")
	return Knob{
		Name:    "vault trouble",
		Options: []string{"keep", "fail", "rename", "fail at 8", "rename at 4"},
		Apply: func(d *core.Design, i int) error {
			if i == 0 {
				return nil
			}
			pol, err := namedPolicy(d, "vaulting")
			if err != nil {
				return err
			}
			pol.Primary.HoldW += time.Hour
			switch {
			case i == 1, i == 3 && pol.RetCnt == 8:
				return boom
			case i == 2, i == 4 && pol.RetCnt == 4:
				d.Name += " (renamed)"
			}
			return nil
		},
	}
}

// tapePriceKnob reads and scales the tape library's fixed cost: a
// device-spec knob that is not Revertible.
func tapePriceKnob() Knob {
	return Knob{
		Name:    "tape price",
		Options: []string{"list", "double"},
		Apply: func(d *core.Design, i int) error {
			di, err := findDevice(d, "tape-library")
			if err != nil {
				return err
			}
			if i == 1 {
				d.Devices[di].Spec.Cost.Fixed *= 2
			}
			return nil
		},
	}
}

// fuzzKnobs draws a knob set from data: for each knob of a fixed pool,
// in pool order so a knob that reads a level runs after the knobs that
// set it, one byte decides whether it joins and, for the built-in
// constructors, which of its options it keeps. Knobs join while the
// space stays within 96 candidates; an empty draw takes the link-count
// knob alone.
func fuzzKnobs(data []byte) []Knob {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	// pick keeps the options whose bits are set in mask (the first
	// option when none is).
	pick := func(mask byte, opts int) []int {
		var out []int
		for o := 0; o < opts; o++ {
			if mask&(1<<o) != 0 {
				out = append(out, o)
			}
		}
		if len(out) == 0 {
			out = []int{0}
		}
		return out
	}
	ints := func(mask byte, vals ...int) []int {
		var out []int
		for _, o := range pick(mask, len(vals)) {
			out = append(out, vals[o])
		}
		return out
	}
	durs := func(mask byte, vals ...time.Duration) []time.Duration {
		var out []time.Duration
		for _, o := range pick(mask, len(vals)) {
			out = append(out, vals[o])
		}
		return out
	}
	policies := func(mask byte, level string, names []string, pols []hierarchy.Policy) Knob {
		var ns []string
		var ps []hierarchy.Policy
		for _, o := range pick(mask, len(pols)) {
			ns, ps = append(ns, names[o]), append(ps, pols[o])
		}
		return PolicyKnob(level, ns, ps)
	}
	pool := []func(mask byte) Knob{
		func(m byte) Knob {
			return policies(m, "vaulting", []string{"4-weekly", "weekly"}, vaultPolicyPair())
		},
		func(m byte) Knob {
			return AccWKnob("vaulting", durs(m, 12*time.Hour, units.Week, 4*units.Week, units.Day))
		},
		func(m byte) Knob { return RetCntKnob("vaulting", ints(m, 2, 4, 8, 13)) },
		func(byte) Knob { return vaultTroubleKnob() },
		func(m byte) Knob {
			return policies(m, "backup", []string{"weekly full", "F+I", "daily full"},
				[]hierarchy.Policy{casestudy.BackupPolicy(), casestudy.FIBackupPolicy(), casestudy.DailyFBackupPolicy()})
		},
		func(m byte) Knob { return RetCntKnob("backup", ints(m, 7, 14, 28)) },
		func(m byte) Knob { return LinkCountKnob("tape-library", ints(m, 2, 4, 8, 16)) },
		func(byte) Knob { return tapePriceKnob() },
		func(byte) Knob { return PiTKnob("split-mirror") },
		func(m byte) Knob { return RetCntKnob("split-mirror", ints(m, 2, 4, 8)) },
	}
	var knobs []Knob
	space := 1
	for _, mk := range pool {
		b := next()
		if b&1 == 0 {
			continue
		}
		k := mk(b >> 1)
		if space*len(k.Options) > 96 {
			continue
		}
		space *= len(k.Options)
		knobs = append(knobs, k)
	}
	if len(knobs) == 0 {
		knobs = []Knob{LinkCountKnob("tape-library", []int{4, 8, 12, 16})}
	}
	return knobs
}

// FuzzCompileMatchesFreshClone: on knob sets drawn from built-in
// constructors with short option lists and custom knobs that write,
// error or rename, compiling on 1 and 3 workers builds exactly the
// tables a fresh clone per option and entry builds, and the batched
// search is byte-identical to the slice oracle. The tables are compared
// before the probes, which may refuse them. A knob that only rewrites
// what another knob set (an accW option equal to the base's, after a
// policy knob) touches nothing alone and joins no group; the entries it
// rewrites are suspect.
func FuzzCompileMatchesFreshClone(f *testing.F) {
	// A pool byte is 1 to join, plus its option mask shifted left once.
	for _, seed := range [][]byte{
		{0xff, 0, 0xff},                      // vault policies and retention
		{0xff, 0, 0xff, 1},                   // vault policies, retention, trouble
		{0, 0xff, 0x0b},                      // accW clamp, retention 2 and 8
		{0, 0, 0, 0, 0, 0xff, 0xff, 1},       // backup retention, link count, tape price
		{0, 0, 0, 0, 0xff, 0, 0, 0, 1, 0xff}, // backup policies, PiT, retention
		{},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		knobs := fuzzKnobs(data)
		base := casestudy.Baseline()
		ref, refErr := sliceExhaustive(base, knobs, scenarios(), nil)
		for _, workers := range []int{1, 3} {
			label := fmt.Sprintf("%d knobs, workers %d", len(knobs), workers)
			cs, fresh := buildTables(t, base, knobs, workers, false), referenceTables(t, base, knobs, workers)
			if !reflect.DeepEqual(cs.knobSuspect, fresh.knobSuspect) || !reflect.DeepEqual(cs.groups, fresh.groups) {
				t.Errorf("%s: suspects %v, groups %+v; fresh clones %v, %+v",
					label, cs.knobSuspect, cs.groups, fresh.knobSuspect, fresh.groups)
			}
			sol, err := exhaustive(base, knobs, scenarios(), nil, ExhaustiveOptions{Workers: workers}, 7)
			if refErr != nil {
				if err == nil || err.Error() != refErr.Error() {
					t.Errorf("%s: err = %v, oracle err = %v", label, err, refErr)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			solutionsIdentical(t, label, ref, sol)
			if sol.CandidateIndex != ref.CandidateIndex {
				t.Errorf("%s: candidate index %d, oracle %d", label, sol.CandidateIndex, ref.CandidateIndex)
			}
		}
	})
}

// TestCompileStrayOptionGoesSlow: a knob's footprint comes from its
// first touching option, so a later option that also writes a level of
// another group is caught by its entries' Diff. Those candidates go
// slow, the search still returns the slice oracle's Solution, and the
// slow candidates count as assessed, pruned or not.
func TestCompileStrayOptionGoesSlow(t *testing.T) {
	base := casestudy.Baseline()
	scs := scenarios()
	backupRet := []int{7, 14, 28}
	stray := Knob{
		Name:    "backup retCnt, then vault hold",
		Options: []string{"7", "14", "28 + vault hold"},
		Apply: func(d *core.Design, i int) error {
			pol, err := namedPolicy(d, "backup")
			if err != nil {
				return err
			}
			pol.RetCnt = backupRet[i]
			pol.RetW = time.Duration(backupRet[i]) * pol.CyclePeriod()
			if i == 2 {
				vault, err := namedPolicy(d, "vaulting")
				if err != nil {
					return err
				}
				vault.Primary.HoldW += time.Hour
			}
			return nil
		},
	}
	knobs := []Knob{
		PolicyKnob("vaulting", []string{"4-weekly", "weekly"}, vaultPolicyPair()),
		RetCntKnob("vaulting", []int{2, 4, 8, 13}),
		stray,
	}
	space, err := SpaceSize(knobs)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := compileSpace(base, knobs, scs, 1)
	if err != nil {
		t.Fatalf("compileSpace: %v", err)
	}
	if cs.knobSuspect[2][2] {
		t.Error("the stray option is suspect; the footprint pass should stop at its first touching option")
	}
	// Every candidate choosing the stray option fills slow, and no other.
	fs := newFillScratch(cs)
	cols := cs.kern.NewCols(1)
	choice := make([]int, len(knobs))
	slow := 0
	for idx := 0; idx < space; idx++ {
		decodeChoice(choice, knobs, idx)
		if got := cs.fill(fs, cols, 0, choice); got != (choice[2] == 2) {
			t.Errorf("candidate %d %v: slow = %v", idx, choice, got)
		}
		if choice[2] == 2 {
			slow++
		}
	}
	ref, err := sliceExhaustive(base, knobs, scs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, prune := range []bool{false, true} {
		var st SearchStats
		sol, err := exhaustive(base, knobs, scs, nil, ExhaustiveOptions{
			Workers: 2, Prune: prune, Floor: WorstTotalFloor(), Stats: &st,
		}, 1)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("prune %v", prune)
		prunedIdentical(t, label, ref, sol)
		if st.Assessed+st.Pruned != space || st.Assessed < slow || !prune && st.Assessed != space {
			t.Errorf("%s: assessed %d, pruned %d of %d with %d slow", label, st.Assessed, st.Pruned, space, slow)
		}
	}
}

// TestExhaustiveBatchedMatchesSliceOracle: the acceptance grid of the
// batch kernel — on randomized knob spaces, the compiled batched search
// (a batch size forces compilation) returns byte-identical Solutions
// to the slice-based oracle for batch sizes {1, 7, 64, space} x workers
// {1, 2, 8}.
func TestExhaustiveBatchedMatchesSliceOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	base := casestudy.Baseline()
	for trial := 0; trial < 6; trial++ {
		knobs := randomKnobs(rng)
		space, err := SpaceSize(knobs)
		if err != nil {
			t.Fatal(err)
		}
		ref, refErr := sliceExhaustive(base, knobs, scenarios(), nil)
		for _, batch := range []int{1, 7, 64, space} {
			for _, workers := range []int{1, 2, 8} {
				label := fmt.Sprintf("trial %d batch %d workers %d (space %d)", trial, batch, workers, space)
				sol, err := exhaustive(base, knobs, scenarios(), nil, ExhaustiveOptions{Workers: workers}, batch)
				if refErr != nil {
					if !errors.Is(err, refErr) && (err == nil || err.Error() != refErr.Error()) {
						t.Errorf("%s: err = %v, oracle err = %v", label, err, refErr)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				solutionsIdentical(t, label, ref, sol)
				if sol.CandidateIndex != ref.CandidateIndex {
					t.Errorf("%s: candidate index %d, oracle %d", label, sol.CandidateIndex, ref.CandidateIndex)
				}
			}
		}
	}
}

// TestCompiledSpaceMatchesLegacyPerCandidate: stronger than argmin
// equality — for every candidate the tables claim to carry, the filled
// row's outlays and batch-assessed outcomes score identically (as raw
// float bits) to the legacy clone+build+assess path.
func TestCompiledSpaceMatchesLegacyPerCandidate(t *testing.T) {
	base := casestudy.Baseline()
	knobs := compiledKnobs()
	scs := scenarios()
	cs, err := compileSpace(base, knobs, scs, 1)
	if err != nil {
		t.Fatalf("compileSpace: %v", err)
	}
	space, err := SpaceSize(knobs)
	if err != nil {
		t.Fatal(err)
	}
	objective := WorstTotalObjective()
	cols := cs.kern.NewCols(1)
	var bs core.BatchScratch
	fs := newFillScratch(cs)
	choice := make([]int, len(knobs))
	var res whatif.Result
	fast := 0
	for idx := 0; idx < space; idx++ {
		decodeChoice(choice, knobs, idx)
		want, err := scoreCandidate(base, knobs, scs, objective, choice)
		if err != nil {
			t.Fatalf("candidate %d: %v", idx, err)
		}
		if cs.fill(fs, cols, 0, choice) {
			continue // slow path delegates to the legacy code: exact by construction
		}
		fast++
		cs.kern.AssessBatch(1, cols, &bs)
		res.SetBriefs(base.Name, cols.OutlaysTotal[0], scs, bs.Briefs)
		if got := objective(res); got != want {
			t.Errorf("candidate %d: compiled score %v, legacy %v", idx, got, want)
		}
	}
	if fast == 0 {
		t.Fatal("no candidate took the fast path; the compiled tables carry nothing")
	}
	// The unbuildable low-link-count candidates go slow (fill replicates
	// Check); everything buildable should be carried by the tables.
	if fast < space/2 {
		t.Errorf("only %d/%d candidates on the fast path", fast, space)
	}
}

// TestExhaustiveBatchedShardsMergeIdentically: compiled shard searches
// merge to exactly the unsharded (and slice-oracle) Solution — the
// sharded/distributed ledger path stays deterministic through the batch
// kernel.
func TestExhaustiveBatchedShardsMergeIdentically(t *testing.T) {
	base := casestudy.Baseline()
	knobs := compiledKnobs()
	space, err := SpaceSize(knobs)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := sliceExhaustive(base, knobs, scenarios(), nil)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := exhaustive(base, knobs, scenarios(), nil, ExhaustiveOptions{Workers: 2}, 7)
	if err != nil {
		t.Fatal(err)
	}
	solutionsIdentical(t, "compiled vs slice oracle", oracle, whole)
	for _, m := range []int{2, 3, 5} {
		sols := make([]*Solution, m)
		for k := 0; k < m; k++ {
			sol, err := exhaustive(base, knobs, scenarios(), nil, ExhaustiveOptions{
				Workers: 2,
				Shard:   Shard{Index: k, Count: m},
			}, 16)
			switch {
			case err == nil:
				sols[k] = sol
			case errors.Is(err, ErrNoFeasible) && m > space:
			default:
				t.Fatalf("shard %d/%d: %v", k, m, err)
			}
		}
		merged, err := MergeShards(sols)
		if err != nil {
			t.Fatalf("merge %d shards: %v", m, err)
		}
		label := fmt.Sprintf("%d compiled shards", m)
		solutionsIdentical(t, label, whole, merged)
		if merged.CandidateIndex != whole.CandidateIndex {
			t.Errorf("%s: candidate index %d, want %d", label, merged.CandidateIndex, whole.CandidateIndex)
		}
	}
}

// TestCompileSpaceGroupsInteractingKnobs: knobs touching the same level
// (a policy substitution and a retention count on "vaulting") land in
// one group whose joint table reproduces their interaction; disjoint
// knobs stay in separate groups.
func TestCompileSpaceGroupsInteractingKnobs(t *testing.T) {
	base := casestudy.Baseline()
	knobs := compiledKnobs()
	cs, err := compileSpace(base, knobs, scenarios(), 1)
	if err != nil {
		t.Fatalf("compileSpace: %v", err)
	}
	var joint *knobGroup
	for gi := range cs.groups {
		for _, m := range cs.groups[gi].members {
			if knobs[m].Name == knobs[0].Name { // the vaulting policy knob
				joint = &cs.groups[gi]
			}
		}
	}
	if joint == nil {
		t.Fatal("vaulting policy knob not grouped")
	}
	if len(joint.members) != 2 {
		t.Fatalf("vaulting group has members %v, want the policy and retention knobs", joint.members)
	}
	if joint.size != 2*4 {
		t.Errorf("joint table has %d entries, want 8", joint.size)
	}
	for k := range knobs {
		for o, bad := range cs.knobSuspect[k] {
			if bad {
				t.Errorf("knob %q option %d marked suspect; all options are representable", knobs[k].Name, o)
			}
		}
	}
	// The tie knob touches nothing: it must not appear in any group.
	for gi := range cs.groups {
		for _, m := range cs.groups[gi].members {
			if knobs[m].Name == "tie" {
				t.Error("no-op knob was grouped")
			}
		}
	}
}

// renameKnobs pairs vault retention counts with a knob whose second
// option renames the design, which the tables cannot carry.
func renameKnobs() []Knob {
	return []Knob{
		RetCntKnob("vaulting", []int{2, 4, 8}),
		{
			Name:    "rename",
			Options: []string{"keep", "rename"},
			Apply: func(d *core.Design, i int) error {
				if i == 1 {
					d.Name += " (renamed)"
				}
				return nil
			},
			Revertible: false,
		},
	}
}

// moveKnobs pairs vault retention counts with a knob whose second
// option moves the vault to another site, which the tables cannot
// carry.
func moveKnobs() []Knob {
	return []Knob{
		RetCntKnob("vaulting", []int{2, 4, 8}),
		{
			Name:    "move",
			Options: []string{"keep", "move"},
			Apply: func(d *core.Design, i int) error {
				if i == 1 {
					for di := range d.Devices {
						if d.Devices[di].Spec.Name == "vault" {
							d.Devices[di].Placement.Site = "elsewhere"
						}
					}
				}
				return nil
			},
		},
	}
}

// TestCompiledFallbacks: options the tables cannot represent — design
// renames, device moves, apply errors — degrade per candidate to slow
// rows, never silently diverge.
func TestCompiledFallbacks(t *testing.T) {
	base := casestudy.Baseline()
	scs := scenarios()

	t.Run("unrepresentable option goes slow", func(t *testing.T) {
		knobs := renameKnobs()
		cs, err := compileSpace(base, knobs, scs, 1)
		if err != nil {
			t.Fatalf("compileSpace: %v", err)
		}
		if !cs.knobSuspect[1][1] || cs.knobSuspect[1][0] {
			t.Errorf("rename suspects = %v, want only option 1", cs.knobSuspect[1])
		}
		ref, err := sliceExhaustive(base, knobs, scs, nil)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := exhaustive(base, knobs, scs, nil, ExhaustiveOptions{Workers: 2}, 3)
		if err != nil {
			t.Fatal(err)
		}
		solutionsIdentical(t, "rename knob", ref, sol)
	})

	t.Run("device move goes slow", func(t *testing.T) {
		knobs := moveKnobs()
		ref, err := sliceExhaustive(base, knobs, scs, nil)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := exhaustive(base, knobs, scs, nil, ExhaustiveOptions{Workers: 1}, 2)
		if err != nil {
			t.Fatal(err)
		}
		solutionsIdentical(t, "move knob", ref, sol)
	})

	t.Run("apply error aborts identically", func(t *testing.T) {
		boom := errors.New("boom")
		knobs := []Knob{
			RetCntKnob("vaulting", []int{2, 4, 8}),
			{
				Name:    "bomb",
				Options: []string{"ok", "boom"},
				Apply: func(d *core.Design, i int) error {
					if i == 1 {
						return boom
					}
					return nil
				},
			},
		}
		_, refErr := sliceExhaustive(base, knobs, scs, nil)
		if refErr == nil {
			t.Fatal("oracle did not error")
		}
		_, err := exhaustive(base, knobs, scs, nil, ExhaustiveOptions{Workers: 2}, 2)
		if err == nil || err.Error() != refErr.Error() {
			t.Errorf("batched err = %v, oracle %v", err, refErr)
		}
	})
}

// TestRefusedCompilationRunsSlow: a slice of more than compileProbes
// candidates whose compilation is refused runs every candidate as a slow
// row and still returns the oracles' answers, assessing every candidate
// once and advancing Progress once per candidate.
func TestRefusedCompilationRunsSlow(t *testing.T) {
	scs := scenarios()
	unbuildable := casestudy.Baseline()
	// A negative slot count fails Build; every option of the link-count
	// knob below repairs it, so only the base refuses to compile.
	if err := LinkCountKnob("tape-library", []int{-1}).Apply(unbuildable, 0); err != nil {
		t.Fatal(err)
	}
	ret := make([]int, maxGroupOptions/2+1)
	for i := range ret {
		ret[i] = i + 1
	}
	cases := []struct {
		name  string
		base  *core.Design
		knobs []Knob
	}{
		{"unbuildable base", unbuildable, []Knob{
			PolicyKnob("vaulting", []string{"4-weekly", "weekly"}, vaultPolicyPair()),
			RetCntKnob("vaulting", []int{2, 4, 8, 13}),
			LinkCountKnob("tape-library", []int{4, 8, 12, 16}),
		}},
		{"oversized group", casestudy.Baseline(), []Knob{
			PolicyKnob("vaulting", []string{"4-weekly", "weekly"}, vaultPolicyPair()),
			RetCntKnob("vaulting", ret),
		}},
	}
	for _, c := range cases {
		space, err := SpaceSize(c.knobs)
		if err != nil {
			t.Fatal(err)
		}
		if space <= compileProbes {
			t.Fatalf("%s: %d candidates would not be compiled", c.name, space)
		}
		if _, err := compileSpace(c.base, c.knobs, scs, 1); err == nil {
			t.Fatalf("%s: compileSpace accepted the space", c.name)
		}
		ref, err := sliceExhaustive(c.base, c.knobs, scs, nil)
		if err != nil {
			t.Fatal(err)
		}
		front := frontierOracle(t, c.base, c.knobs, scs)
		for _, workers := range []int{1, 4} {
			label := fmt.Sprintf("%s, workers %d", c.name, workers)
			var progress atomic.Int64
			sol, err := ExhaustiveOpts(c.base, c.knobs, scs, nil, ExhaustiveOptions{Workers: workers, Progress: &progress})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			solutionsIdentical(t, label, ref, sol)
			if sol.CandidateIndex != ref.CandidateIndex {
				t.Errorf("%s: candidate index %d, oracle %d", label, sol.CandidateIndex, ref.CandidateIndex)
			}
			if sol.Evaluations != space || progress.Load() != int64(sol.Evaluations) {
				t.Errorf("%s: evaluations %d, progress %d, want %d", label, sol.Evaluations, progress.Load(), space)
			}
			fr, err := Frontier(c.base, c.knobs, scs, FrontierOpts{Workers: workers})
			if err != nil {
				t.Fatalf("%s: frontier: %v", label, err)
			}
			frontierEquals(t, label, front, fr, c.knobs)
			if fr.Evaluations != space {
				t.Errorf("%s: frontier evaluated %d, want %d", label, fr.Evaluations, space)
			}
		}
	}
}

// TestExhaustiveBatchedAllocBudget: the ISSUE 7 gate — once a space is
// compiled, the batched inner loop spends at most 2 allocations per
// candidate amortized over a full search pass (worker accumulators,
// their columnar blocks, and the reduce plumbing included).
func TestExhaustiveBatchedAllocBudget(t *testing.T) {
	base := casestudy.Baseline()
	knobs := compiledKnobs()
	scs := scenarios()
	space, err := SpaceSize(knobs)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := compileSpace(base, knobs, scs, 1)
	if err != nil {
		t.Fatalf("compileSpace: %v", err)
	}
	objective := WorstTotalObjective()
	sw := &sweep{base: base, knobs: knobs, scs: scs, workers: 1, hi: space, reuse: true, cs: cs, batch: defaultBatchSize}
	search := func() {
		if _, _, err := sw.run(func() accumulator { return newArgmin(sw, objective, nil) }); err != nil {
			t.Fatal(err)
		}
	}
	// Warm-up, then measure full batched search passes over the space.
	search()
	allocs := testing.AllocsPerRun(5, search)
	perCandidate := allocs / float64(space)
	if perCandidate > 2 {
		t.Errorf("batched search allocates %.2f objects per candidate (%.0f over %d), budget 2",
			perCandidate, allocs, space)
	}
}

// wideCompileKnobs is compiledKnobs with the vaulting retention knob
// widened to 1..512: 36,864 candidates over 1031 table entries, so the
// per-entry cost of compilation dominates its fixed set-up.
func wideCompileKnobs() []Knob {
	knobs := compiledKnobs()
	ret := make([]int, 512)
	for i := range ret {
		ret[i] = i + 1
	}
	knobs[1] = RetCntKnob("vaulting", ret)
	return knobs
}

// TestCompileAllocBudget: compile applies options to a copy of the base
// that it resets in place instead of cloning per option and entry (and
// does not reset at all between a Revertible group's entries), carves
// the group tables from an arena, captures fragment demands in place
// into the arena's demand chunks, builds the base into the arena's
// System, and runs verify's probes on each slot's probe design, System
// and scratch. A compile on a warmed arena, as every search after a
// process's first draws from the pool, costs at most 0.25 allocations
// and 32 bytes per table entry, probes included (about 0.17-0.19 and
// 19-21: the kernel, the assemblers, the knobs' own writes and each
// probe's technique clones), on wideCompileKnobs' space (1031 entries,
// with a touchless knob checked against every entry) and on
// prunerBoundKnobs' (1029 entries, the perfbench search space). Probes
// that clone and build afresh (about 0.45 and 72) break it. The test
// holds its arena itself, so a pool that drops what it is given (as it
// may under the race detector) does not move the count.
func TestCompileAllocBudget(t *testing.T) {
	base := casestudy.Baseline()
	scs := scenarios()
	for _, c := range []struct {
		name    string
		knobs   []Knob
		entries int
	}{
		{"wide compile", wideCompileKnobs(), 1031},
		{"pruner bound", prunerBoundKnobs(), 1029},
	} {
		ar, entries := new(arena), 0
		compile := func() {
			cs, err := compileIn(ar, base, c.knobs, scs, 1)
			if err != nil {
				t.Fatalf("%s: compileSpace: %v", c.name, err)
			}
			entries = 0
			for gi := range cs.groups {
				entries += cs.groups[gi].size
			}
			ar.reset()
		}
		compile() // warm the arena
		runs := 0
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs := testing.AllocsPerRun(5, func() { runs++; compile() })
		runtime.ReadMemStats(&after)
		if entries != c.entries {
			t.Fatalf("%s: compiled %d table entries, want %d", c.name, entries, c.entries)
		}
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
		t.Logf("%s: %.2f allocations and %.0f bytes per table entry", c.name,
			allocs/float64(entries), bytes/float64(entries))
		if perEntry := allocs / float64(entries); perEntry > 0.25 {
			t.Errorf("%s: compile allocates %.2f objects per table entry (%.0f over %d), budget 0.25",
				c.name, perEntry, allocs, entries)
		}
		if perEntry := bytes / float64(entries); perEntry > 32 {
			t.Errorf("%s: compile allocates %.0f bytes per table entry (%.0f over %d), budget 32",
				c.name, perEntry, bytes, entries)
		}
	}
}

// TestCompileCapturesInArena: an entry's fragments capture their demands
// into the extractor's demand chunks, drawing a chunk large enough for
// the records an entry registers before copying any, so no record lands
// outside the arena. On a warmed arena, a steady-state compile of
// prunerBoundKnobs' space draws the same chunks the first compile left
// and allocates none, and every fragment of every representable entry
// lies in a chunk it drew.
func TestCompileCapturesInArena(t *testing.T) {
	base, knobs, scs := casestudy.Baseline(), prunerBoundKnobs(), scenarios()
	ar := new(arena)
	var warm [][]core.IndexedDemand
	for run := 0; run < 3; run++ {
		cs, err := compileIn(ar, base, knobs, scs, 1)
		if err != nil {
			t.Fatalf("compileIn: %v", err)
		}
		x := &ar.slots[0].x
		drawn := x.chunks[:x.drawn]
		if run > 0 {
			if len(x.chunks) != len(warm) {
				t.Fatalf("run %d: %d demand chunks, %d after the first compile", run, len(x.chunks), len(warm))
			}
			for i, c := range x.chunks {
				if unsafe.SliceData(c) != unsafe.SliceData(warm[i]) || cap(c) != cap(warm[i]) {
					t.Fatalf("run %d: demand chunk %d replaced on a warmed arena", run, i)
				}
			}
		}
		warm = append(warm[:0], x.chunks...)
		records := 0
		for gi := range cs.groups {
			g := &cs.groups[gi]
			for e := 0; e < g.size; e++ {
				if g.suspect[e] {
					continue
				}
				for li, f := range g.entryFrags(e) {
					if len(f.Demands) == 0 {
						continue
					}
					records += len(f.Demands)
					if !slices.ContainsFunc(drawn, func(c []core.IndexedDemand) bool { return within(f.Demands, c) }) {
						t.Fatalf("run %d: group %d entry %d level %d: %d records outside the arena's demand chunks",
							run, gi, e, g.levels[li], len(f.Demands))
					}
				}
			}
		}
		if records == 0 {
			t.Fatal("no entry captured a demand record")
		}
		ar.reset()
	}
}

// TestExtractorRoom: room hands a capture a buffer with room for the
// records it counted: the current chunk's free tail when that has room,
// else a new chunk sized for the worker's entries left in the group at
// the most records an entry has captured, and for at least the count.
func TestExtractorRoom(t *testing.T) {
	var x extractor
	x.most, x.left = 2, 3
	chunk := x.room(1)
	if cap(chunk) != 6 {
		t.Fatalf("first chunk holds %d records, want 6 (2 for each of 3 entries)", cap(chunk))
	}
	x.free = chunk[:5][5:] // five records captured
	if got := x.room(1); cap(got) != 1 || !within(got[:1], chunk) {
		t.Fatalf("room(1) with one record free: %d records, in the chunk %v", cap(got), within(got[:1], chunk))
	}
	if got := x.room(7); cap(got) < 7 {
		t.Fatalf("room(7) leaves room for %d records", cap(got))
	}
}

// within reports whether s lies in c's backing array.
func within[T any](s, c []T) bool {
	if cap(s) == 0 || cap(c) == 0 {
		return false
	}
	size := unsafe.Sizeof(s[:1][0])
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(c)))
	at := uintptr(unsafe.Pointer(unsafe.SliceData(s)))
	return at >= lo && at+uintptr(len(s))*size <= lo+uintptr(cap(c))*size
}

// BenchmarkCompile times one compile on one worker in the steady state
// of a process that searches repeatedly: each compile draws the pool's
// warmed arena and returns it. "wide" is wideCompileKnobs' space, whose
// touchless tie knob is checked against all 1031 entries; "pruner
// bound" is prunerBoundKnobs', the perfbench search space, with none.
func BenchmarkCompile(b *testing.B) {
	base := casestudy.Baseline()
	scs := scenarios()
	for _, c := range []struct {
		name  string
		knobs []Knob
	}{
		{"wide", wideCompileKnobs()},
		{"pruner-bound", prunerBoundKnobs()},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cs, err := compileSpace(base, c.knobs, scs, 1)
				if err != nil {
					b.Fatal(err)
				}
				cs.release()
			}
		})
	}
}

// BenchmarkExhaustiveCompileRule times a single-worker search on each
// side of the compile rule: table7Knobs' 12 candidates stay uncompiled
// and run as slow rows, pruneTestKnobs' 192 candidates compile.
func BenchmarkExhaustiveCompileRule(b *testing.B) {
	base := casestudy.Baseline()
	scs := scenarios()
	for _, c := range []struct {
		name  string
		knobs []Knob
	}{
		{"12-uncompiled", table7Knobs()},
		{"192-compiled", pruneTestKnobs()},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ExhaustiveOpts(base, c.knobs, scs, nil, ExhaustiveOptions{Workers: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// hugeSpaceKnobs spans 2^60 candidates: four vault retention counts,
// then 58 two-option tie-breakers that touch nothing.
func hugeSpaceKnobs() []Knob {
	knobs := []Knob{RetCntKnob("vaulting", []int{2, 4, 8, 13})}
	for i := 0; i < 58; i++ {
		knobs = append(knobs, Knob{
			Name:       fmt.Sprintf("tie %d", i),
			Options:    []string{"a", "b"},
			Apply:      func(*core.Design, int) error { return nil },
			Revertible: true,
		})
	}
	return knobs
}

// TestCompileVerifyHugeSpace: verify spreads its probes over the whole
// space, not just the searched shard. On a 2^60-candidate space the
// product p*(space-1) overflows int, which decodes negative options and
// panics inside fill. A 1024-candidate shard of that space must compile
// and return the slow path's winner.
func TestCompileVerifyHugeSpace(t *testing.T) {
	base := casestudy.Baseline()
	knobs := hugeSpaceKnobs()
	scs := scenarios()
	if _, err := compileSpace(base, knobs, scs, 1); err != nil {
		t.Fatalf("compileSpace: %v", err)
	}
	sol, err := ExhaustiveOpts(base, knobs, scs, nil, ExhaustiveOptions{
		Workers: 1,
		Shard:   Shard{Index: 0, Count: 1 << 50},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The shard covers retention option 0 with every tie-breaker
	// combination: all score alike, so the lowest index wins.
	want, err := scoreCandidate(base, knobs, scs, WorstTotalObjective(), make([]int, len(knobs)))
	if err != nil {
		t.Fatal(err)
	}
	if sol.Score != want || sol.CandidateIndex != 0 || sol.Evaluations != 1024 {
		t.Errorf("score %v index %d evaluations %d, want %v, 0, 1024",
			sol.Score, sol.CandidateIndex, sol.Evaluations, want)
	}
}

// TestSpreadIndex: spreadIndex is exactly p*(size-1)/(n-1) wherever that
// product fits in an int, and stays ascending within [0, size) with the
// endpoints pinned where it would overflow.
func TestSpreadIndex(t *testing.T) {
	for _, size := range []int{1, 2, 3, 15, 16, 17, 1000, 6144, 1 << 40} {
		for _, n := range []int{1, 2, 3, 16} {
			if n > size {
				continue
			}
			for p := 0; p < n; p++ {
				want := 0
				if n > 1 {
					want = p * (size - 1) / (n - 1)
				}
				if got := spreadIndex(p, n, size); got != want {
					t.Errorf("spreadIndex(%d, %d, %d) = %d, want %d", p, n, size, got, want)
				}
			}
		}
	}
	for _, size := range []int{1 << 60, math.MaxInt} {
		prev := -1
		for p := 0; p < compileProbes; p++ {
			got := spreadIndex(p, compileProbes, size)
			if got <= prev || got >= size {
				t.Fatalf("spreadIndex(%d, %d, %d) = %d after %d", p, compileProbes, size, got, prev)
			}
			prev = got
		}
		if prev != size-1 {
			t.Errorf("last probe of %d lands at %d, want %d", size, prev, size-1)
		}
	}
}

// touchlessAccWKnobs is a space where a touchless knob rewrites what a
// group's entry set: 41 vault policies, the baseline's with hold
// windows of 4 weeks plus 0 to 40 hours but option 23 the weekly one,
// then an accumulation-window knob offering only the baseline's 4
// weeks. That window leaves the base as it is, so the knob joins no
// group, but on the weekly policy it rewrites the windows and the
// retention count. No compile probe lands on candidate 23.
func touchlessAccWKnobs() []Knob {
	names := make([]string, 41)
	pols := make([]hierarchy.Policy, 41)
	for i := range pols {
		names[i] = fmt.Sprintf("hold +%dh", i)
		pols[i] = casestudy.VaultPolicy()
		pols[i].Primary.HoldW = 4*units.Week + time.Duration(i)*time.Hour
	}
	names[23], pols[23] = "weekly", vaultPolicyPair()[1]
	return []Knob{
		PolicyKnob("vaulting", names, pols),
		AccWKnob("vaulting", []time.Duration{4 * units.Week}),
	}
}

// TestCompileTouchlessKnobRewritesEntry: a knob none of whose options
// changes the base still changes the candidates whose group entry it
// rewrites. Compile must check each entry against the knob's options
// and make the weekly policy's entry suspect, so the compiled search,
// pruned and unpruned, returns the slice oracle's Solution.
func TestCompileTouchlessKnobRewritesEntry(t *testing.T) {
	base, knobs, scs := casestudy.Baseline(), touchlessAccWKnobs(), scenarios()
	cs, err := compileSpace(base, knobs, scs, 1)
	if err != nil {
		t.Fatalf("compileSpace: %v", err)
	}
	if len(cs.groups) != 1 || !reflect.DeepEqual(cs.touchless, []int{1}) {
		t.Fatalf("groups %d, touchless knobs %v; want one group and knob 1 touchless", len(cs.groups), cs.touchless)
	}
	for e := 0; e < cs.groups[0].size; e++ {
		if got := cs.groups[0].suspect[e]; got != (e == 23) {
			t.Errorf("entry %d suspect = %v", e, got)
		}
	}
	cs.release()
	ref, err := sliceExhaustive(base, knobs, scs, WorstTotalObjective())
	if err != nil {
		t.Fatal(err)
	}
	for _, prune := range []bool{false, true} {
		for _, workers := range []int{1, 3} {
			label := fmt.Sprintf("prune %v, workers %d", prune, workers)
			sol, err := ExhaustiveOpts(base, knobs, scs, WorstTotalObjective(), ExhaustiveOptions{
				Workers: workers, Prune: prune, Floor: WorstTotalFloor(),
			})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			prunedIdentical(t, label, ref, sol)
		}
	}
}
