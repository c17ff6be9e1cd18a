package chaos

import (
	"bytes"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"stordep/internal/casestudy"
	"stordep/internal/core"
	"stordep/internal/device"
	"stordep/internal/failure"
	"stordep/internal/protect"
	"stordep/internal/units"
)

func TestMultiCampaignClean(t *testing.T) {
	sum, err := (&Campaign{Seed: 1, Runs: 15, Multi: true}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Violations) != 0 {
		t.Fatalf("violations in clean multi campaign:\n%s", sum.String())
	}
	for _, name := range multiInvariantNames() {
		if sum.Checks[name] == 0 {
			t.Errorf("invariant %q never checked", name)
		}
	}
}

// TestMultiCampaignWorkersDeterminism is the worker-count property: the
// same multi campaign merged from 1, 2 and 8 workers renders the same
// summary bit for bit, digest included.
func TestMultiCampaignWorkersDeterminism(t *testing.T) {
	var digests []uint64
	var outs []string
	for _, workers := range []int{1, 2, 8} {
		sum, err := (&Campaign{Seed: 23, Runs: 12, Workers: workers, Multi: true}).Run()
		if err != nil {
			t.Fatal(err)
		}
		digests = append(digests, sum.Digest)
		outs = append(outs, sum.String())
	}
	for i := 1; i < len(digests); i++ {
		if digests[i] != digests[0] {
			t.Errorf("digest differs between worker counts: %#x vs %#x", digests[i], digests[0])
		}
		if outs[i] != outs[0] {
			t.Errorf("summary differs between worker counts:\n%s\n---\n%s", outs[0], outs[i])
		}
	}
}

func TestGenMultiCaseAlwaysViable(t *testing.T) {
	for run := 0; run < 25; run++ {
		mcs, _ := genMultiCase(runRNG(5, run), run, false)
		md := mcs.Design
		if err := md.Validate(); err != nil {
			t.Fatalf("run %d: generated multi design invalid: %v", run, err)
		}
		if len(md.Objects) < 2 || len(md.Objects) > 5 {
			t.Fatalf("run %d: %d objects outside [2,5]", run, len(md.Objects))
		}
		if mcs.Horizon <= 0 || mcs.Horizon > horizonCap {
			t.Fatalf("run %d: horizon %v outside (0, %v]", run, mcs.Horizon, horizonCap)
		}
		levels := make(map[string]int, len(md.Objects))
		for _, obj := range md.Objects {
			levels[obj.Name] = len(obj.Levels)
		}
		for _, o := range mcs.Outages {
			n, ok := levels[o.Object]
			if !ok {
				t.Fatalf("run %d: outage for unknown object %q", run, o.Object)
			}
			if o.Level < 1 || o.Level > n {
				t.Fatalf("run %d: outage level %d outside [1,%d] for object %s", run, o.Level, n, o.Object)
			}
			if o.From < 0 || o.To <= o.From || o.To >= mcs.Horizon {
				t.Fatalf("run %d: outage window [%v,%v) outside horizon %v", run, o.From, o.To, mcs.Horizon)
			}
			// Whole seconds survive the config round-trip.
			if o.From%time.Second != 0 || o.To%time.Second != 0 {
				t.Fatalf("run %d: outage window [%v,%v) not whole seconds", run, o.From, o.To)
			}
		}
		if mcs.Horizon%time.Second != 0 || mcs.Scenario.TargetAge%time.Second != 0 {
			t.Fatalf("run %d: horizon %v or age %v not whole seconds", run, mcs.Horizon, mcs.Scenario.TargetAge)
		}
		if !mcs.Scenario.Scope.Valid() {
			t.Fatalf("run %d: invalid scope %v", run, mcs.Scenario.Scope)
		}
	}
}

func TestFallbackMultiDesignViable(t *testing.T) {
	md := fallbackMultiDesign(3)
	if err := md.Validate(); err != nil {
		t.Fatal(err)
	}
	if mcs := multiScheduleFor(runRNG(1, 0), md, false); mcs == nil {
		t.Fatal("fallback multi design did not schedule")
	}
}

func TestCheckMultiCaseDigestStable(t *testing.T) {
	mcs, _ := genMultiCase(runRNG(9, 3), 3, false)
	a, err := checkMultiCase(mcs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := checkMultiCase(mcs)
	if err != nil {
		t.Fatal(err)
	}
	if a.digest != b.digest {
		t.Errorf("digest unstable:\n%s\n%s", a.digest, b.digest)
	}
	if a.digest == "" {
		t.Error("empty multi case digest")
	}
}

func TestMultiReproRoundTrip(t *testing.T) {
	var mcs *MultiCase
	for run := 0; run < 40; run++ {
		c, _ := genMultiCase(runRNG(17, run), run, false)
		if len(c.Outages) >= 1 && len(c.Design.Objects) >= 3 {
			mcs = c
			break
		}
	}
	if mcs == nil {
		t.Fatal("no generated multi case with outages and >=3 objects")
	}
	meta := ReproMeta{Invariant: invMultiDepOrder, Detail: "synthetic", Seed: 17, Run: 4}
	data, err := encodeRepro(mcs, meta)
	if err != nil {
		t.Fatal(err)
	}
	decoded, gotMeta, err := DecodeRepro(data)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := decoded.(*MultiCase)
	if !ok {
		t.Fatalf("multi repro decoded as %T", decoded)
	}
	if gotMeta != meta {
		t.Errorf("meta round-trip: %+v != %+v", gotMeta, meta)
	}
	// The decoded case re-encodes bit-identically: counterexamples replay
	// from JSON with nothing lost.
	data2, err := encodeRepro(got, gotMeta)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Error("multi repro encoding is not a fixed point")
	}
	if got.Horizon != mcs.Horizon || got.Scenario != mcs.Scenario {
		t.Errorf("case round-trip mismatch: %+v vs %+v", got, mcs)
	}
	if len(got.Outages) != len(mcs.Outages) {
		t.Fatalf("outages %d != %d", len(got.Outages), len(mcs.Outages))
	}
	for i := range got.Outages {
		if got.Outages[i] != mcs.Outages[i] {
			t.Errorf("outage %d: %+v != %+v", i, got.Outages[i], mcs.Outages[i])
		}
	}
	// A replay of the loaded case runs the full multi battery cleanly.
	violations, err := Replay(got)
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) != 0 {
		t.Errorf("replay violations: %+v", violations)
	}
}

func TestMultiReproSaveLoadAndSniffing(t *testing.T) {
	mcs, _ := genMultiCase(runRNG(19, 0), 0, false)
	path := filepath.Join(t.TempDir(), "repro.json")
	meta := ReproMeta{Invariant: invMultiUtilSum, Detail: "synthetic", Seed: 19}
	if err := SaveRepro(path, mcs, meta); err != nil {
		t.Fatal(err)
	}
	loaded, gotMeta := readRepro(t, path)
	got, ok := loaded.(*MultiCase)
	if !ok {
		t.Fatalf("multi repro decoded as %T", loaded)
	}
	if gotMeta != meta || got.Design.Name != mcs.Design.Name {
		t.Errorf("loaded %+v / %q", gotMeta, got.Design.Name)
	}
	// The same decoder reads a single-object repro as a *Case.
	cs, _ := genCase(runRNG(19, 1), 1)
	if err := SaveRepro(path, cs, meta); err != nil {
		t.Fatal(err)
	}
	loaded, _ = readRepro(t, path)
	if _, ok := loaded.(*Case); !ok {
		t.Errorf("single-object repro decoded as %T", loaded)
	}
}

// genEdgeCase draws a multi case with at least three objects and one
// dependency edge, for the shrinker tests.
func genEdgeCase(t *testing.T) *MultiCase {
	t.Helper()
	for run := 0; run < 60; run++ {
		mcs, _ := genMultiCase(runRNG(29, run), run, false)
		if len(mcs.Design.Objects) >= 3 && dependencyEdges(mcs.Design) >= 1 && len(mcs.Outages) >= 1 {
			return mcs
		}
	}
	t.Fatal("no generated multi case with >=3 objects, an edge and an outage")
	return nil
}

// hasEdge reports whether the design still contains the named dependency
// edge — the synthetic "failure" driving the shrinker tests (real
// violations cannot be provoked from valid designs when the model is
// correct, so the reduction machinery is exercised with a predicate
// that keys on the same structure a dependency-invariant failure would).
func hasEdge(mcs *MultiCase, from, to string) bool {
	for _, obj := range mcs.Design.Objects {
		if obj.Name != from {
			continue
		}
		for _, dep := range obj.DependsOn {
			if dep == to {
				return true
			}
		}
	}
	return false
}

// TestShrinkMultiMinimality checks the multi shrinker reaches a minimal
// counterexample: the shrunk case still fails, and removing any single
// object or dependency edge makes the failure disappear.
func TestShrinkMultiMinimality(t *testing.T) {
	mcs := genEdgeCase(t)
	var from, to string
	for _, obj := range mcs.Design.Objects {
		if len(obj.DependsOn) > 0 {
			from, to = obj.Name, obj.DependsOn[0]
			break
		}
	}
	fails := func(c *MultiCase) bool { return hasEdge(c, from, to) }
	shrunk := shrinkWith(mcs, 400, fails)
	if !fails(shrunk) {
		t.Fatal("shrinker returned a passing case")
	}
	if !shrunk.viable() {
		t.Fatal("shrunk case not viable")
	}
	if got := len(shrunk.Design.Objects); got != 2 {
		t.Errorf("shrunk to %d objects, want the minimal 2 (%s -> %s)", got, from, to)
	}
	if got := dependencyEdges(shrunk.Design); got != 1 {
		t.Errorf("shrunk to %d dependency edges, want 1", got)
	}
	if len(shrunk.Outages) != 0 {
		t.Errorf("shrunk case still carries %d outages", len(shrunk.Outages))
	}
	// 1-minimality: every single-object drop and every single-edge drop
	// makes the failure disappear.
	for i := range shrunk.Design.Objects {
		c, err := copyTrial(shrunk)
		if err != nil {
			t.Fatal(err)
		}
		dropObject(c, c.Design.Objects[i].Name, i)
		if fails(c) {
			t.Errorf("dropping object %d keeps the failure: not minimal", i)
		}
	}
	for i, obj := range shrunk.Design.Objects {
		for k := range obj.DependsOn {
			c, err := copyTrial(shrunk)
			if err != nil {
				t.Fatal(err)
			}
			deps := c.Design.Objects[i].DependsOn
			c.Design.Objects[i].DependsOn = append(deps[:k:k], deps[k+1:]...)
			if fails(c) {
				t.Errorf("dropping edge %s[%d] keeps the failure: not minimal", obj.Name, k)
			}
		}
	}
	// The original case was never mutated.
	if !hasEdge(mcs, from, to) {
		t.Error("shrinker mutated the original case")
	}
}

// TestShrunkMultiReproReplays checks the full counterexample loop: the
// shrunk case survives a repro round-trip and the reloaded case still
// exhibits the same failure.
func TestShrunkMultiReproReplays(t *testing.T) {
	mcs := genEdgeCase(t)
	var from, to string
	for _, obj := range mcs.Design.Objects {
		if len(obj.DependsOn) > 0 {
			from, to = obj.Name, obj.DependsOn[0]
			break
		}
	}
	fails := func(c *MultiCase) bool { return hasEdge(c, from, to) }
	shrunk := shrinkWith(mcs, 400, fails)
	path := filepath.Join(t.TempDir(), "repro.json")
	if err := SaveRepro(path, shrunk, ReproMeta{Invariant: invMultiDepOrder}); err != nil {
		t.Fatal(err)
	}
	decoded, _ := readRepro(t, path)
	loaded, ok := decoded.(*MultiCase)
	if !ok {
		t.Fatalf("multi repro decoded as %T", decoded)
	}
	if !fails(loaded) {
		t.Error("reloaded counterexample no longer fails")
	}
	if !loaded.viable() {
		t.Error("reloaded counterexample not viable")
	}
}

func TestShrinkMultiKeepsOriginalWhenNothingReproduces(t *testing.T) {
	mcs, _ := genMultiCase(runRNG(13, 0), 0, false)
	shrunk := shrinkWith(mcs, 50, func(*MultiCase) bool { return false })
	if shrunk != mcs {
		t.Error("shrinker replaced the case although no mutation failed")
	}
}

// TestShrinkMultiKeepsFragmentSites: with one object carrying an
// erasure-coded level, the shrinker can still drop the other objects,
// because pruning the fleet keeps every fragment site the remaining
// levels use.
func TestShrinkMultiKeepsFragmentSites(t *testing.T) {
	devs, ec := erasureSites()
	base := casestudy.Baseline()
	backup := func(name string) protect.Technique {
		return &protect.Backup{InstanceName: name, SourceArray: device.NameDiskArray,
			Target: device.NameTapeLibrary, Pol: casestudy.BackupPolicy()}
	}
	object := func(name string, deps []string, levels ...protect.Technique) core.ObjectSpec {
		return core.ObjectSpec{
			Name: name, Workload: genObjectWorkload(runRNG(1, 0), name),
			Primary: &protect.Primary{Array: device.NameDiskArray}, DependsOn: deps, Levels: levels,
		}
	}
	mcs := &MultiCase{
		Design: &core.MultiDesign{
			Name:         "erasure-service",
			Requirements: base.Requirements,
			Devices:      append(base.Devices, devs...),
			Objects: []core.ObjectSpec{
				object("catalog", nil, backup("catalog-backup")),
				object("archive", []string{"catalog"}, ec),
				object("orders", []string{"catalog"}, backup("orders-backup")),
			},
		},
		Scenario: failure.Scenario{Scope: failure.ScopeArray},
		Horizon:  40 * units.Week,
	}
	if !mcs.viable() {
		t.Fatal("starting case not viable")
	}
	shrunk := shrinkWith(mcs, 200, func(c *MultiCase) bool {
		for _, obj := range c.Design.Objects {
			if hasErasureLevel(obj.Levels) {
				return true
			}
		}
		return false
	})
	if got := len(shrunk.Design.Objects); got != 1 || shrunk.Design.Objects[0].Name != "archive" {
		t.Fatalf("shrunk to %d objects, want the archive alone", got)
	}
	var kept []string
	for _, pd := range shrunk.Design.Devices {
		kept = append(kept, pd.Spec.Name)
	}
	want := []string{device.NameDiskArray, "frag-1", "frag-2", "frag-3", device.NameGigELinks}
	if !reflect.DeepEqual(kept, want) {
		t.Errorf("shrunk fleet %v, want %v", kept, want)
	}
}
