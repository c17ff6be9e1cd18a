package chaos

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"stordep/internal/casestudy"
	"stordep/internal/core"
	"stordep/internal/device"
	"stordep/internal/failure"
	"stordep/internal/protect"
	"stordep/internal/units"
)

func TestCampaignDeterministic(t *testing.T) {
	runOnce := func() *Summary {
		t.Helper()
		c := &Campaign{Seed: 42, Runs: 8}
		sum, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		return sum
	}
	a, b := runOnce(), runOnce()
	if a.Digest != b.Digest {
		t.Errorf("digests differ: %#x vs %#x", a.Digest, b.Digest)
	}
	if a.String() != b.String() {
		t.Errorf("summaries differ:\n%s\n---\n%s", a.String(), b.String())
	}
	c, err := (&Campaign{Seed: 43, Runs: 8}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if c.Digest == a.Digest {
		t.Error("different seeds produced the same campaign digest")
	}
}

func TestCampaignClean(t *testing.T) {
	sum, err := (&Campaign{Seed: 1, Runs: 15}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Violations) != 0 {
		t.Fatalf("violations in clean campaign:\n%s", sum.String())
	}
	for _, name := range invariantNames() {
		if sum.Checks[name] == 0 {
			t.Errorf("invariant %q never checked", name)
		}
	}
	out := sum.String()
	for _, want := range []string{"chaos campaign: seed 1, 15 runs", "violations:        0", "case digest:"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestCampaignRejectsBadRuns(t *testing.T) {
	if _, err := (&Campaign{Seed: 1, Runs: 0}).Run(); err == nil {
		t.Error("zero runs accepted")
	}
}

func TestSummaryStringRendersViolations(t *testing.T) {
	sum := &Summary{
		Seed: 7, Runs: 1,
		Checks: map[string]int{"loss-bound": 3},
		Violations: []Violation{{
			Run: 0, Invariant: "loss-bound", Detail: "boom",
			ReproPath: "/tmp/x/repro-seed7-run0.json",
		}},
	}
	out := sum.String()
	for _, want := range []string{"violations:        1", "run 0 [loss-bound]: boom", "(repro: repro-seed7-run0.json)"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestGenCaseAlwaysViable(t *testing.T) {
	for run := 0; run < 25; run++ {
		cs, _ := genCase(runRNG(5, run), run)
		if err := cs.Design.Validate(); err != nil {
			t.Fatalf("run %d: generated design invalid: %v", run, err)
		}
		if cs.Horizon <= 0 || cs.Horizon > horizonCap {
			t.Fatalf("run %d: horizon %v outside (0, %v]", run, cs.Horizon, horizonCap)
		}
		levels := len(cs.Design.Levels)
		for _, o := range cs.Outages {
			if o.Level < 1 || o.Level > levels {
				t.Fatalf("run %d: outage level %d outside [1,%d]", run, o.Level, levels)
			}
			if o.From < 0 || o.To <= o.From || o.To >= cs.Horizon {
				t.Fatalf("run %d: outage window [%v,%v) outside horizon %v", run, o.From, o.To, cs.Horizon)
			}
		}
		if !cs.Scenario.Scope.Valid() {
			t.Fatalf("run %d: invalid scope %v", run, cs.Scenario.Scope)
		}
		if cs.Scenario.TargetAge < 0 {
			t.Fatalf("run %d: negative target age", run)
		}
	}
}

func TestCheckCaseDigestStable(t *testing.T) {
	cs, _ := genCase(runRNG(9, 3), 3)
	a, err := checkCase(cs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := checkCase(cs)
	if err != nil {
		t.Fatal(err)
	}
	if a.digest != b.digest {
		t.Errorf("digest unstable:\n%s\n%s", a.digest, b.digest)
	}
	if a.digest == "" {
		t.Error("empty case digest")
	}
}

// TestShrinkWith drives the reducer with a synthetic predicate ("the case
// still has at least one outage") and checks it reaches the minimal shape
// instead of stopping at the first local simplification.
func TestShrinkWith(t *testing.T) {
	var cs *Case
	for run := 0; run < 40; run++ {
		c, _ := genCase(runRNG(11, run), run)
		if len(c.Outages) >= 2 && len(c.Design.Levels) >= 2 {
			cs = c
			break
		}
	}
	if cs == nil {
		t.Fatal("no generated case with >=2 outages and >=2 levels")
	}
	fails := func(c *Case) bool { return len(c.Outages) >= 1 }
	shrunk := shrinkWith(cs, 200, fails)
	if !fails(shrunk) {
		t.Fatal("shrinker returned a passing case")
	}
	if len(shrunk.Outages) != 1 {
		t.Errorf("shrunk to %d outages, want 1", len(shrunk.Outages))
	}
	if !shrunk.viable() {
		t.Error("shrunk case not viable")
	}
	if len(shrunk.Design.Levels) > len(cs.Design.Levels) {
		t.Error("shrinking grew the hierarchy")
	}
	// The original case is never mutated.
	if len(cs.Outages) < 2 {
		t.Error("shrinker mutated the original case")
	}
}

// erasureSites returns three economy arrays in three regions and the
// GigE links between them, with a 2-of-3 erasure-coded level whose
// fragments they hold.
func erasureSites() ([]core.PlacedDevice, *protect.ErasureCode) {
	var devs []core.PlacedDevice
	var sites []string
	for i, region := range []string{"north", "south", "east"} {
		spec := device.EconomyArray()
		spec.Name = fmt.Sprintf("frag-%d", i+1)
		sites = append(sites, spec.Name)
		devs = append(devs, core.PlacedDevice{Spec: spec, Placement: failure.Placement{
			Array: spec.Name, Building: "colo-" + region, Site: "colo-" + region, Region: region,
		}})
	}
	devs = append(devs, core.PlacedDevice{Spec: device.GigELinks(2)})
	return devs, &protect.ErasureCode{
		Fragments: 3, Threshold: 2, Sites: sites, Links: device.NameGigELinks,
		Pol: casestudy.SplitMirrorPolicy(),
	}
}

func hasErasureLevel(levels []protect.Technique) bool {
	for _, t := range levels {
		if _, ok := t.(*protect.ErasureCode); ok {
			return true
		}
	}
	return false
}

// TestShrinkKeepsFragmentSites: truncating the hierarchy behind an
// erasure-coded level keeps every fragment site and the links, so the
// shrinker can drop the levels after it. A pruner that kept only each
// level's first site left the design referencing unknown devices.
func TestShrinkKeepsFragmentSites(t *testing.T) {
	d := casestudy.Baseline()
	devs, ec := erasureSites()
	d.Devices = append(d.Devices, devs...)
	d.Levels = append([]protect.Technique{ec}, d.Levels...)
	cs := &Case{Design: d, Scenario: failure.Scenario{Scope: failure.ScopeArray}, Horizon: 7 * units.Year}
	if !cs.viable() {
		t.Fatal("starting case not viable")
	}
	shrunk := shrinkWith(cs, 200, func(c *Case) bool { return hasErasureLevel(c.Design.Levels) })
	if got := len(shrunk.Design.Levels); got != 1 {
		t.Errorf("shrunk to %d levels, want the erasure level alone", got)
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

func TestShrinkKeepsOriginalWhenNothingReproduces(t *testing.T) {
	cs, _ := genCase(runRNG(13, 0), 0)
	shrunk := shrinkWith(cs, 50, func(*Case) bool { return false })
	if shrunk != cs {
		t.Error("shrinker replaced the case although no mutation failed")
	}
}

func TestReproRoundTrip(t *testing.T) {
	var cs *Case
	for run := 0; run < 40; run++ {
		c, _ := genCase(runRNG(17, run), run)
		if len(c.Outages) >= 1 {
			cs = c
			break
		}
	}
	if cs == nil {
		t.Fatal("no generated case with outages")
	}
	meta := ReproMeta{Invariant: "loss-bound", Detail: "synthetic", Seed: 17, Run: 4}
	path := filepath.Join(t.TempDir(), "repro.json")
	if err := SaveRepro(path, cs, meta); err != nil {
		t.Fatal(err)
	}
	loaded, gotMeta := readRepro(t, path)
	got, ok := loaded.(*Case)
	if !ok {
		t.Fatalf("single-object repro decoded as %T", loaded)
	}
	if gotMeta != meta {
		t.Errorf("meta round-trip: %+v != %+v", gotMeta, meta)
	}
	if got.Design.Name != cs.Design.Name {
		t.Errorf("design name %q != %q", got.Design.Name, cs.Design.Name)
	}
	if got.Horizon != cs.Horizon || got.Scenario != cs.Scenario {
		t.Errorf("case round-trip mismatch: %+v vs %+v", got, cs)
	}
	if len(got.Outages) != len(cs.Outages) {
		t.Fatalf("outages %d != %d", len(got.Outages), len(cs.Outages))
	}
	for i := range got.Outages {
		if got.Outages[i] != cs.Outages[i] {
			t.Errorf("outage %d: %+v != %+v", i, got.Outages[i], cs.Outages[i])
		}
	}
	// A replay of the loaded case runs the full battery cleanly.
	violations, err := Replay(got)
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) != 0 {
		t.Errorf("replay violations: %+v", violations)
	}
}

// readRepro reads and decodes a repro file.
func readRepro(t *testing.T, path string) (Trial, ReproMeta) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, meta, err := DecodeRepro(data)
	if err != nil {
		t.Fatal(err)
	}
	return got, meta
}

// TestLoadReproErrors: the decoder refuses corrupt JSON, and a file whose
// keys do not name exactly one kind of case.
func TestLoadReproErrors(t *testing.T) {
	cs, _ := genCase(runRNG(19, 1), 1)
	single, err := encodeRepro(cs, ReproMeta{})
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(single, &fields); err != nil {
		t.Fatal(err)
	}
	mutate := func(edit func(map[string]json.RawMessage)) []byte {
		m := make(map[string]json.RawMessage, len(fields))
		for k, v := range fields {
			m[k] = v
		}
		edit(m)
		data, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	for name, data := range map[string][]byte{
		"corrupt": []byte("{"),
		"neither": mutate(func(m map[string]json.RawMessage) { delete(m, "design") }),
		"both":    mutate(func(m map[string]json.RawMessage) { m["multiDesign"] = m["design"] }),
		"events":  mutate(func(m map[string]json.RawMessage) { m["faultScenario"] = json.RawMessage(`{}`) }),
		"object": mutate(func(m map[string]json.RawMessage) {
			m["outages"] = json.RawMessage(`[{"object":"a","level":1,"from":"1h","to":"2h"}]`)
		}),
		"bad scope": mutate(func(m map[string]json.RawMessage) { m["scope"] = json.RawMessage(`"galaxy"`) }),
		"bad age":   mutate(func(m map[string]json.RawMessage) { m["targetAge"] = json.RawMessage(`"soon"`) }),
	} {
		if _, _, err := DecodeRepro(data); err == nil {
			t.Errorf("%s: repro accepted", name)
		}
	}
	if _, _, err := DecodeRepro(mutate(func(map[string]json.RawMessage) {})); err != nil {
		t.Errorf("unedited repro refused: %v", err)
	}
}

// TestReproFixtures pins the repro format across versions. Each file
// under testdata was written by an earlier version of the codec; it must
// still decode to its kind, replay without violations and re-encode to
// the committed bytes.
func TestReproFixtures(t *testing.T) {
	for _, tc := range []struct {
		file              string
		multi, correlated bool
	}{
		{"repro-single.json", false, false},
		{"repro-multi.json", true, false},
		{"repro-correlated.json", true, true},
	} {
		data, err := os.ReadFile(filepath.Join("testdata", tc.file))
		if err != nil {
			t.Fatal(err)
		}
		got, meta, err := DecodeRepro(data)
		if err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}
		mcs, multi := got.(*MultiCase)
		if multi != tc.multi || multi && (len(mcs.Events) > 0 && len(mcs.OpFaults) > 0) != tc.correlated {
			t.Errorf("%s decoded as the wrong kind of case: %T", tc.file, got)
		}
		violations, err := Replay(got)
		if err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}
		if len(violations) != 0 {
			t.Errorf("%s: replay violations: %+v", tc.file, violations)
		}
		enc, err := encodeRepro(got, meta)
		if err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}
		if !bytes.Equal(append(enc, '\n'), data) {
			t.Errorf("%s: re-encoding differs from the committed bytes:\n%s", tc.file, enc)
		}
	}
}

func TestRunRNGDeterministic(t *testing.T) {
	a, b := runRNG(3, 7), runRNG(3, 7)
	for i := 0; i < 10; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("runRNG not deterministic")
		}
	}
	if runRNG(3, 7).Int63() == runRNG(3, 8).Int63() && runRNG(3, 7).Int63() == runRNG(4, 7).Int63() {
		t.Error("adjacent run streams look correlated")
	}
}

func TestQuantize(t *testing.T) {
	if got := Quantize(90*time.Second + 300*time.Millisecond); got != time.Minute {
		t.Errorf("Quantize(90.3s) = %v, want 1m", got)
	}
	if got := Quantize(10 * time.Second); got != time.Minute {
		t.Errorf("Quantize floors to one minute, got %v", got)
	}
	if got := CeilMinute(61 * time.Second); got != 2*time.Minute {
		t.Errorf("CeilMinute(61s) = %v, want 2m", got)
	}
}
