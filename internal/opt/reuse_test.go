package opt

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"stordep/internal/casestudy"
	"stordep/internal/units"
)

// reuseSpaces are knob spaces whose candidates a probe design carried
// over from an earlier probe would get wrong: an accW clamp reads the
// propagation window an earlier option left, and PiT replaces a
// technique.
func reuseSpaces() map[string][]Knob {
	return map[string][]Knob{
		"accW clamp": {
			AccWKnob("vaulting", []time.Duration{12 * time.Hour, units.Week, 4 * units.Week, units.Day}),
			RetCntKnob("vaulting", []int{2, 13, 39}),
		},
		"PiT": {
			PiTKnob("split-mirror"),
			RetCntKnob("split-mirror", []int{2, 4, 8}),
		},
		"pruner bound": prunerBoundKnobs(),
	}
}

// TestReuseVerifyProbes: verify probes candidate after candidate on a
// slot's probe design, System and scratch. Each probe copies the base
// into the design again, so whatever the slot probed before, the design
// a probe applies its choice to and builds deeply equals a fresh clone
// of the base with that choice applied, and each probe agrees with the
// tables.
func TestReuseVerifyProbes(t *testing.T) {
	base, scs := casestudy.Baseline(), scenarios()
	for name, knobs := range reuseSpaces() {
		cs, err := compileSpace(base, knobs, scs, 1)
		if err != nil {
			t.Fatalf("%s: compileSpace: %v", name, err)
		}
		space, err := spaceSize(knobs)
		if err != nil {
			t.Fatal(err)
		}
		s := cs.ar.slot(0, cs)
		choice := make([]int, len(knobs))
		r := rand.New(rand.NewSource(1))
		for n := 0; n < 64; n++ {
			idx := r.Intn(space)
			label := fmt.Sprintf("%s: probe %d (candidate %d)", name, n, idx)
			if err := cs.probe(s, idx); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			decodeChoice(choice, knobs, idx)
			want, err := Clone(base)
			if err != nil {
				t.Fatal(err)
			}
			if applyChoiceTo(want, knobs, choice) != nil {
				continue // the probe stops where the apply fails, as a fresh one does
			}
			if !reflect.DeepEqual(&s.probe, want) {
				t.Fatalf("%s: probe design differs from a fresh clone with the choice applied", label)
			}
		}
		cs.release()
	}
}

// TestReuseVerifyConcurrent: verify runs its probes on the worker pool,
// each worker on its own slot's probe design, System and scratch. A
// compile on four workers must pass verify and build the one-worker
// compile's tables, time after time; under the race detector probe
// storage two slots share shows up as a race.
func TestReuseVerifyConcurrent(t *testing.T) {
	base, scs := casestudy.Baseline(), scenarios()
	for name, knobs := range reuseSpaces() {
		want, err := compileSpace(base, knobs, scs, 1)
		if err != nil {
			t.Fatalf("%s: compileSpace: %v", name, err)
		}
		for run := 0; run < 4; run++ {
			got, err := compileSpace(base, knobs, scs, 4)
			if err != nil {
				t.Fatalf("%s, run %d: compileSpace on four workers: %v", name, run, err)
			}
			sameTables(t, fmt.Sprintf("%s, run %d", name, run), got, want)
			got.release()
		}
		want.release()
	}
}
