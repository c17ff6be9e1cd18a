package core

import (
	"fmt"

	"stordep/internal/failure"
	"stordep/internal/units"
)

// DeltaAssessor incrementally re-assesses variants of one base design
// for coordinate-descent callers (internal/opt's Tune), where a knob
// changes one hierarchy level or one device spec at a time. AssessDelta
// diffs a variant against the base, re-extracts only the changed levels'
// fragments, and folds the cached remainder through the columnar batch
// kernel (rows.go). The fold follows Build's demand registration order,
// so a delta score is bit-identical to the Build-and-assess score and
// may replace it without perturbing a search's argmin or tie-breaks.
// Obtain one with NewDeltaAssessor. A DeltaAssessor owns per-call
// scratch and must not be shared between concurrent calls; the base
// design must not be mutated while the assessor is alive.
type DeltaAssessor struct {
	kern *BatchKernel
	asm  *Assembler
	cols *Cols
	bs   BatchScratch
}

// NewDeltaAssessor builds the incremental assessor for a base design and
// scenario set: it builds the base system once, compiles the batch
// kernel, and probes that the zero-change assessment reproduces the
// reference assessment of the base bit for bit. Any failure returns an
// error; the caller then keeps using the reference path.
func NewDeltaAssessor(base *Design, scs []failure.Scenario) (*DeltaAssessor, error) {
	sys, err := Build(base)
	if err != nil {
		return nil, fmt.Errorf("core: delta: base design: %w", err)
	}
	kern, err := NewBatchKernel(sys, scs)
	if err != nil {
		return nil, fmt.Errorf("core: delta: %w", err)
	}
	da := &DeltaAssessor{kern: kern, asm: kern.NewAssembler(), cols: kern.NewCols(1)}
	outlays, briefs, ok := da.AssessDelta(base)
	if !ok {
		return nil, fmt.Errorf("core: delta: base design not re-assessable")
	}
	if err := Probe(new(System), new(Scratch), base, scs, outlays, briefs); err != nil {
		return nil, fmt.Errorf("core: delta: %w", err)
	}
	return da, nil
}

// AssessDelta assesses a variant of the base design, re-extracting only
// the levels that changed. It returns the variant's outlay total, one
// Brief per kernel scenario (a scratch slice, valid until the next
// call), and ok=true. ok=false means the variant is outside the delta
// protocol (see Assembler.Row) and the caller must assess it through the
// reference path, which also reproduces the exact error.
func (da *DeltaAssessor) AssessDelta(d *Design) (units.Money, []Brief, bool) {
	if !da.asm.Row(d, da.cols, 0) {
		return 0, nil, false
	}
	da.kern.AssessBatch(1, da.cols, &da.bs)
	return da.cols.OutlaysTotal[0], da.bs.Briefs, true
}
