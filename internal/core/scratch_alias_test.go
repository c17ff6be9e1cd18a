package core_test

import (
	"fmt"
	"sync"
	"testing"

	"stordep/internal/casestudy"
	"stordep/internal/core"
)

// TestScratchAliasingInterleaved: distinct Scratches and BatchScratches
// on the same System never share buffers. Four goroutines interleave
// AssessBrief and AssessBatch over one shared (immutable) System and
// kernel, each with private scratch state; under -race any accidental
// slice aliasing between the scratches trips the detector, and every
// goroutine's results must equal the serial reference bit for bit.
func TestScratchAliasingInterleaved(t *testing.T) {
	sys, err := core.Build(casestudy.Baseline())
	if err != nil {
		t.Fatal(err)
	}
	scs := briefScenarios()
	kern, err := core.NewBatchKernel(sys, scs)
	if err != nil {
		t.Fatal(err)
	}

	// Serial reference, computed before any concurrency.
	ref := make([]core.Brief, len(scs))
	var refScratch core.Scratch
	for si, sc := range scs {
		b, err := sys.AssessBrief(sc, &refScratch)
		if err != nil {
			t.Fatal(err)
		}
		ref[si] = b
	}

	const goroutines = 4
	const rounds = 50
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var scratch core.Scratch
			var batch core.BatchScratch
			cols := kern.NewCols(2)
			asm := kern.NewAssembler()
			for _, row := range []int{0, 1} {
				if !asm.Row(sys.Design(), cols, row) {
					errs <- fmt.Errorf("goroutine %d: base row %d refused", g, row)
					return
				}
			}
			for round := 0; round < rounds; round++ {
				// Interleave: brief, then batch, then brief again, so
				// each path runs while the other's buffers are live.
				for si, sc := range scs {
					b, err := sys.AssessBrief(sc, &scratch)
					if err != nil {
						errs <- err
						return
					}
					if b != ref[si] {
						t.Errorf("goroutine %d round %d: brief %+v, want %+v", g, round, b, ref[si])
						return
					}
				}
				kern.AssessBatch(2, cols, &batch)
				for _, row := range []int{0, 1} {
					for si := range scs {
						if got := batch.Briefs[row*len(scs)+si]; got != ref[si] {
							t.Errorf("goroutine %d round %d: batch row %d %+v, want %+v", g, round, row, got, ref[si])
							return
						}
					}
				}
				for si, sc := range scs {
					b, err := sys.AssessBrief(sc, &scratch)
					if err != nil {
						errs <- err
						return
					}
					if b != ref[si] {
						t.Errorf("goroutine %d round %d: post-batch brief diverged", g, round)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
