package opt

import (
	"sync"
	"sync/atomic"
	"time"

	"stordep/internal/core"
	"stordep/internal/device"
	"stordep/internal/units"
)

// This file holds a search's arena: every buffer whose size follows the
// compiled tables, drawn from a package-level pool when a search
// compiles its slice (compileSpace) and returned when its sweep ends
// (compiledSpace.release), so a process that runs search after search
// stops allocating, zeroing and collecting that storage each time.
//
// The arena holds the base design's built System, the group tables
// (compile.go) and the pruner's per-entry tables (bound.go), each kind
// one flat array carved into the groups' rows, and one slot per worker:
// the demand chunks its extraction captures into, the batch scratch
// that verify, the pruner's seed and its sweep worker fill and assess
// with, and the probe storage of verify's reference checks.
//
// Pooled memory stays safe under five rules:
//
//   - a buffer is sized from the space: a pooled one large enough is
//     resliced, a short one is replaced by exactly what the space needs,
//     never grown by doubling, so a first search allocates no more than
//     it would without the pool;
//   - every element a search reads, it writes or clears first: the
//     group tables and chunks are zero when drawn (release clears them),
//     a suspect entry's rows are cleared, and the pruner's outlays, which
//     accumulate, are cleared before they are summed;
//   - nothing a search returns points into its arena: Solutions,
//     Frontiers and SearchStats are built from the knobs and the base;
//   - concurrent searches draw distinct arenas from the pool, and within
//     a search each worker draws its own slot;
//   - release clears every slice that holds pointers, and resets the
//     Systems and the probe designs (core.System.Reset,
//     core.Design.Reset), so a pooled arena keeps no design's strings
//     alive. A slot's Assembler is bound to its search's kernel, so it is
//     made once per search and slot, for extraction, verify, the seed and
//     the sweep alike, and dropped at release.
var arenaPool = sync.Pool{New: func() any { return new(arena) }}

// arena is one search's table storage; see the file comment.
type arena struct {
	// base is the base design's System, which the kernel reads.
	base core.System

	// The group tables, carved into each knobGroup's rows.
	suspect []bool
	frags   []core.Fragment
	specs   []device.Spec

	// The pruner's per-entry tables, carved into each prunedGroup's rows.
	outlay  []units.Money
	copyIdx []int32
	accW    []time.Duration
	lag     []time.Duration
	rec     []time.Duration

	slots []*slot
	next  atomic.Int32 // the slot draw hands out next
}

// release resets the arena and returns it to the pool. Nothing may use
// the arena, or tables carved from it, afterwards.
func (ar *arena) release() {
	ar.reset()
	arenaPool.Put(ar)
}

// reset clears what the arena's buffers point to, keeping the buffers
// for the next search. A second reset clears nothing more.
func (ar *arena) reset() {
	ar.base.Reset()
	clear(ar.frags)
	clear(ar.specs)
	ar.frags, ar.specs = ar.frags[:0], ar.specs[:0]
	for _, s := range ar.slots {
		s.reset()
	}
}

// sized returns buf resliced to n elements, or a new slice of exactly n
// when buf's capacity is short.
func sized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// carve splits buf's first n elements off, capped at n so no append can
// run into the rest; the head is nil when n is 0.
func carve[T any](buf []T, n int) (head, rest []T) {
	if n == 0 {
		return nil, buf
	}
	return buf[:n:n], buf[n:]
}

// slot is one worker's share of an arena. Extraction worker w captures
// demands through slot w's extractor, verify worker w probes on its
// batch scratch and probe storage, and sweep worker w fills and
// assesses on its batch scratch, as the pruner's seed does on slot 0's.
type slot struct {
	x extractor

	cs     *compiledSpace // the space the slot is readied for; nil when released
	fs     fillScratch
	cols   *core.Cols
	bs     core.BatchScratch
	ps     pruneScratch
	choice []int
	slow   []bool

	// A verify probe's reference side: the candidate's copy of the base
	// (core.Design.CloneInto), its build and its assessment scratch.
	probe        core.Design
	probeSys     core.System
	probeScratch core.Scratch
}

// slot returns slot w readied for cs, adding slots up to w. It is not
// safe for concurrent use; concurrent workers draw theirs.
func (ar *arena) slot(w int, cs *compiledSpace) *slot {
	for len(ar.slots) <= w {
		ar.slots = append(ar.slots, new(slot))
	}
	s := ar.slots[w]
	if s.cs != cs {
		s.ready(cs)
	}
	return s
}

// deal readies n slots for cs, at least one, and restarts draw at slot 0.
func (ar *arena) deal(n int, cs *compiledSpace) {
	for w := 0; w < max(n, 1); w++ {
		ar.slot(w, cs)
	}
	ar.next.Store(0)
}

// draw hands the calling worker the next slot dealt. Safe for
// concurrent use.
func (ar *arena) draw() *slot { return ar.slots[ar.next.Add(1)-1] }

// ready readies s for cs: one Assembler on cs's kernel, which the
// extractor and the fill scratch share, and the scratch resized for cs.
func (s *slot) ready(cs *compiledSpace) {
	asm := cs.kern.NewAssembler()
	s.cs = cs
	s.x.ready(cs, asm)
	s.fs.ready(cs, asm)
	s.choice = sized(s.choice, len(cs.knobs))
}

// batchCols returns the slot's columnar block, replaced by one of rows
// rows when it holds fewer or was shaped for another level or device
// count. Every row a fill marks valid is written before it is read, so
// a block from an earlier search serves as a new one.
func (s *slot) batchCols(rows int) *core.Cols {
	cs := s.cs
	if c := s.cols; c == nil || c.Rows() < rows ||
		len(c.LvlLag) != c.Rows()*cs.nLevels || len(c.DevMaxBW) != c.Rows()*cs.nDevices {
		s.cols = cs.kern.NewCols(rows)
	}
	return s.cols
}

// reset clears the slot's pointers: its chunks, the extractor's copy
// and the Assembler, and the fill scratch's fragment and spec pointers.
func (s *slot) reset() {
	s.x.reset()
	s.cs, s.fs.asm = nil, nil
	clear(s.fs.frags)
	clear(s.fs.specs)
	if s.cols != nil {
		clear(s.cols.Err)
	}
	s.ps.fl.Scenarios = nil
	s.probe.Reset()
	s.probeSys.Reset()
}
