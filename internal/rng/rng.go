// Package rng holds the seed-splitting scheme shared by the campaign
// engines (internal/chaos, internal/mc). Both derive an independent
// deterministic stream per run/trial from one campaign seed; keeping
// the derivation in a single place guarantees the two engines can never
// drift apart, and that committed digests stay replayable.
//
// # Streams
//
// Run's stream is draw for draw identical to
// rand.New(rand.NewSource(SubSeed(seed, run))), through every rand.Rand
// method and across Seed. Every pinned digest, campaign number and chaos
// seed therefore holds; only the cost of seeding differs.
//
// math/rand's source is an additive lagged Fibonacci generator with a
// 607-word register and tap 273. Seeding fills the register from a
// Park-Miller LCG, x_j = 48271^j·x0 mod (2^31-1), xored with a constant
// table, which costs about 12 µs and 5 KB. A Monte Carlo trial seeds up
// to ten streams and draws a few dozen numbers from each, so the fill
// dominated it.
//
// Draw k < 273 reads two register words that no earlier draw has
// written. It is therefore a closed form in x0: the sum of two seeded
// words, each built from three powers of 48271 times x0 and one table
// constant. Seeding is a fold of the seed, and a draw costs six modular
// products. Draw 273 is the first to read a word a draw wrote. There
// the stream seeds a real math/rand source, skips the 273 draws already
// made and hands it every later draw, so a long stream (chaos case
// generation) costs what a math/rand stream costs.
//
// Both tables are built at init from the standard library: the powers
// of 48271 directly, and the constant table, which math/rand does not
// export, from the first 607 draws of seed 1 (see source.go).
// TestRunMatchesMathRand and FuzzRunMatchesMathRand hold the contract,
// and TestReseedMatchesRun holds it for a stream Reseed re-seeds.
//
// # Seed fold
//
// math/rand reduces every seed mod 2^31-1 before seeding, so a stream
// has only 2^31-1 distinct states however many bits SubSeed mixes in,
// and distinct (campaign seed, trial, stream) triples can share one
// stream. Among n streams about n²/2^32 pairs collide: 100k trials of an
// async mirror (10 streams each) hold about 220 streams whose folded
// seed repeats an earlier one. Widening the fold would move every pinned
// digest, so it waits for a deliberate re-pin.
package rng

import "math/rand"

// SplitMix64 is the SplitMix64 finalizing mixer (Steele, Lea & Flood).
// It decorrelates adjacent inputs, so consecutive run indices hash to
// unrelated seeds.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// SubSeed derives the sub-seed for one run of a campaign. The mixing of
// run before the xor keeps low run indices (0, 1, 2, ...) from carving
// predictable low-bit patterns into the campaign seed.
func SubSeed(seed int64, run int) int64 {
	return int64(SplitMix64(uint64(seed) ^ SplitMix64(uint64(run))))
}

// Run returns the deterministic random stream for one campaign run:
// the stream of rand.NewSource(SubSeed(seed, run)), without its seeding
// cost (see the package doc).
func Run(seed int64, run int) *rand.Rand {
	return rand.New(newSource(SubSeed(seed, run)))
}

// Reseed re-seeds r in place to the stream Run(seed, run) returns and
// returns r, so a caller that draws one stream after another (a Monte
// Carlo trial seeds one per device and per arrival process) allocates a
// single rand.Rand for all of them. A nil r gets a new stream from Run.
// Otherwise r must come from Run: its source re-seeds without a register
// fill and keeps its hand-off storage (see the package doc).
func Reseed(r *rand.Rand, seed int64, run int) *rand.Rand {
	if r == nil {
		return Run(seed, run)
	}
	r.Seed(SubSeed(seed, run))
	return r
}
