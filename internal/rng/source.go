package rng

import "math/rand"

// Parameters of math/rand's default source: an additive lagged
// Fibonacci generator over a 607-word register with tap 273, seeded by
// the Park-Miller LCG x' = 48271·x mod (2^31-1).
const (
	lagLen  = 607
	lagTap  = 273
	lcgMod  = 1<<31 - 1
	lcgMul  = 48271
	lcgSkip = 20 // LCG steps discarded before the first register word
)

// lcgPow[j] is 48271^j mod (2^31-1): the j-th LCG state after a seed x0
// is lcgPow[j]·x0 mod (2^31-1). Register word i takes states
// 21+3i .. 23+3i, so the table covers every word.
var lcgPow [lcgSkip + 1 + 3*lagLen]uint64

// cooked is math/rand's rngCooked table, the constant each register
// word is xored with at seeding. It is unexported in the standard
// library, so init recovers it from the first lagLen draws of seed 1.
var cooked [lagLen]uint64

func init() {
	p := uint64(1)
	for j := range lcgPow {
		lcgPow[j] = p
		p = p * lcgMul % lcgMod
	}

	// Draw k reads register words feed = 333-k (mod 607) and tap =
	// 606-k and writes the sum back to feed. For k < 273 both still
	// hold their seeded values; for 273 <= k < 607 the tap word is the
	// output of draw k-273 and the feed word is still seeded.
	src := rand.NewSource(1).(rand.Source64)
	var out, seeded [lagLen]uint64
	for k := range out {
		out[k] = src.Uint64()
	}
	for k := lagTap; k < lagLen; k++ {
		seeded[(2*lagLen-lagTap-1-k)%lagLen] = out[k] - out[k-lagTap]
	}
	for k := 0; k < lagTap; k++ {
		seeded[lagLen-lagTap-1-k] = out[k] - seeded[lagLen-1-k]
	}
	for i := range cooked {
		cooked[i] = seeded[i] ^ lcgWord(1, i)
	}
}

// lcgWord is register word i's LCG part for folded seed x0, before the
// cooked xor: x_{21+3i}<<40 ^ x_{22+3i}<<20 ^ x_{23+3i}.
func lcgWord(x0 uint64, i int) uint64 {
	j := lcgSkip + 1 + 3*i
	return lcgPow[j]*x0%lcgMod<<40 ^ lcgPow[j+1]*x0%lcgMod<<20 ^ lcgPow[j+2]*x0%lcgMod
}

// foldSeed reduces a seed the way math/rand does before seeding its LCG.
func foldSeed(seed int64) uint64 {
	seed %= lcgMod
	if seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = 89482311
	}
	return uint64(seed)
}

// source is a rand.Source64 whose output equals rand.NewSource(seed)
// draw for draw. Its first lagTap draws come in closed form from the
// seeded register words, so seeding costs no register fill; draw lagTap
// seeds the standard source, skips the draws already made and hands
// every later draw to it. Seed keeps that standard source, so a source
// re-seeded stream after stream (Reseed) allocates it at most once.
type source struct {
	x0   uint64        // folded seed
	n    int           // draws made so far, counted up to the hand-off
	tail rand.Source64 // the standard source, live once n passes lagTap
}

func newSource(seed int64) *source {
	return &source{x0: foldSeed(seed)}
}

// Seed re-seeds the source, as rand.Source requires.
func (s *source) Seed(seed int64) {
	s.x0, s.n = foldSeed(seed), 0
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *source) Int63() int64 {
	return int64(s.Uint64() & (1<<63 - 1))
}

// Uint64 returns a pseudo-random 64-bit integer.
func (s *source) Uint64() uint64 {
	k := s.n
	if k > lagTap {
		return s.tail.Uint64()
	}
	s.n++
	if k == lagTap {
		if s.tail == nil {
			s.tail = rand.NewSource(int64(s.x0)).(rand.Source64)
		} else {
			s.tail.Seed(int64(s.x0))
		}
		for range lagTap {
			s.tail.Uint64()
		}
		return s.tail.Uint64()
	}
	// Draw k < lagTap sums two words no earlier draw has written.
	feed, tap := lagLen-lagTap-1-k, lagLen-1-k
	return (lcgWord(s.x0, feed) ^ cooked[feed]) + (lcgWord(s.x0, tap) ^ cooked[tap])
}
