package rng

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// drawOps are the rand.Rand methods the repository draws with. Intn and
// Int63n take bounds that reject about half their raw draws, so the
// number of draws per call varies and the hand-off at draw lagTap lands
// inside calls as well as between them.
var drawOps = []struct {
	name string
	draw func(r *rand.Rand) []uint64
}{
	{"Float64", func(r *rand.Rand) []uint64 { return []uint64{math.Float64bits(r.Float64())} }},
	{"ExpFloat64", func(r *rand.Rand) []uint64 { return []uint64{math.Float64bits(r.ExpFloat64())} }},
	{"NormFloat64", func(r *rand.Rand) []uint64 { return []uint64{math.Float64bits(r.NormFloat64())} }},
	{"Int63", func(r *rand.Rand) []uint64 { return []uint64{uint64(r.Int63())} }},
	{"Uint64", func(r *rand.Rand) []uint64 { return []uint64{r.Uint64()} }},
	{"Intn", func(r *rand.Rand) []uint64 { return []uint64{uint64(r.Intn(1<<30 + 1))} }},
	{"Int63n", func(r *rand.Rand) []uint64 { return []uint64{uint64(r.Int63n(1<<62 + 1))} }},
	{"Perm", func(r *rand.Rand) []uint64 {
		var out []uint64
		for _, v := range r.Perm(9) {
			out = append(out, uint64(v))
		}
		return out
	}},
	{"Shuffle", func(r *rand.Rand) []uint64 {
		out := []uint64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
		r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}},
}

// sameStream makes calls interleaved draws from got and want, choosing
// each method from a SplitMix64 sequence keyed on key, and re-seeds both
// with reseed before call reseedAt (no re-seed when reseedAt < 0). It
// reports the first call at which the two disagree.
func sameStream(t *testing.T, label string, got, want *rand.Rand, key uint64, calls, reseedAt int, reseed int64) {
	t.Helper()
	for i := 0; i < calls; i++ {
		if i == reseedAt {
			got.Seed(reseed)
			want.Seed(reseed)
		}
		op := drawOps[SplitMix64(key+uint64(i))%uint64(len(drawOps))]
		if g, w := op.draw(got), op.draw(want); !slices.Equal(g, w) {
			t.Fatalf("%s: call %d (%s, re-seed to %d before call %d): got %v, want %v",
				label, i, op.name, reseed, reseedAt, g, w)
		}
	}
}

// edgeSeeds are the seeds at the edges of math/rand's fold: zero (which
// math/rand replaces by 89482311), the signs, multiples of 2^31-1 (which
// fold to zero), their neighbors and the int64 extremes.
var edgeSeeds = []int64{
	0, 1, -1, 2, -2, 89482311,
	lcgMod, -lcgMod, 2 * lcgMod, -3 * lcgMod, lcgMod * lcgMod,
	lcgMod - 1, lcgMod + 1, -lcgMod + 1, -lcgMod - 1,
	1 << 31, -1 << 31, 1<<62 + 7,
	math.MaxInt64, math.MinInt64, math.MinInt64 + 1, math.MaxInt64 - 1,
	math.MaxInt64 / lcgMod * lcgMod, math.MinInt64 / lcgMod * lcgMod,
}

// TestRunMatchesMathRand holds Run's contract: its stream is
// rand.New(rand.NewSource(SubSeed(seed, run))) draw for draw, through
// every method the repository calls, across the closed-form prefix, the
// hand-off at draw lagTap and Seed. Edge seeds are fed to the source
// directly too, since SubSeed would mix them away from the fold.
func TestRunMatchesMathRand(t *testing.T) {
	const calls = 1200
	streams := 0
	check := func(got, want *rand.Rand, key uint64, label string, args ...any) {
		reseedAt := int(SplitMix64(key) % 600)
		reseed := edgeSeeds[SplitMix64(key+1)%uint64(len(edgeSeeds))]
		sameStream(t, fmt.Sprintf(label, args...), got, want, key, calls, reseedAt, reseed)
		streams++
	}
	for i, seed := range edgeSeeds {
		check(rand.New(newSource(seed)), rand.New(rand.NewSource(seed)), uint64(i), "source seed %d", seed)
		for _, run := range []int{0, 1, -1, 7, -8} {
			check(Run(seed, run), rand.New(rand.NewSource(SubSeed(seed, run))), uint64(i*16+run), "Run(%d, %d)", seed, run)
		}
	}
	for i := 0; streams < 320; i++ {
		seed, run := int64(SplitMix64(uint64(i))), int(SplitMix64(^uint64(i))%1000)
		check(Run(seed, run), rand.New(rand.NewSource(SubSeed(seed, run))), uint64(i), "Run(%d, %d)", seed, run)
	}
	t.Logf("%d streams x %d calls match math/rand", streams, calls)
}

// FuzzRunMatchesMathRand checks Run and the bare source against
// math/rand for arbitrary seeds, runs and stream lengths.
func FuzzRunMatchesMathRand(f *testing.F) {
	for i, seed := range edgeSeeds {
		f.Add(seed, i-8, 300+40*i)
	}
	f.Fuzz(func(t *testing.T, seed int64, run, n int) {
		calls := int(uint(n) % 1500)
		key := uint64(seed) ^ uint64(run)
		sameStream(t, "Run", Run(seed, run), rand.New(rand.NewSource(SubSeed(seed, run))), key, calls, -1, 0)
		sameStream(t, "source", rand.New(newSource(seed)), rand.New(rand.NewSource(seed)), key, calls, calls/2, int64(key))
	})
}

// Per-stream cost budget for Run plus two draws: the Rand and the
// source struct, with no register fill.
const (
	runAllocBudget = 2
	runByteBudget  = 256
)

var sink float64

// seedAndDraw is one stream as a Monte Carlo trial uses it: seeded,
// then drawn from a couple of times.
func seedAndDraw(run int) {
	r := Run(9, run)
	sink += r.Float64() + r.ExpFloat64()
}

func TestRunAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement")
	}
	run := 0
	allocs := testing.AllocsPerRun(1000, func() {
		seedAndDraw(run)
		run++
	})
	const n = 20000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		seedAndDraw(i)
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("per stream: %.1f allocs (budget %d), %.1f B (budget %d)", allocs, runAllocBudget, bytes, runByteBudget)
	if allocs > runAllocBudget {
		t.Errorf("Run plus 2 draws allocates %.1f times, budget %d", allocs, runAllocBudget)
	}
	if bytes > runByteBudget {
		t.Errorf("Run plus 2 draws allocates %.1f B, budget %d", bytes, runByteBudget)
	}
}

// BenchmarkRun is the cost of one stream as a Monte Carlo trial uses it:
// seeding plus two draws.
func BenchmarkRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		seedAndDraw(i)
	}
}

// TestReseedMatchesRun holds Reseed's contract: a stream re-seeded in
// place draws exactly what Run returns for the same (seed, run), whether
// it was re-seeded before the hand-off at draw lagTap or after it (when
// its standard source is live and is re-seeded rather than replaced), and
// on across the hand-off of the re-seeded stream.
func TestReseedMatchesRun(t *testing.T) {
	const calls = 900 // past draw lagTap whatever the methods drawn
	var r *rand.Rand
	for i := 0; i < 64; i++ {
		// Leave the stream short of the hand-off on even rounds and
		// past it on odd ones (the first round starts from nil).
		for n := 0; r != nil && n < (i%2)*lagLen+i; n++ {
			r.Uint64()
		}
		seed, run := int64(SplitMix64(uint64(i))), int(SplitMix64(^uint64(i))%1000)-500
		if i < len(edgeSeeds) {
			seed = edgeSeeds[i]
		}
		r = Reseed(r, seed, run)
		sameStream(t, fmt.Sprintf("Reseed(%d, %d) after round %d", seed, run, i),
			r, Run(seed, run), uint64(i), calls, -1, 0)
		r = Reseed(r, seed, run)
		sameStream(t, fmt.Sprintf("Reseed(%d, %d) against math/rand", seed, run),
			r, rand.New(rand.NewSource(SubSeed(seed, run))), uint64(i)+1, calls, -1, 0)
	}
}

// TestReseedAllocBudget: re-seeding a stream and drawing from it
// allocates nothing, which is what lets a Monte Carlo trial keep one
// stream for all of its processes.
func TestReseedAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement")
	}
	r := Run(9, 0)
	run := 0
	allocs := testing.AllocsPerRun(1000, func() {
		r = Reseed(r, 9, run)
		sink += r.Float64() + r.ExpFloat64()
		run++
	})
	if allocs != 0 {
		t.Errorf("Reseed plus 2 draws allocates %.1f times, want 0", allocs)
	}
}
