package main

import (
	"sort"
	"syscall"
	"time"
)

// On a shared virtual machine the effective CPU speed drifts in phases of
// a few seconds: on a 2-vCPU KVM guest of a Xeon host, compute-bound code
// ran up to 1.5 times and memory-bound code up to 1.7 times slower in a
// slow phase. CPU time does not hide this, since neighbours compete for
// caches and execution units, not only for the CPU. Every request is
// therefore followed by a fixed
// calibration loop, and the request's CPU time is scaled by the loop's
// time around it: times are reported in reference milliseconds, as they
// would read on a machine where the loop takes exactly calibrationRef.
// The loop has a memory-bound half (pointer chasing, hashing, sorting)
// and a compute-bound half with independent dependency chains, because
// the phases speed the two kinds of code up by different amounts and the
// workloads mix both. It allocates nothing, so the program's heap cannot
// slow it through the garbage collector.
const calibrationRef = time.Millisecond

// calibrationWindow calibration loops on each side of a request give its
// local speed, as their median.
const calibrationWindow = 8

// normalPhase is how much slower than the run's fast end (the 10th
// percentile of local calibration times) a request's surroundings may be
// for it to count as measured in the host's normal phase. Calibration
// corrects most of a slow phase but not all of it, since a phase slows
// each kind of code by a different factor.
const normalPhase = 1.15

var (
	calNodes = make([]calNode, 4000)
	calMap   = make(map[uint64]float64, 1024)
	calFloat = make([]float64, 6000)
	calSink  float64
)

type calNode struct {
	next *calNode
	v    float64
}

// calibrate runs the calibration loop and returns its CPU time.
func calibrate() time.Duration {
	c0 := cpuTime()
	x := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	var head *calNode
	for i := range calNodes {
		n := &calNodes[uint64(i)*2654435761%uint64(len(calNodes))]
		n.next, n.v = head, float64(next()%1000)
		head = n
	}
	clear(calMap)
	for n := head; n != nil; n = n.next {
		calMap[next()%1024] += n.v
	}
	for i := range calFloat {
		calFloat[i] = float64(next()%100000) * 1.5
	}
	sort.Float64s(calFloat)

	a, b, c, d := x, x>>1, x>>2, x>>3
	e, f, g, h := uint64(5), uint64(6), uint64(7), uint64(8)
	for i := 0; i < 60000; i++ {
		a = a*6364136223846793005 + 1442695040888963407
		b = b*6364136223846793005 + 1
		c ^= c<<13 ^ a
		d ^= d>>7 ^ b
		e += a >> 3
		f += b >> 5
		g ^= e + c
		h ^= f + d
	}
	calSink = calFloat[len(calFloat)/2] + calMap[1] + float64((g^h)&1)
	return cpuTime() - c0
}

// calibrated scales each cost by calibrationRef over the median of the
// calibration times within calibrationWindow of it. It returns the scaled
// costs, and those of them measured in the host's normal phase.
func calibrated(costs, cals []float64) (all, normal []float64) {
	local := make([]float64, len(costs))
	win := make([]float64, 0, 2*calibrationWindow+1)
	for i := range costs {
		lo, hi := max(0, i-calibrationWindow), min(len(cals), i+calibrationWindow+1)
		win = append(win[:0], cals[lo:hi]...)
		local[i] = quantile(win, 0.5)
	}
	ref := ms(calibrationRef)
	all = make([]float64, len(costs))
	for i, c := range costs {
		all[i] = c * ref / local[i]
	}
	limit := normalPhase * quantile(append([]float64(nil), local...), 0.1)
	for i, l := range local {
		if l <= limit {
			normal = append(normal, all[i])
		}
	}
	return all, normal
}

// cpuTime returns the CPU time the process has used, all threads, user
// and system. Unlike wall time it leaves out the time other tenants held
// the CPU.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
