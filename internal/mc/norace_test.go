//go:build !race

package mc

// raceEnabled reports a build under the race detector, whose sync.Pool
// drops about a quarter of what it is given.
const raceEnabled = false
