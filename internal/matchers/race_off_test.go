//go:build !race

package matchers

// raceEnabled reports whether the race detector is active. The
// allocation guard skips under -race: the detector makes sync.Pool drop
// puts at random, so pooled paths show spurious allocations there.
const raceEnabled = false
