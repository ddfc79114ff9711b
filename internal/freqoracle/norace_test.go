//go:build !race

package freqoracle

// raceEnabled reports whether the race detector is on; its instrumentation
// allocates, so allocation-count assertions are skipped under -race.
const raceEnabled = false
