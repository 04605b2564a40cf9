//go:build race

package mechanism

// raceEnabled reports whether the race detector instrumented this
// build; its allocations make AllocsPerRun assertions meaningless.
const raceEnabled = true
