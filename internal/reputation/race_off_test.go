//go:build !race

package reputation

// raceEnabled reports whether the race detector instrumented this
// build; its allocations make allocation assertions meaningless.
const raceEnabled = false
