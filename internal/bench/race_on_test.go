//go:build race

package bench

// raceEnabled reports whether the test binary was built with the race
// detector, which instruments allocations and invalidates allocs/op
// comparisons against the committed baseline.
const raceEnabled = true
