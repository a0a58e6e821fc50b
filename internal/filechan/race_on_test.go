//go:build race

package filechan

// raceEnabled reports whether the test binary was built with the race
// detector, which allocates on its own account.
const raceEnabled = true
