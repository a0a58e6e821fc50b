//go:build race

package nfs3_test

// raceEnabled reports whether the test binary was built with the race
// detector, which allocates on its own account.
const raceEnabled = true
