//go:build !goexperiment.synctest

package bubble

import "testing"

// Virtual reports whether Run runs its body in virtual time.
const Virtual = false

// Run calls f(t): without the experiment, time is real.
func Run(t *testing.T, f func(*testing.T)) {
	t.Helper()
	f(t)
}
