//go:build goexperiment.synctest

package bubble

import (
	"testing"
	"testing/synctest"
)

// Virtual reports whether Run runs its body in virtual time.
const Virtual = true

// Run runs f as the subtest "virtual" of t inside a synctest bubble, so
// what f registers with t.Cleanup (stacktest's Chain.Close) runs in the
// bubble too. Every goroutine f starts must have ended when it returns:
// a bubble whose goroutines all block for good fails the test.
func Run(t *testing.T, f func(*testing.T)) {
	t.Helper()
	synctest.Run(func() { t.Run("virtual", f) })
}
