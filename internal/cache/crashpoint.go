package cache

// Crash fault injection. A crashpoint names a precise moment in the
// write-path / journal protocol; when armed (gvfsproxy reads
// GVFS_CRASHPOINT), the process SIGKILLs itself the first time
// execution reaches that point — no deferred functions, no flushes,
// exactly the torn state a power failure or OOM kill would leave. The
// kill-9 e2e tests restart a proxy over the surviving cache directory
// and assert the journal recovery contract at every point.

import (
	"fmt"
	"os"
	"sync/atomic"
	"syscall"
)

// Crashpoints, in write-path order.
const (
	// CrashPreJournalSync dies after the journal record is written but
	// before it is fsynced: the intent may or may not survive, and the
	// client was never acked.
	CrashPreJournalSync = "pre-journal-sync"
	// CrashPostJournalPreBank dies after the journal record is durable
	// but before the bank frame is written: recovery must restore the
	// block from the journal.
	CrashPostJournalPreBank = "post-journal-pre-bank"
	// CrashMidBankWrite tears the bank write in half and dies: the
	// frame checksum cannot match, and recovery must detect the torn
	// copy and restore from the journal.
	CrashMidBankWrite = "mid-bank-write"
	// CrashPreCommit dies after a write-back landed on the server but
	// before its commit record is journaled: replay re-sends the block
	// (idempotent WRITE, same data).
	CrashPreCommit = "pre-commit"
	// CrashPostCommitPreTruncate dies after every commit record is
	// journaled but before the checkpoint bumps the epoch (the name is
	// from when a checkpoint truncated the file): recovery finds no
	// surviving intent and replays nothing.
	CrashPostCommitPreTruncate = "post-commit-pre-truncate"
)

// crashpointNames validates SetCrashpoint input.
var crashpointNames = map[string]bool{
	CrashPreJournalSync:        true,
	CrashPostJournalPreBank:    true,
	CrashMidBankWrite:          true,
	CrashPreCommit:             true,
	CrashPostCommitPreTruncate: true,
}

// armedCrashpoint holds the active crashpoint name ("" = disarmed).
// Process-global: the daemon arms it once at startup, before traffic.
var armedCrashpoint atomic.Value

// SetCrashpoint arms (or, with "", disarms) a crashpoint. Unknown
// names are rejected so a typo in a test harness cannot silently
// disable the fault.
func SetCrashpoint(name string) error {
	if name != "" && !crashpointNames[name] {
		return fmt.Errorf("cache: unknown crashpoint %q", name)
	}
	armedCrashpoint.Store(name)
	return nil
}

// crashArmed reports whether the named crashpoint is active.
func crashArmed(point string) bool {
	v, _ := armedCrashpoint.Load().(string)
	return v == point
}

// crashNow kills the process the way a power failure would: SIGKILL,
// no cleanup, no exit handlers.
func crashNow() {
	syscall.Kill(os.Getpid(), syscall.SIGKILL)
	// SIGKILL cannot be caught; if the kill call itself failed, fall
	// back to an immediate exit so the harness still sees a death.
	os.Exit(137)
}

// maybeCrash dies at the named point if it is armed.
func maybeCrash(point string) {
	if crashArmed(point) {
		crashNow()
	}
}
