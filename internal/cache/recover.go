package cache

// Crash recovery: rebuilding the dirty set from the journal after a
// proxy died with unpropagated write-back state. RecoverJournal runs
// on a freshly created Cache over a surviving cache directory, before
// the proxy serves traffic:
//
//  1. The journal scan (done at openJournal) yields the surviving
//     intents — per block, the latest data record without a commit.
//  2. For each intent, if the (index-snapshot-loaded) frame's bank
//     bytes match the journaled data, the frame is simply re-marked
//     dirty; a missing, stale or torn frame is restored from the
//     journal's copy.
//  3. The journal is compacted to exactly the surviving set, so
//     recovering twice — or crashing mid-recovery and recovering
//     again — rebuilds the same dirty state (replay idempotence; the
//     server-visible result is identical either way because NFS
//     WRITEs of the same bytes are idempotent).
//
// The caller (the proxy layer) then replays the dirty set through the
// ordinary write-back path.

import (
	"fmt"

	"gvfs/internal/nfs3"
)

// RecoveryReport summarizes one RecoverJournal pass.
type RecoveryReport struct {
	// Records is the number of valid journal records found on disk.
	Records int
	// TornTail reports that a torn record tail was truncated — the
	// normal signature of a crash inside the pre-sync window.
	TornTail bool
	// Dirty is the number of surviving uncommitted blocks re-marked
	// dirty and awaiting replay.
	Dirty int
	// Restored counts the subset of Dirty whose frame bytes had to be
	// rebuilt from the journal (missing, stale or torn bank copy).
	Restored int
	// Bytes is the dirty payload now awaiting replay.
	Bytes int
}

// JournalEnabled reports whether this cache runs a dirty-block journal.
func (c *Cache) JournalEnabled() bool { return c.journal != nil }

// JournalStats snapshots the journal's counters (zero if disabled).
func (c *Cache) JournalStats() JournalStats {
	if c.journal == nil {
		return JournalStats{}
	}
	return c.journal.statsSnapshot()
}

// RecoverJournal rebuilds the dirty set a crashed predecessor left in
// this cache directory. Call it after SetWriteBackFunc is installed
// (restoring blocks may evict) and before serving traffic; follow it
// with WriteBackAll to replay the recovered state to the server. It is
// a no-op without a journal and idempotent when repeated.
func (c *Cache) RecoverJournal() (RecoveryReport, error) {
	var rep RecoveryReport
	if c.journal == nil {
		return rep, nil
	}
	rep.Records = c.journal.recovered.records
	rep.TornTail = c.journal.recovered.torn
	entries, err := c.journal.surviving()
	if err != nil {
		return rep, err
	}
	for _, e := range entries {
		rep.Dirty++
		rep.Bytes += len(e.data)
		if c.rearmFrame(e) {
			continue
		}
		if err := c.put(nfs3.FH(e.id.FH), e.id.Block, e.data, putDirty, false); err != nil {
			return rep, fmt.Errorf("cache: journal restore (fh %x block %d): %w", e.id.FH, e.id.Block, err)
		}
		c.journal.restores.Add(1)
		rep.Restored++
	}
	// Compact to exactly the surviving intent set: committed and
	// superseded records are dropped, and the live set now mirrors the
	// dirty frames one-to-one.
	if err := c.journal.compact(entries); err != nil {
		return rep, err
	}
	if rep.Records > 0 || rep.TornTail {
		c.log.Info("journal recovery",
			"records", rep.Records,
			"dirty", rep.Dirty,
			"restored", rep.Restored,
			"bytes", rep.Bytes,
			"torn_tail", rep.TornTail)
	}
	return rep, nil
}

// rearmFrame re-marks an existing frame dirty if its bank bytes match
// the journaled intent: its size and its sum, which the journal scan
// checked against the journaled data. It returns false when the frame
// is absent or its content disagrees with the journal (stale snapshot
// or torn write) — those are dropped for the caller to restore.
func (c *Cache) rearmFrame(e journalEntry) bool {
	id := e.id
	s := c.stripeFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	idx, ok := s.index[id]
	if !ok {
		return false
	}
	fr := &c.frames[idx]
	if !fr.valid || fr.id != id {
		return false
	}
	// Recovery runs single-threaded before traffic, so reading the
	// bank under the stripe lock is fine here.
	stored, err := c.readFrameInto(idx, fr.size, nil)
	if err != nil || int(fr.size) != len(e.data) || crc32c(stored) != e.sum {
		delete(s.index, id)
		c.resetFrame(fr)
		return false
	}
	fr.dirty = true
	fr.crc = e.sum
	return true
}
