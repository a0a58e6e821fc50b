package cache

// Dirty-block journal: the write-ahead intent log that makes the
// write-back cache crash-consistent. Before a dirty Put is
// acknowledged, the block's {fh, block, len, checksum} + data are
// appended to an append-only log in the cache directory and fsynced
// (in batched group-commit rounds by default, so concurrent writers
// share one disk flush). When a write-back later commits on the
// server, a small commit record retires the intent; once every intent
// has committed the journal is truncated to zero (checkpoint).
//
// Replay semantics are "latest data record wins": a sequential scan
// keeps, per block, the newest data record not followed by a commit
// record. Because a re-dirtied block always appends a NEWER data
// record, a lost or unsynced commit record can never resurrect stale
// data — replay either sends the newest acknowledged bytes or re-sends
// bytes the server already has (NFS WRITEs are idempotent).
//
// Record layout (big-endian):
//
//	magic   uint32  0x47564a4c "GVJL"
//	kind    uint32  1 = data, 2 = commit
//	fhLen   uint32
//	block   uint64
//	dataLen uint32  0 for commit records
//	crc     uint32  CRC32C over kind..dataLen + fh + data
//	fh      [fhLen]byte
//	data    [dataLen]byte
//
// A torn tail (partial record, bad magic, bad CRC) ends the scan; the
// tail is truncated at open. That is exactly the pre-sync crash
// window: the record was never acknowledged, so dropping it is safe.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"

	"gvfs/internal/nfs3"
)

// journalFileName is the intent log inside the cache directory.
const journalFileName = "journal.log"

const (
	journalMagic  = 0x47564a4c // "GVJL"
	recData       = 1
	recCommit     = 2
	recHeaderSize = 28
	// maxJournalFH/maxJournalData bound decoded lengths so a corrupt
	// header cannot trigger a huge allocation during the scan. No longer
	// handle is ever appended: every handle was decoded under the same
	// bound.
	maxJournalFH   = nfs3.MaxFHSize
	maxJournalData = 1 << 16
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// crc32c is the frame/journal checksum (CRC32C, as in iSCSI/ext4).
func crc32c(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// SyncMode selects how the journal is made durable on the write path.
type SyncMode int

const (
	// SyncBatch (default) acknowledges a write only after an fsync
	// covering its record, but lets concurrent appenders share one
	// group-commit fsync round — the amortization that keeps the
	// journaled hot path near the unjournaled one.
	SyncBatch SyncMode = iota
	// SyncAlways fsyncs once per append (the unamortized baseline).
	SyncAlways
	// SyncNone never fsyncs on the hot path. Acked writes can be lost
	// in the pre-sync crash window; benchmarking and throwaway caches
	// only.
	SyncNone
)

func (m SyncMode) String() string {
	switch m {
	case SyncAlways:
		return "always"
	case SyncNone:
		return "none"
	}
	return "batch"
}

// ParseSyncMode maps a -journal-sync flag value to a SyncMode.
func ParseSyncMode(name string) (SyncMode, error) {
	switch name {
	case "", "batch":
		return SyncBatch, nil
	case "always":
		return SyncAlways, nil
	case "none":
		return SyncNone, nil
	}
	return 0, fmt.Errorf("unknown journal sync mode %q", name)
}

// JournalStats snapshots the journal's counters.
type JournalStats struct {
	Appends     uint64 // data records written
	AppendBytes uint64 // bytes appended (records, not payload)
	Syncs       uint64 // fsync calls issued
	Commits     uint64 // commit records written
	Checkpoints uint64 // truncations after the live set drained
	Restores    uint64 // frames rebuilt from journal data at recovery
	Live        int    // uncommitted journaled blocks
	SizeBytes   int64  // current journal file size
}

// journalEntry is one decoded record.
type journalEntry struct {
	kind uint32
	id   BlockID
	data []byte
}

var errJournalClosed = fmt.Errorf("cache: journal closed")

// journal is the append-only intent log. File writes and the live-set
// map are serialized by mu; group-commit sync state lives under sm so
// followers can wait for a leader's fsync without blocking appenders.
type journal struct {
	path string
	mode SyncMode

	mu      sync.Mutex
	f       *os.File
	size    int64
	live    map[BlockID]struct{}
	seq     uint64 // records appended this process
	scratch []byte // record-encode buffer, reused under mu

	sm      sync.Mutex
	sc      *sync.Cond
	synced  uint64 // highest seq covered by a completed fsync
	syncing bool   // a group-commit leader is in Sync()

	// recovered describes what openJournal found on disk.
	recovered struct {
		records int
		torn    bool
	}

	appends, appendBytes, syncs, commits, checkpoints, restores atomic.Uint64
}

// encodeRecord serializes one record into a fresh buffer (cold paths:
// compaction, tests).
func encodeRecord(kind uint32, id BlockID, data []byte) []byte {
	return encodeRecordInto(nil, kind, id, data)
}

// encodeRecordInto serializes one record into scratch, growing it if
// needed, and returns the encoded record (len == record size, sharing
// scratch's backing array). Hot appenders pass the journal's
// mu-guarded scratch so steady-state encoding allocates nothing.
func encodeRecordInto(scratch []byte, kind uint32, id BlockID, data []byte) []byte {
	need := recHeaderSize + len(id.FH) + len(data)
	if cap(scratch) < need {
		scratch = make([]byte, need)
	}
	buf := scratch[:need]
	binary.BigEndian.PutUint32(buf[0:], journalMagic)
	binary.BigEndian.PutUint32(buf[4:], kind)
	binary.BigEndian.PutUint32(buf[8:], uint32(len(id.FH)))
	binary.BigEndian.PutUint64(buf[12:], id.Block)
	binary.BigEndian.PutUint32(buf[20:], uint32(len(data)))
	copy(buf[recHeaderSize:], id.FH)
	copy(buf[recHeaderSize+len(id.FH):], data)
	crc := crc32.Update(0, castagnoli, buf[4:24])
	crc = crc32.Update(crc, castagnoli, buf[recHeaderSize:])
	binary.BigEndian.PutUint32(buf[24:], crc)
	return buf
}

// scanJournal decodes records until the first torn or corrupt one,
// returning the entries and the byte length of the valid prefix.
func scanJournal(buf []byte) (entries []journalEntry, validLen int) {
	off := 0
	for off+recHeaderSize <= len(buf) {
		h := buf[off:]
		if binary.BigEndian.Uint32(h[0:]) != journalMagic {
			break
		}
		kind := binary.BigEndian.Uint32(h[4:])
		fhLen := int(binary.BigEndian.Uint32(h[8:]))
		block := binary.BigEndian.Uint64(h[12:])
		dataLen := int(binary.BigEndian.Uint32(h[20:]))
		sum := binary.BigEndian.Uint32(h[24:])
		if (kind != recData && kind != recCommit) ||
			fhLen <= 0 || fhLen > maxJournalFH || dataLen > maxJournalData {
			break
		}
		end := off + recHeaderSize + fhLen + dataLen
		if end > len(buf) {
			break // torn tail
		}
		payload := buf[off+recHeaderSize : end]
		crc := crc32.New(castagnoli)
		crc.Write(h[4:24])
		crc.Write(payload)
		if crc.Sum32() != sum {
			break
		}
		data := make([]byte, dataLen)
		copy(data, payload[fhLen:])
		entries = append(entries, journalEntry{
			kind: kind,
			id:   BlockID{FH: string(payload[:fhLen]), Block: block},
			data: data,
		})
		off = end
	}
	return entries, off
}

// openJournal opens (creating if needed) the journal in dir, scans any
// existing records, truncates a torn tail, and rebuilds the live set.
func openJournal(dir string, mode SyncMode) (*journal, error) {
	path := filepath.Join(dir, journalFileName)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0644)
	if err != nil {
		return nil, err
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		f.Close()
		return nil, err
	}
	entries, validLen := scanJournal(buf)
	if validLen < len(buf) {
		if err := f.Truncate(int64(validLen)); err != nil {
			f.Close()
			return nil, err
		}
	}
	j := &journal{
		path: path,
		mode: mode,
		f:    f,
		size: int64(validLen),
		live: make(map[BlockID]struct{}),
	}
	j.sc = sync.NewCond(&j.sm)
	for _, e := range entries {
		if e.kind == recData {
			j.live[e.id] = struct{}{}
		} else {
			delete(j.live, e.id)
		}
	}
	j.recovered.records = len(entries)
	j.recovered.torn = validLen < len(buf)
	return j, nil
}

// Append journals one dirty-block intent and makes it durable
// according to the sync mode. Only after Append returns may the write
// be acknowledged to the client.
func (j *journal) Append(id BlockID, data []byte) error {
	j.mu.Lock()
	if j.f == nil {
		j.mu.Unlock()
		return errJournalClosed
	}
	rec := encodeRecordInto(j.scratch, recData, id, data)
	j.scratch = rec
	if _, err := j.f.Write(rec); err != nil {
		j.mu.Unlock()
		return err
	}
	j.size += int64(len(rec))
	j.seq++
	seq := j.seq
	j.live[id] = struct{}{}
	j.mu.Unlock()
	j.appends.Add(1)
	j.appendBytes.Add(uint64(len(rec)))
	maybeCrash(CrashPreJournalSync)
	return j.syncTo(seq)
}

// syncTo blocks until an fsync covering record seq has completed. In
// SyncBatch mode one leader fsyncs on behalf of every record appended
// before it starts; followers wait on the condvar and usually find
// their record already covered.
func (j *journal) syncTo(seq uint64) error {
	switch j.mode {
	case SyncNone:
		return nil
	case SyncAlways:
		j.mu.Lock()
		f := j.f
		j.mu.Unlock()
		if f == nil {
			return errJournalClosed
		}
		j.syncs.Add(1)
		return f.Sync()
	}
	for {
		j.sm.Lock()
		for j.synced < seq && j.syncing {
			j.sc.Wait()
		}
		if j.synced >= seq {
			j.sm.Unlock()
			return nil
		}
		j.syncing = true
		j.sm.Unlock()

		// Group-commit window: let every runnable appender land its
		// record before we read the high-water mark, so one fsync
		// covers the whole burst. Without the yield a leader that
		// starts fsyncing immediately degrades to one sync per append
		// whenever the scheduler runs appenders in lock-step (e.g.
		// GOMAXPROCS=1: the fsync syscall holds the only P, so no
		// concurrent append can start until it returns).
		runtime.Gosched()

		j.mu.Lock()
		high := j.seq
		f := j.f
		j.mu.Unlock()
		var err error
		if f == nil {
			err = errJournalClosed
		} else {
			j.syncs.Add(1)
			err = f.Sync()
		}
		j.sm.Lock()
		j.syncing = false
		if err == nil && high > j.synced {
			j.synced = high
		}
		j.sc.Broadcast()
		j.sm.Unlock()
		if err != nil {
			return err
		}
		// err == nil implies synced >= high >= seq; loop exits above.
	}
}

// Commit retires one intent after its write-back landed on the server.
// Commit records are not fsynced: losing one only causes an idempotent
// re-send at recovery, never stale data (latest data record wins).
// When the live set drains the journal is checkpointed.
func (j *journal) Commit(id BlockID) error {
	maybeCrash(CrashPreCommit)
	j.mu.Lock()
	if j.f == nil {
		j.mu.Unlock()
		return errJournalClosed
	}
	if _, ok := j.live[id]; !ok {
		j.mu.Unlock()
		return nil
	}
	rec := encodeRecordInto(j.scratch, recCommit, id, nil)
	j.scratch = rec
	if _, err := j.f.Write(rec); err != nil {
		j.mu.Unlock()
		return err
	}
	j.size += int64(len(rec))
	j.seq++
	delete(j.live, id)
	empty := len(j.live) == 0
	j.mu.Unlock()
	j.commits.Add(1)
	if empty {
		return j.checkpoint()
	}
	return nil
}

// checkpoint truncates the journal once every intent has committed.
func (j *journal) checkpoint() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil || len(j.live) != 0 || j.size == 0 {
		return nil
	}
	maybeCrash(CrashPostCommitPreTruncate)
	if err := j.f.Truncate(0); err != nil {
		return err
	}
	if err := j.f.Sync(); err != nil {
		return err
	}
	j.size = 0
	j.checkpoints.Add(1)
	return nil
}

// Latest returns the newest uncommitted journaled data for id, used to
// rescue a dirty frame whose bank copy failed its checksum.
func (j *journal) Latest(id BlockID) ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil || j.size == 0 {
		return nil, false
	}
	buf := make([]byte, j.size)
	if _, err := j.f.ReadAt(buf, 0); err != nil {
		return nil, false
	}
	entries, _ := scanJournal(buf)
	var out []byte
	var found bool
	for _, e := range entries {
		if e.id != id {
			continue
		}
		if e.kind == recData {
			out, found = e.data, true
		} else {
			out, found = nil, false
		}
	}
	return out, found
}

// surviving returns, in first-appearance order, the latest data record
// of every block whose intent has not committed — the dirty set a
// recovery must rebuild and replay.
func (j *journal) surviving() ([]journalEntry, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil, errJournalClosed
	}
	if j.size == 0 {
		return nil, nil
	}
	buf := make([]byte, j.size)
	if _, err := j.f.ReadAt(buf, 0); err != nil {
		return nil, err
	}
	entries, _ := scanJournal(buf)
	latest := make(map[BlockID][]byte)
	for _, e := range entries {
		if e.kind == recData {
			latest[e.id] = e.data
		} else {
			delete(latest, e.id)
		}
	}
	var out []journalEntry
	seen := make(map[BlockID]bool)
	for _, e := range entries {
		if e.kind != recData || seen[e.id] {
			continue
		}
		if data, ok := latest[e.id]; ok {
			seen[e.id] = true
			out = append(out, journalEntry{kind: recData, id: e.id, data: data})
		}
	}
	return out, nil
}

// compact atomically rewrites the journal to exactly the given entries
// (temp file + fsync + rename + directory fsync). Recovery uses it to
// drop committed and superseded records, making a second recovery pass
// over the same directory idempotent.
func (j *journal) compact(entries []journalEntry) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return errJournalClosed
	}
	tmpPath := j.path + ".tmp"
	tmp, err := os.OpenFile(tmpPath, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0644)
	if err != nil {
		return err
	}
	var size int64
	for _, e := range entries {
		rec := encodeRecord(recData, e.id, e.data)
		if _, err := tmp.Write(rec); err != nil {
			tmp.Close()
			os.Remove(tmpPath)
			return err
		}
		size += int64(len(rec))
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpPath)
		return err
	}
	if err := os.Rename(tmpPath, j.path); err != nil {
		os.Remove(tmpPath)
		return err
	}
	if err := syncDir(filepath.Dir(j.path)); err != nil {
		return err
	}
	f, err := os.OpenFile(j.path, os.O_RDWR|os.O_APPEND, 0644)
	if err != nil {
		return err
	}
	j.f.Close()
	j.f = f
	j.size = size
	j.live = make(map[BlockID]struct{}, len(entries))
	for _, e := range entries {
		j.live[e.id] = struct{}{}
	}
	return nil
}

// Close releases the journal file WITHOUT truncating it: surviving
// intent must outlive the process so the next start can recover.
func (j *journal) Close() error {
	j.mu.Lock()
	var err error
	if j.f != nil {
		err = j.f.Close()
		j.f = nil
	}
	j.mu.Unlock()
	// Release any group-commit waiters; they will observe the closed
	// file and fail their appends.
	j.sm.Lock()
	j.syncing = false
	j.sc.Broadcast()
	j.sm.Unlock()
	return err
}

// statsSnapshot reads the counters.
func (j *journal) statsSnapshot() JournalStats {
	j.mu.Lock()
	live := len(j.live)
	size := j.size
	j.mu.Unlock()
	return JournalStats{
		Appends:     j.appends.Load(),
		AppendBytes: j.appendBytes.Load(),
		Syncs:       j.syncs.Load(),
		Commits:     j.commits.Load(),
		Checkpoints: j.checkpoints.Load(),
		Restores:    j.restores.Load(),
		Live:        live,
		SizeBytes:   size,
	}
}

// syncDir fsyncs a directory so a rename inside it survives power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
