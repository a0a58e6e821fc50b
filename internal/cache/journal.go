package cache

// Dirty-block journal: the write-ahead intent log that makes the
// write-back cache crash-consistent. Before a dirty Put is
// acknowledged, the block's {fh, block, len, checksum} + data are
// copied into journal.log, mapped shared like the banks, and fsynced
// (in batched group-commit rounds by default, so concurrent writers
// share one disk flush). When a write-back later commits on the
// server, a small commit record retires the intent; once every intent
// has committed, a checkpoint bumps the header's epoch and the next
// record goes to the first slot again: the file keeps its size, and
// the next round reuses its pages.
//
// Replay semantics are "latest data record wins": a sequential scan
// keeps, per block, the newest data record not followed by a commit
// record. Because a re-dirtied block always appends a NEWER data
// record, a lost or unsynced commit record can never resurrect stale
// data — replay either sends the newest acknowledged bytes or re-sends
// bytes the server already has (NFS WRITEs are idempotent).
//
// File header, then records (big-endian):
//
//	magic   uint32  0x47564a32 "GVJ2"
//	epoch   uint64  random when the file is made, +1 per checkpoint
//	crc     uint32  CRC32C over magic and epoch
//
//	sum     uint32  CRC32C of data: the frame checksum put computed
//	kind    uint32  1 = data, 2 = commit; 0 ends the log
//	fhLen   uint32
//	block   uint64
//	dataLen uint32  0 for commit records
//	crc     uint32  CRC32C over the epoch, then sum..dataLen and fh
//	fh      [fhLen]byte
//	data    [dataLen]byte
//
// A record is valid only in its epoch, so what a checkpoint leaves
// behind (guest data among it) ends the scan like a torn tail; the
// epoch starts at random, so no guest can forge a record for a later
// one. At open the file is cut where the scan stopped: a record of this
// epoch beyond a hole a crash left was never acknowledged, and it can
// never become readable behind a later record. A file of the unmapped
// format (records that begin "GVJL") is read by its rules and
// rewritten in this one.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"syscall"

	"gvfs/internal/nfs3"
)

// journalFileName is the intent log inside the cache directory.
const journalFileName = "journal.log"

const (
	journalMagic   = 0x47564a32 // "GVJ2", the file header's first word
	oldRecordMagic = 0x47564a4c // "GVJL", every record's first word in the unmapped format
	fileHeaderSize = 16
	recData        = 1
	recCommit      = 2
	recHeaderSize  = 28
	// maxJournalFH/maxJournalData bound decoded lengths so a corrupt
	// header cannot trigger a huge allocation during the scan. No longer
	// handle is ever appended: every handle was decoded under the same
	// bound.
	maxJournalFH   = nfs3.MaxFHSize
	maxJournalData = 1 << 16
	// journalInitialSize is the first mapping; it doubles as records
	// need room.
	journalInitialSize = 1 << 20
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
	Checkpoints uint64 // epoch bumps after the live set drained
	Restores    uint64 // frames rebuilt from journal data at recovery
	Live        int    // uncommitted journaled blocks
	SizeBytes   int64  // bytes of records since the last checkpoint
}

// journalEntry is one decoded record. A scan's entries share the
// scanned buffer's bytes.
type journalEntry struct {
	kind uint32
	id   BlockID
	data []byte
	sum  uint32 // CRC32C of data
}

var errJournalClosed = fmt.Errorf("cache: journal closed")

// journal is the intent log. The mapping, its file and the live-set map
// are serialized by mu; group-commit sync state lives under sm so
// followers can wait for a leader's fsync without blocking appenders.
type journal struct {
	path string
	mode SyncMode

	mu    sync.Mutex
	f     *os.File
	m     []byte // the file, mapped: header, then records up to head
	head  int    // where the next record goes
	epoch uint64
	seed  uint32 // CRC32C of the epoch, where every record's CRC starts
	live  map[BlockID]struct{}
	seq   uint64                             // records appended this process
	hdr   [recHeaderSize + maxJournalFH]byte // record-header encode buffer, under mu

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

// epochSeed is the CRC32C of an epoch, which every record's CRC in that
// epoch continues.
func epochSeed(epoch uint64) uint32 {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], epoch)
	return crc32.Update(0, castagnoli, b[:])
}

// encodeFileHeader writes the file header of an epoch into dst.
func encodeFileHeader(dst []byte, epoch uint64) {
	binary.BigEndian.PutUint32(dst[0:], journalMagic)
	binary.BigEndian.PutUint64(dst[4:], epoch)
	binary.BigEndian.PutUint32(dst[12:], crc32c(dst[:12]))
}

// encodeHeader writes a record's header and handle into dst, which has
// room for them, and returns them; the record's data follows them as it
// is, summed by sum.
func encodeHeader(dst []byte, seed, kind uint32, id BlockID, dataLen int, sum uint32) []byte {
	h := dst[:recHeaderSize+len(id.FH)]
	binary.BigEndian.PutUint32(h[0:], sum)
	binary.BigEndian.PutUint32(h[4:], kind)
	binary.BigEndian.PutUint32(h[8:], uint32(len(id.FH)))
	binary.BigEndian.PutUint64(h[12:], id.Block)
	binary.BigEndian.PutUint32(h[20:], uint32(dataLen))
	copy(h[recHeaderSize:], id.FH)
	crc := crc32.Update(seed, castagnoli, h[:24])
	binary.BigEndian.PutUint32(h[24:], crc32.Update(crc, castagnoli, h[recHeaderSize:]))
	return h
}

// encodeRecord serializes one record into a fresh buffer (cold paths:
// compaction, tests).
func encodeRecord(seed, kind uint32, id BlockID, data []byte) []byte {
	h := encodeHeader(make([]byte, recHeaderSize+len(id.FH)), seed, kind, id, len(data), crc32c(data))
	return append(h, data...)
}

// decodeRecord decodes the record at the start of b, of the epoch whose
// seed is given or, if old, of the unmapped format. It returns the
// record's length, 0 if b does not begin with a valid record.
func decodeRecord(b []byte, seed uint32, old bool) (journalEntry, int) {
	if len(b) < recHeaderSize || old && binary.BigEndian.Uint32(b) != oldRecordMagic {
		return journalEntry{}, 0
	}
	kind := binary.BigEndian.Uint32(b[4:])
	fhLen := int(binary.BigEndian.Uint32(b[8:]))
	dataLen := int(binary.BigEndian.Uint32(b[20:]))
	if (kind != recData && kind != recCommit) || fhLen <= 0 || fhLen > maxJournalFH ||
		dataLen > maxJournalData || recHeaderSize+fhLen+dataLen > len(b) {
		return journalEntry{}, 0
	}
	n := recHeaderSize + fhLen + dataLen
	fh, data := b[recHeaderSize:recHeaderSize+fhLen], b[recHeaderSize+fhLen:n]
	var crc uint32
	if old {
		crc = crc32.Update(crc32.Update(crc32.Update(0, castagnoli, b[4:24]), castagnoli, fh), castagnoli, data)
	} else {
		crc = crc32.Update(crc32.Update(seed, castagnoli, b[:24]), castagnoli, fh)
	}
	sum := crc32c(data)
	if crc != binary.BigEndian.Uint32(b[24:]) || !old && sum != binary.BigEndian.Uint32(b) {
		return journalEntry{}, 0
	}
	return journalEntry{kind: kind, id: BlockID{FH: string(fh), Block: binary.BigEndian.Uint64(b[12:])}, data: data, sum: sum}, n
}

// journalScan is what scanJournal found in a journal file.
type journalScan struct {
	old     bool   // the file is of the unmapped format
	epoch   uint64 // the header's, unless old
	entries []journalEntry
	end     int  // length of the valid prefix, header included; 0 without a valid header
	clean   bool // the scan ended at the end of the file or of the log, not at a torn or stale record
}

// scanJournal decodes a journal file: its header, then records until the
// first torn, corrupt or stale one.
func scanJournal(buf []byte) journalScan {
	var s journalScan
	var seed uint32
	switch {
	case len(buf) >= 4 && binary.BigEndian.Uint32(buf) == oldRecordMagic:
		s.old = true
	case len(buf) >= fileHeaderSize && binary.BigEndian.Uint32(buf) == journalMagic &&
		crc32c(buf[:12]) == binary.BigEndian.Uint32(buf[12:]):
		s.epoch = binary.BigEndian.Uint64(buf[4:])
		seed, s.end = epochSeed(s.epoch), fileHeaderSize
	default:
		s.clean = len(buf) == 0
		return s
	}
	for {
		e, n := decodeRecord(buf[s.end:], seed, s.old)
		if n == 0 {
			break
		}
		s.entries = append(s.entries, e)
		s.end += n
	}
	rest := buf[s.end:]
	s.clean = len(rest) == 0 || !s.old && len(rest) >= 8 && binary.BigEndian.Uint32(rest[4:]) == 0
	return s
}

// liveEntries returns, in first-appearance order, the latest data record
// of every block whose intent has not committed — the dirty set a
// recovery must rebuild and replay.
func liveEntries(entries []journalEntry) []journalEntry {
	latest := make(map[BlockID]int)
	for i, e := range entries {
		if e.kind == recData {
			latest[e.id] = i
		} else {
			delete(latest, e.id)
		}
	}
	var out []journalEntry
	for _, e := range entries {
		if i, ok := latest[e.id]; ok && e.kind == recData {
			delete(latest, e.id)
			out = append(out, entries[i])
		}
	}
	return out
}

// openJournal opens (creating if needed) the journal in dir, scans any
// existing records, cuts the file after the valid prefix, and rebuilds
// the live set. A file of the unmapped format is rewritten.
func openJournal(dir string, mode SyncMode) (*journal, error) {
	j := &journal{path: filepath.Join(dir, journalFileName), mode: mode, live: make(map[BlockID]struct{})}
	j.sc = sync.NewCond(&j.sm)
	if err := j.load(); err != nil {
		j.Close()
		return nil, err
	}
	return j, nil
}

// load opens, maps and scans the journal file, then cuts it after the
// valid prefix and maps it again at a size with room for records.
func (j *journal) load() error {
	f, err := os.OpenFile(j.path, os.O_RDWR|os.O_CREATE, 0644)
	if err != nil {
		return err
	}
	j.f = f
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	s := journalScan{clean: true}
	if size := int(fi.Size()); size > 0 {
		if err := j.remap(size); err != nil {
			return err
		}
		if s, err = scanInPlace(j.m); err != nil {
			return err
		}
	}
	j.recovered.records, j.recovered.torn = len(s.entries), !s.clean
	if s.old {
		live, err := copyEntries(liveEntries(s.entries))
		if err != nil {
			return err
		}
		j.setEpoch(rand.Uint64())
		return j.compact(live)
	}
	for _, e := range s.entries {
		if e.kind == recData {
			j.live[e.id] = struct{}{}
		} else {
			delete(j.live, e.id)
		}
	}
	if err := f.Truncate(int64(s.end)); err != nil {
		return err
	}
	if err := j.attach(max(s.end, fileHeaderSize)); err != nil {
		return err
	}
	if s.end == 0 {
		// A new file, or a header that fails its check: start an epoch.
		if err := j.writeEpoch(rand.Uint64()); err != nil {
			return err
		}
	} else {
		j.setEpoch(s.epoch)
	}
	return j.f.Sync()
}

// setEpoch makes epoch the current one.
func (j *journal) setEpoch(epoch uint64) { j.epoch, j.seed = epoch, epochSeed(epoch) }

// writeEpoch writes epoch into the mapped file header and makes it the
// current one.
func (j *journal) writeEpoch(epoch uint64) error {
	var h [fileHeaderSize]byte
	encodeFileHeader(h[:], epoch)
	if err := bankCopy(j.m, h[:]); err != nil {
		return err
	}
	j.setEpoch(epoch)
	return nil
}

// attach maps the journal file, whose log ends at end, with room for
// records after it, and marks the end of the log there.
func (j *journal) attach(end int) error {
	size := journalInitialSize
	for size < end+recHeaderSize {
		size *= 2
	}
	if err := j.remap(size); err != nil {
		return err
	}
	j.head = end
	return bankCopy(j.m[end+4:end+8], noRecord[:])
}

// noRecord is a kind word that ends the log.
var noRecord [4]byte

// remap allocates size bytes of the file and maps them, replacing the
// old mapping only once the new one exists.
func (j *journal) remap(size int) error {
	if err := allocate(j.f, int64(size)); err != nil {
		return &os.PathError{Op: "allocate", Path: j.path, Err: err}
	}
	m, err := syscall.Mmap(int(j.f.Fd()), 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return &os.PathError{Op: "mmap", Path: j.path, Err: err}
	}
	if j.m != nil {
		syscall.Munmap(j.m)
	}
	j.m = m
	return nil
}

// scanInPlace scans buf, a part of the mapping, in place; a fault in the
// mapping is an I/O error.
func scanInPlace(buf []byte) (s journalScan, err error) {
	defer catchFault(&err, debug.SetPanicOnFault(true))
	return scanJournal(buf), nil
}

// copyEntries copies the entries' data out of the mapping.
func copyEntries(entries []journalEntry) ([]journalEntry, error) {
	for i := range entries {
		data := make([]byte, len(entries[i].data))
		if err := bankCopy(data, entries[i].data); err != nil {
			return nil, err
		}
		entries[i].data = data
	}
	return entries, nil
}

// putRecord copies one record into the mapping at the head, growing the file
// first if it does not fit, and moves the head past it. A fault in the
// copy is an I/O error: the head stays, and the next record overwrites
// what the copy left. The caller holds mu.
func (j *journal) putRecord(kind uint32, id BlockID, data []byte, sum uint32) (int, error) {
	if j.f == nil {
		return 0, errJournalClosed
	}
	h := encodeHeader(j.hdr[:], j.seed, kind, id, len(data), sum)
	n := len(h) + len(data)
	if need := j.head + n + recHeaderSize; need > len(j.m) {
		size := len(j.m)
		for size < need {
			size *= 2
		}
		if err := j.remap(size); err != nil {
			return 0, err
		}
	}
	at := j.m[j.head:]
	if err := bankCopy(at, h); err != nil {
		return 0, err
	}
	if err := bankCopy(at[len(h):], data); err != nil {
		return 0, err
	}
	if err := bankCopy(at[n+4:n+8], noRecord[:]); err != nil {
		return 0, err
	}
	j.head += n
	return n, nil
}

// Append journals one dirty-block intent, data summed by sum, and makes
// it durable according to the sync mode. Only after Append returns may
// the write be acknowledged to the client.
func (j *journal) Append(id BlockID, data []byte, sum uint32) error {
	j.mu.Lock()
	n, err := j.putRecord(recData, id, data, sum)
	if err != nil {
		j.mu.Unlock()
		return err
	}
	j.seq++
	seq := j.seq
	j.live[id] = struct{}{}
	j.mu.Unlock()
	j.appends.Add(1)
	j.appendBytes.Add(uint64(n))
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
	if _, ok := j.live[id]; !ok {
		j.mu.Unlock()
		return nil
	}
	if _, err := j.putRecord(recCommit, id, nil, 0); err != nil {
		j.mu.Unlock()
		return err
	}
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

// checkpoint starts a new epoch once every intent has committed: the
// header's epoch is bumped and the head goes back to the first slot,
// then both are fsynced. Every record already in the file fails the new
// epoch's check. The head moves back even if the fsync fails, since the
// bumped header may reach the disk anyway; a record is acknowledged only
// after an fsync that covers the header too.
func (j *journal) checkpoint() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil || len(j.live) != 0 || j.head == fileHeaderSize {
		return nil
	}
	maybeCrash(CrashPostCommitPreTruncate)
	if err := j.writeEpoch(j.epoch + 1); err != nil {
		return err
	}
	j.head = fileHeaderSize
	if err := bankCopy(j.m[j.head+4:j.head+8], noRecord[:]); err != nil {
		return err
	}
	if err := j.f.Sync(); err != nil {
		return err
	}
	j.checkpoints.Add(1)
	return nil
}

// Latest returns the newest uncommitted journaled data for id, used to
// rescue a dirty frame whose bank copy failed its checksum.
func (j *journal) Latest(id BlockID) ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil, false
	}
	s, err := scanInPlace(j.m[:j.head])
	if err != nil {
		return nil, false
	}
	var last []journalEntry
	for i := range s.entries {
		if s.entries[i].id == id {
			last = s.entries[i : i+1]
		}
	}
	if last == nil || last[0].kind != recData {
		return nil, false
	}
	if _, err := copyEntries(last); err != nil {
		return nil, false
	}
	return last[0].data, true
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
	s, err := scanInPlace(j.m[:j.head])
	if err != nil {
		return nil, err
	}
	return copyEntries(liveEntries(s.entries))
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
	buf := make([]byte, fileHeaderSize)
	encodeFileHeader(buf, j.epoch)
	for _, e := range entries {
		buf = append(buf, encodeRecord(j.seed, recData, e.id, e.data)...)
	}
	_, err = tmp.Write(buf)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmpPath, j.path)
	}
	if err != nil {
		os.Remove(tmpPath)
		return err
	}
	if err := syncDir(filepath.Dir(j.path)); err != nil {
		return err
	}
	f, err := os.OpenFile(j.path, os.O_RDWR, 0644)
	if err != nil {
		return err
	}
	j.f.Close()
	j.f = f
	if err := j.attach(len(buf)); err != nil {
		return err
	}
	j.live = make(map[BlockID]struct{}, len(entries))
	for _, e := range entries {
		j.live[e.id] = struct{}{}
	}
	return nil
}

// Close unmaps and releases the journal file WITHOUT truncating it:
// surviving intent must outlive the process so the next start can
// recover.
func (j *journal) Close() error {
	j.mu.Lock()
	var err error
	if j.m != nil {
		err = syscall.Munmap(j.m)
		j.m = nil
	}
	if j.f != nil {
		if cerr := j.f.Close(); err == nil {
			err = cerr
		}
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
	size := int64(max(j.head-fileHeaderSize, 0))
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
