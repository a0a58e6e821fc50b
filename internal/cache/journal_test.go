package cache

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"

	"gvfs/internal/nfs3"
)

func mustOpenJournal(t *testing.T, dir string, mode SyncMode) *journal {
	t.Helper()
	j, err := openJournal(dir, mode)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j
}

// add journals a data record the way put does, with the data's sum.
func add(j *journal, id BlockID, data []byte) error { return j.Append(id, data, crc32c(data)) }

// encodeOldRecord encodes a record of the unmapped format, whose files
// had no header: magic "GVJL", kind, fhLen, block, dataLen, and a CRC32C
// over kind..dataLen, fh and data.
func encodeOldRecord(kind uint32, id BlockID, data []byte) []byte {
	buf := make([]byte, recHeaderSize, recHeaderSize+len(id.FH)+len(data))
	binary.BigEndian.PutUint32(buf[0:], oldRecordMagic)
	binary.BigEndian.PutUint32(buf[4:], kind)
	binary.BigEndian.PutUint32(buf[8:], uint32(len(id.FH)))
	binary.BigEndian.PutUint64(buf[12:], id.Block)
	binary.BigEndian.PutUint32(buf[20:], uint32(len(data)))
	buf = append(append(buf, id.FH...), data...)
	binary.BigEndian.PutUint32(buf[24:], crc32.Update(crc32.Update(0, castagnoli, buf[4:24]), castagnoli, buf[recHeaderSize:]))
	return buf
}

func TestJournalAppendCommitRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j := mustOpenJournal(t, dir, SyncAlways)
	if j.recovered.torn {
		t.Error("a new journal reported a torn tail")
	}
	ids := make([]BlockID, 4)
	for i := range ids {
		ids[i] = BlockID{FH: "fh", Block: uint64(i)}
		if err := add(j, ids[i], []byte(fmt.Sprintf("payload-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if st := j.statsSnapshot(); st.Live != 4 {
		t.Fatalf("live = %d, want 4", st.Live)
	}
	// A reopened journal (simulated crash: no Close, just a second
	// scan) sees every uncommitted intent with the right payload.
	j2 := mustOpenJournal(t, dir, SyncAlways)
	entries, err := j2.surviving()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 {
		t.Fatalf("surviving = %d, want 4", len(entries))
	}
	for i, e := range entries {
		if e.id != ids[i] || !bytes.Equal(e.data, []byte(fmt.Sprintf("payload-%d", i))) {
			t.Errorf("entry %d = %v %q", i, e.id, e.data)
		}
	}
	j2.Close()

	// Committing everything checkpoints: the epoch moves on, no record is
	// left in it, and yet another reopen finds no surviving intent.
	for _, id := range ids {
		if err := j.Commit(id); err != nil {
			t.Fatal(err)
		}
	}
	st := j.statsSnapshot()
	if st.Live != 0 || st.Checkpoints == 0 || st.SizeBytes != 0 {
		t.Fatalf("post-commit stats = %+v", st)
	}
	j3 := mustOpenJournal(t, dir, SyncAlways)
	if entries, _ := j3.surviving(); len(entries) != 0 || j3.recovered.records != 0 || j3.recovered.torn {
		t.Fatalf("after the checkpoint: %d surviving of %d records, torn %v", len(entries), j3.recovered.records, j3.recovered.torn)
	}
}

func TestJournalLatestWins(t *testing.T) {
	dir := t.TempDir()
	j := mustOpenJournal(t, dir, SyncNone)
	id := BlockID{FH: "fh", Block: 9}
	add(j, id, []byte("v1"))
	add(j, id, []byte("v2"))
	add(j, id, []byte("v3"))
	if data, ok := j.Latest(id); !ok || string(data) != "v3" {
		t.Fatalf("Latest = %q %v", data, ok)
	}
	// A commit clears the intent even though older records remain on
	// disk; re-dirtying afterwards revives only the new version.
	if err := j.Commit(id); err != nil {
		t.Fatal(err)
	}
	if _, ok := j.Latest(id); ok {
		t.Fatal("Latest found a committed block")
	}
	add(j, id, []byte("v4"))
	entries, err := j.surviving()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || string(entries[0].data) != "v4" {
		t.Fatalf("surviving = %+v", entries)
	}
}

func TestJournalTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	j := mustOpenJournal(t, dir, SyncAlways)
	idA := BlockID{FH: "fh", Block: 0}
	add(j, idA, []byte("complete-record"))
	head, seed := j.head, j.seed
	j.Close()

	// Simulate a crash mid-append: a second record torn halfway through.
	path := filepath.Join(dir, journalFileName)
	torn := encodeRecord(seed, recData, BlockID{FH: "fh", Block: 1}, []byte("torn-record"))
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	copy(blob[head:], torn[:len(torn)/2])
	if err := os.WriteFile(path, blob, 0644); err != nil {
		t.Fatal(err)
	}

	j2 := mustOpenJournal(t, dir, SyncAlways)
	if !j2.recovered.torn {
		t.Error("torn tail not detected")
	}
	entries, err := j2.surviving()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].id != idA {
		t.Fatalf("surviving = %+v, want only the complete record", entries)
	}
	// The torn bytes were cut away, so new appends start on a clean
	// record boundary.
	idB := BlockID{FH: "fh", Block: 2}
	if err := add(j2, idB, []byte("after-tear")); err != nil {
		t.Fatal(err)
	}
	j3 := mustOpenJournal(t, dir, SyncAlways)
	entries, _ = j3.surviving()
	if len(entries) != 2 {
		t.Fatalf("surviving after post-tear append = %d, want 2", len(entries))
	}
	if j3.recovered.torn {
		t.Error("a journal that ends at the end of its log reported a torn tail")
	}
}

func TestJournalCorruptRecordStopsScan(t *testing.T) {
	dir := t.TempDir()
	j := mustOpenJournal(t, dir, SyncAlways)
	add(j, BlockID{FH: "fh", Block: 0}, []byte("good"))
	add(j, BlockID{FH: "fh", Block: 1}, []byte("bad-to-be"))
	head := j.head
	j.Close()

	// Flip a payload byte of the second record: its data no longer
	// matches its sum, and the scan must stop there rather than trust it.
	path := filepath.Join(dir, journalFileName)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob[head-1] ^= 0xFF
	if err := os.WriteFile(path, blob, 0644); err != nil {
		t.Fatal(err)
	}

	j2 := mustOpenJournal(t, dir, SyncAlways)
	entries, err := j2.surviving()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].id.Block != 0 {
		t.Fatalf("surviving = %+v, want only the first record", entries)
	}
}

// loseEndMarker puts back the 8 bytes at off of the journal file in dir
// as they were in before: a crash that kept the records before off but
// not the page where the last one's end-of-log marker went.
func loseEndMarker(t *testing.T, dir string, off int, before []byte) {
	t.Helper()
	path := filepath.Join(dir, journalFileName)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	copy(blob[off:off+8], before[off:off+8])
	if err := os.WriteFile(path, blob, 0644); err != nil {
		t.Fatal(err)
	}
}

// TestJournalStaleEpochNotReplayed fills epoch E with records of one
// size, checkpoints, and writes fewer of the same size in E+1: the
// records of E that follow them in the file line up exactly, and a
// reopen must still find only E+1's, even when the end-of-log marker
// after them was lost.
func TestJournalStaleEpochNotReplayed(t *testing.T) {
	dir := t.TempDir()
	j := mustOpenJournal(t, dir, SyncBatch)
	id := func(i int) BlockID { return BlockID{FH: "fh", Block: uint64(i)} }
	for i := 0; i < 8; i++ {
		if err := add(j, id(i), bytes.Repeat([]byte{'E'}, 512)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		if err := j.Commit(id(i)); err != nil {
			t.Fatal(err)
		}
	}
	if st := j.statsSnapshot(); st.Checkpoints != 1 || st.SizeBytes != 0 {
		t.Fatalf("after the first round: %+v", st)
	}
	before, err := os.ReadFile(filepath.Join(dir, journalFileName))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := add(j, id(10+i), bytes.Repeat([]byte{'F'}, 512)); err != nil {
			t.Fatal(err)
		}
	}
	loseEndMarker(t, dir, j.head, before)
	j2 := mustOpenJournal(t, dir, SyncBatch) // a crash: no Close
	entries, err := j2.surviving()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 || j2.recovered.records != 3 {
		t.Fatalf("surviving %d of %d records, want the 3 of the new epoch", len(entries), j2.recovered.records)
	}
	for i, e := range entries {
		if e.id.Block != uint64(10+i) || e.data[0] != 'F' {
			t.Fatalf("entry %d = block %d %q..., want block %d of the new epoch", i, e.id.Block, e.data[:1], 10+i)
		}
	}
}

// TestJournalGarbageBeyondPrefixNeverReplayed leaves valid records of
// the current epoch behind a record a crash tore, as pages written back
// out of order can: the reopen cuts the file there, so neither a record
// appended into the hole, which ends exactly where the next old record
// began and whose end-of-log marker a second crash lost, nor a second
// reopen brings them back.
func TestJournalGarbageBeyondPrefixNeverReplayed(t *testing.T) {
	dir := t.TempDir()
	j := mustOpenJournal(t, dir, SyncAlways)
	data := func(v byte) []byte { return bytes.Repeat([]byte{v}, 512) }
	var starts []int
	for i := 0; i < 5; i++ {
		starts = append(starts, j.head)
		if err := add(j, BlockID{FH: "fh", Block: uint64(i)}, data(byte('a'+i))); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	path := filepath.Join(dir, journalFileName)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob[starts[3]-1] ^= 0xff // the third record's last data byte
	if err := os.WriteFile(path, blob, 0644); err != nil {
		t.Fatal(err)
	}

	j2 := mustOpenJournal(t, dir, SyncAlways)
	if j2.recovered.records != 2 || !j2.recovered.torn || j2.head != starts[2] {
		t.Fatalf("reopen found %d records, torn %v, head %d; want 2, true, %d", j2.recovered.records, j2.recovered.torn, j2.head, starts[2])
	}
	if err := add(j2, BlockID{FH: "fh", Block: 9}, data('z')); err != nil {
		t.Fatal(err)
	}
	if j2.head != starts[3] {
		t.Fatalf("the new record ends at %d, want %d where the old fourth began", j2.head, starts[3])
	}
	loseEndMarker(t, dir, j2.head, blob)
	for reopen := 0; reopen < 2; reopen++ {
		j3 := mustOpenJournal(t, dir, SyncAlways)
		entries, err := j3.surviving()
		if err != nil {
			t.Fatal(err)
		}
		var blocks []uint64
		for _, e := range entries {
			blocks = append(blocks, e.id.Block)
		}
		if fmt.Sprint(blocks) != "[0 1 9]" {
			t.Fatalf("reopen %d: surviving blocks %v, want [0 1 9]", reopen, blocks)
		}
		j3.Close()
	}
}

// TestJournalUpgradesOldFormat recovers a journal of the unmapped format
// with live intents: the cache replays them, and the file is rewritten
// in the mapped format with the same intents.
func TestJournalUpgradesOldFormat(t *testing.T) {
	dir := t.TempDir()
	cfg := journalConfig(dir)
	a, b := bytes.Repeat([]byte{'a'}, 512), bytes.Repeat([]byte{'b'}, 512)
	b2 := bytes.Repeat([]byte{'B'}, 512)
	old := bytes.Join([][]byte{
		encodeOldRecord(recData, BlockID{FH: string(fhA), Block: 0}, a),
		encodeOldRecord(recData, BlockID{FH: string(fhA), Block: 1}, b),
		encodeOldRecord(recCommit, BlockID{FH: string(fhA), Block: 0}, nil),
		encodeOldRecord(recData, BlockID{FH: string(fhA), Block: 1}, b2),
	}, nil)
	path := filepath.Join(dir, journalFileName)
	if err := os.WriteFile(path, old, 0644); err != nil {
		t.Fatal(err)
	}
	c := newTestCache(t, cfg)
	srv := newBlockSink(512)
	c.SetWriteBackFunc(srv.writeBack)
	rep, err := c.RecoverJournal()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records != 4 || rep.Dirty != 1 || rep.TornTail {
		t.Fatalf("recovery = %+v, want 4 records and 1 dirty block", rep)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if s := scanJournal(blob); s.old || len(s.entries) != 1 || !bytes.Equal(s.entries[0].data, b2) {
		t.Fatalf("rewritten journal: old %v, %d entries", s.old, len(s.entries))
	}
	if err := c.WriteBackAll(); err != nil {
		t.Fatal(err)
	}
	if got := srv.image(fhA)[512]; !bytes.Equal(got, b2) || srv.blocks() != 1 {
		t.Fatalf("server saw %d blocks, block 1 %q...", srv.blocks(), got[:1])
	}
}

// TestJournalFaultIsIOError cuts the journal file behind its mapping in
// the middle of where the next record goes: that append fails with an
// I/O error instead of crashing, the head stays, and once the file is
// whole again the next record takes its place, so no acknowledged record
// ends up behind the torn one. (The unmapped journal appended with
// O_APPEND: after a short write the next record landed behind the torn
// bytes, where the scan never reaches.)
func TestJournalFaultIsIOError(t *testing.T) {
	dir := t.TempDir()
	j := mustOpenJournal(t, dir, SyncAlways)
	id := func(i int) BlockID { return BlockID{FH: "fh", Block: uint64(i)} }
	page := os.Getpagesize()
	data := bytes.Repeat([]byte{'x'}, 2*page)
	if err := add(j, id(0), data); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, journalFileName)
	size := len(j.m)
	head := j.head
	cut := (head/page + 1) * page
	if err := os.Truncate(path, int64(cut)); err != nil {
		t.Fatal(err)
	}
	err := add(j, id(1), data)
	if !errors.Is(err, syscall.EIO) {
		t.Fatalf("append over the cut = %v, want EIO", err)
	}
	if j.head != head {
		t.Fatalf("head moved to %d after a failed append, want %d", j.head, head)
	}
	if err := os.Truncate(path, int64(size)); err != nil {
		t.Fatal(err)
	}
	if err := add(j, id(2), bytes.Repeat([]byte{'y'}, 100)); err != nil {
		t.Fatal(err)
	}
	j2 := mustOpenJournal(t, dir, SyncAlways)
	entries, err := j2.surviving()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].id != id(0) || entries[1].id != id(2) {
		t.Fatalf("surviving = %d entries, want blocks 0 and 2", len(entries))
	}
}

// TestJournalGrowsPastInitialSize appends past the first mapping: the
// file doubles, and every record is found again, in place and after a
// reopen.
func TestJournalGrowsPastInitialSize(t *testing.T) {
	dir := t.TempDir()
	j := mustOpenJournal(t, dir, SyncNone)
	const n = 300
	for i := 0; i < n; i++ {
		if err := add(j, BlockID{FH: "fh", Block: uint64(i)}, bytes.Repeat([]byte{byte(i)}, 8192)); err != nil {
			t.Fatal(err)
		}
	}
	if len(j.m) <= journalInitialSize {
		t.Fatalf("mapping is %d bytes after %d records of 8 KiB", len(j.m), n)
	}
	if data, ok := j.Latest(BlockID{FH: "fh", Block: 7}); !ok || !bytes.Equal(data, bytes.Repeat([]byte{7}, 8192)) {
		t.Fatal("Latest lost a record written before the growth")
	}
	j2 := mustOpenJournal(t, dir, SyncNone)
	entries, err := j2.surviving()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != n {
		t.Fatalf("surviving = %d, want %d", len(entries), n)
	}
	for i, e := range entries {
		if e.id.Block != uint64(i) || !bytes.Equal(e.data, bytes.Repeat([]byte{byte(i)}, 8192)) {
			t.Fatalf("entry %d is block %d with the wrong data", i, e.id.Block)
		}
	}
}

func TestJournalGroupCommitConcurrent(t *testing.T) {
	// Many goroutines appending under SyncBatch: every append must be
	// durable when it returns, but the leader-based group commit should
	// need far fewer fsyncs than appends.
	dir := t.TempDir()
	j := mustOpenJournal(t, dir, SyncBatch)
	const writers = 8
	const perWriter = 25
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := BlockID{FH: fmt.Sprintf("fh-%d", w), Block: uint64(i)}
				if err := add(j, id, bytes.Repeat([]byte{byte(w)}, 64)); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := j.statsSnapshot()
	if st.Appends != writers*perWriter {
		t.Fatalf("appends = %d", st.Appends)
	}
	if st.Syncs > st.Appends {
		t.Fatalf("syncs %d > appends %d: group commit not batching", st.Syncs, st.Appends)
	}
	// Everything must actually be on disk: reopen and count.
	j.Close()
	j2 := mustOpenJournal(t, dir, SyncBatch)
	entries, err := j2.surviving()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != writers*perWriter {
		t.Fatalf("surviving = %d, want %d", len(entries), writers*perWriter)
	}
}

func TestParseSyncMode(t *testing.T) {
	cases := map[string]SyncMode{
		"": SyncBatch, "batch": SyncBatch, "always": SyncAlways, "none": SyncNone,
	}
	for in, want := range cases {
		got, err := ParseSyncMode(in)
		if err != nil || got != want {
			t.Errorf("ParseSyncMode(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseSyncMode("bogus"); err == nil {
		t.Error("bogus sync mode accepted")
	}
}

func TestSetCrashpointValidation(t *testing.T) {
	if err := SetCrashpoint("no-such-point"); err == nil {
		t.Error("unknown crashpoint accepted")
	}
	if err := SetCrashpoint(CrashPreCommit); err != nil {
		t.Errorf("valid crashpoint rejected: %v", err)
	}
	if err := SetCrashpoint(""); err != nil {
		t.Errorf("disarm rejected: %v", err)
	}
}

// TestJournaledPutSteadyState is the steady-state cost of a journaled
// dirty Put in batch mode, once a warm-up round has grown the journal and
// ended in a checkpoint: no allocation beyond what the same Put costs
// without a journal (the block's ID takes a string of the handle), and no
// write system call — the record is copied into the mapping that the
// round before left allocated. The write count is read from
// /proc/self/io and skipped where that file is absent.
func TestJournaledPutSteadyState(t *testing.T) {
	const blocks = 160 // 1.3 MiB of records: the warm-up grows the journal once
	data := bytes.Repeat([]byte{0x5a}, 8192)
	// steady fills a cache with a round of dirty blocks and writes them
	// back, then measures a second round.
	steady := func(journal bool) (allocs float64, writes uint64, haveIO bool, c *Cache) {
		c = newTestCache(t, Config{Dir: t.TempDir(), Banks: 4, SetsPerBank: 64, Assoc: 4, BlockSize: 8192,
			Policy: WriteBack, Journal: journal, JournalSync: SyncBatch})
		c.SetWriteBackFunc(func(nfs3.FH, uint64, []byte) error { return nil })
		for b := uint64(0); b < blocks; b++ {
			if err := c.Put(fhA, b, data, true); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.WriteBackAll(); err != nil {
			t.Fatal(err)
		}
		writes0, haveIO := syscw(t)
		var b uint64
		allocs = testing.AllocsPerRun(blocks-1, func() {
			if err := c.Put(fhA, b, data, true); err != nil {
				t.Fatal(err)
			}
			b++
		})
		writes1, _ := syscw(t)
		return allocs, writes1 - writes0, haveIO, c
	}
	base, _, _, _ := steady(false)
	allocs, writes, haveIO, c := steady(true)
	if st := c.JournalStats(); st.Checkpoints != 1 || st.Appends != 2*blocks || st.Syncs < blocks {
		t.Fatalf("journal stats = %+v, want 1 checkpoint and %d appends, each synced", st, 2*blocks)
	}
	if allocs > base {
		t.Errorf("%.2f allocations per journaled Put, %.2f without a journal", allocs, base)
	}
	if perPut := float64(writes) / blocks; haveIO && perPut >= 0.01 {
		t.Errorf("%.3f write system calls per journaled Put, want < 0.01", perPut)
	}
	t.Logf("per dirty Put: %.2f allocations (%.2f without a journal), %d write system calls in %d Puts", allocs, base, writes, blocks)
}

// syscw reads this process's count of write system calls from
// /proc/self/io; ok is false where the file is absent.
func syscw(t *testing.T) (n uint64, ok bool) {
	blob, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if v, found := strings.CutPrefix(line, "syscw: "); found {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return n, true
		}
	}
	t.Fatal("/proc/self/io has no syscw line")
	return 0, false
}
