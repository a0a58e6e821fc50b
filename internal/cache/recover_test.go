package cache

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"gvfs/internal/nfs3"
)

func journalConfig(dir string) Config {
	cfg := smallConfig()
	cfg.Dir = dir
	cfg.Journal = true
	cfg.JournalSync = SyncAlways
	return cfg
}

// crashCache abandons a cache without flushing or checkpointing, the
// way a SIGKILL would (minus the descriptor, which the kernel closes).
func crashCache(c *Cache) { c.Close() }

func TestRecoverRestoresDirtySet(t *testing.T) {
	// No index snapshot survives the crash, so every journaled block
	// must be restored from the journal's own copy.
	dir := t.TempDir()
	c1, err := New(journalConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[uint64][]byte)
	for i := uint64(0); i < 6; i++ {
		data := bytes.Repeat([]byte{byte(0x10 + i)}, 512)
		if err := c1.Put(fhA, i, data, true); err != nil {
			t.Fatal(err)
		}
		want[i*512] = data
	}
	crashCache(c1)

	c2, err := New(journalConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	srv := newBlockSink(512)
	c2.SetWriteBackFunc(srv.writeBack)
	rep, err := c2.RecoverJournal()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Dirty != 6 || rep.Restored != 6 {
		t.Fatalf("report = %+v, want 6 dirty / 6 restored", rep)
	}
	if got := c2.DirtyCount(); got != 6 {
		t.Fatalf("dirty after recovery = %d", got)
	}
	if err := c2.WriteBackAll(); err != nil {
		t.Fatal(err)
	}
	got := srv.image(fhA)
	if len(got) != len(want) {
		t.Fatalf("server has %d blocks, want %d", len(got), len(want))
	}
	for off, data := range want {
		if !bytes.Equal(got[off], data) {
			t.Errorf("server block at %d wrong", off)
		}
	}
}

func TestRecoverRearmsMatchingFrames(t *testing.T) {
	// With an index snapshot AND intact bank bytes, recovery re-marks
	// frames dirty in place rather than rewriting them.
	dir := t.TempDir()
	cfg := journalConfig(dir)
	c1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Clean data first so the index can be saved...
	for i := uint64(0); i < 4; i++ {
		if err := c1.Put(fhA, i, bytes.Repeat([]byte{byte(i)}, 512), false); err != nil {
			t.Fatal(err)
		}
	}
	if err := c1.SaveIndex(); err != nil {
		t.Fatal(err)
	}
	// ...then re-dirty two of the blocks and crash.
	dirtied := map[uint64][]byte{
		1: bytes.Repeat([]byte{0xD1}, 512),
		3: bytes.Repeat([]byte{0xD3}, 512),
	}
	for blk, data := range dirtied {
		if err := c1.Put(fhA, blk, data, true); err != nil {
			t.Fatal(err)
		}
	}
	crashCache(c1)

	c2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c2.LoadIndex(); err != nil {
		t.Fatal(err)
	}
	srv := newBlockSink(512)
	c2.SetWriteBackFunc(srv.writeBack)
	rep, err := c2.RecoverJournal()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Dirty != 2 || rep.Restored != 0 {
		t.Fatalf("report = %+v, want 2 dirty / 0 restored (rearm path)", rep)
	}
	if err := c2.WriteBackAll(); err != nil {
		t.Fatal(err)
	}
	got := srv.image(fhA)
	for blk, data := range dirtied {
		if !bytes.Equal(got[blk*512], data) {
			t.Errorf("block %d not replayed with dirty content", blk)
		}
	}
	if len(got) != 2 {
		t.Errorf("replayed %d blocks, want exactly the 2 dirty ones", len(got))
	}
}

func TestRecoverRestoresTornBank(t *testing.T) {
	// The index matches but the bank bytes are torn: the checksum
	// comparison must reject the frame and restore from the journal.
	dir := t.TempDir()
	cfg := journalConfig(dir)
	cfg.Banks = 1
	cfg.SetsPerBank = 1
	cfg.Assoc = 4
	c1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Save an index so the frame is *present* after restart — the test
	// is that a present-but-torn frame is rejected, not just a missing
	// one.
	if err := c1.Put(fhA, 0, bytes.Repeat([]byte{0x00}, 512), false); err != nil {
		t.Fatal(err)
	}
	if err := c1.SaveIndex(); err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0xEE}, 512)
	if err := c1.Put(fhA, 0, data, true); err != nil {
		t.Fatal(err)
	}
	crashCache(c1)
	// Tear the bank copy: flip bytes in bank0000 while the journal
	// still holds the intact intent.
	bank := filepath.Join(dir, "bank0000")
	blob, err := os.ReadFile(bank)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 256; i++ {
		blob[i] ^= 0xFF
	}
	if err := os.WriteFile(bank, blob, 0644); err != nil {
		t.Fatal(err)
	}

	c2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c2.LoadIndex(); err != nil {
		t.Fatal(err)
	}
	srv := newBlockSink(512)
	c2.SetWriteBackFunc(srv.writeBack)
	rep, err := c2.RecoverJournal()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Dirty != 1 || rep.Restored != 1 {
		t.Fatalf("report = %+v, want the torn frame restored", rep)
	}
	if err := c2.WriteBackAll(); err != nil {
		t.Fatal(err)
	}
	if got := srv.image(fhA)[0]; !bytes.Equal(got, data) {
		t.Fatal("server did not receive the journal's intact copy")
	}
	// The recovered frame serves the intact bytes too.
	if got, ok := c2.Get(fhA, 0); !ok || !bytes.Equal(got, data) {
		t.Fatal("recovered frame does not serve the restored data")
	}
}

func TestRecoverIdempotent(t *testing.T) {
	// Recovering twice — as if the proxy crashed again mid-replay —
	// must leave the same dirty set and produce the same server state.
	dir := t.TempDir()
	c1, err := New(journalConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[uint64][]byte)
	for i := uint64(0); i < 5; i++ {
		data := bytes.Repeat([]byte{byte(0xA0 + i)}, 512)
		if err := c1.Put(fhB, i, data, true); err != nil {
			t.Fatal(err)
		}
		want[i*512] = data
	}
	crashCache(c1)

	// First recovery: replay fully, then crash again before the next
	// SaveIndex (so the second instance starts from the same journal
	// directory state the checkpoint left behind).
	c2, err := New(journalConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	srv := newBlockSink(512)
	c2.SetWriteBackFunc(srv.writeBack)
	rep1, err := c2.RecoverJournal()
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.WriteBackAll(); err != nil {
		t.Fatal(err)
	}
	state1 := srv.image(fhB)
	crashCache(c2)

	// Second recovery over the same directory: the journal was
	// checkpointed at replay commit, so nothing should be re-dirtied,
	// and the server state must not change.
	c3, err := New(journalConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	c3.SetWriteBackFunc(srv.writeBack)
	rep2, err := c3.RecoverJournal()
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Dirty != 0 {
		t.Fatalf("second recovery found %d dirty (first: %d)", rep2.Dirty, rep1.Dirty)
	}
	if err := c3.WriteBackAll(); err != nil {
		t.Fatal(err)
	}
	state2 := srv.image(fhB)
	if len(state2) != len(state1) {
		t.Fatalf("server state changed across recoveries: %d vs %d blocks", len(state2), len(state1))
	}
	for off, data := range want {
		if !bytes.Equal(state2[off], data) {
			t.Errorf("server block at %d diverged", off)
		}
	}
}

func TestRecoverCrashMidReplayIdempotent(t *testing.T) {
	// Crash *between* recovery and replay: the second recovery must
	// rebuild the identical dirty set from the compacted journal.
	dir := t.TempDir()
	c1, err := New(journalConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 5; i++ {
		if err := c1.Put(fhB, i, bytes.Repeat([]byte{byte(i)}, 512), true); err != nil {
			t.Fatal(err)
		}
	}
	crashCache(c1)

	c2, err := New(journalConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	rep1, err := c2.RecoverJournal()
	if err != nil {
		t.Fatal(err)
	}
	crashCache(c2) // die before WriteBackAll

	c3, err := New(journalConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	srv := newBlockSink(512)
	c3.SetWriteBackFunc(srv.writeBack)
	rep2, err := c3.RecoverJournal()
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Dirty != rep1.Dirty {
		t.Fatalf("dirty set changed: %d then %d", rep1.Dirty, rep2.Dirty)
	}
	if err := c3.WriteBackAll(); err != nil {
		t.Fatal(err)
	}
	got := srv.image(fhB)
	if len(got) != 5 {
		t.Fatalf("server has %d blocks, want 5", len(got))
	}
	for i := uint64(0); i < 5; i++ {
		if !bytes.Equal(got[i*512], bytes.Repeat([]byte{byte(i)}, 512)) {
			t.Errorf("block %d wrong after crash-mid-replay recovery", i)
		}
	}
}

func TestRecoverNoJournalNoop(t *testing.T) {
	cfg := smallConfig() // Journal not set
	c := newTestCache(t, cfg)
	rep, err := c.RecoverJournal()
	if err != nil {
		t.Fatal(err)
	}
	if rep != (RecoveryReport{}) {
		t.Fatalf("no-journal recovery reported %+v", rep)
	}
	if c.JournalEnabled() {
		t.Error("JournalEnabled on journal-less cache")
	}
}

func TestJournalCommitOnWriteBack(t *testing.T) {
	// The normal (non-crash) path: write-back commits the intent, and
	// once every dirty block drains the journal checkpoints to empty.
	dir := t.TempDir()
	c, err := New(journalConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv := newBlockSink(512)
	c.SetWriteBackFunc(srv.writeBack)
	for i := uint64(0); i < 4; i++ {
		if err := c.Put(fhA, i, bytes.Repeat([]byte{byte(i)}, 512), true); err != nil {
			t.Fatal(err)
		}
	}
	st := c.JournalStats()
	if st.Live != 4 || st.Appends != 4 {
		t.Fatalf("journal stats before drain = %+v", st)
	}
	if err := c.WriteBackAll(); err != nil {
		t.Fatal(err)
	}
	st = c.JournalStats()
	if st.Live != 0 || st.Commits != 4 || st.Checkpoints == 0 || st.SizeBytes != 0 {
		t.Fatalf("journal stats after drain = %+v", st)
	}
	// Four adjacent blocks leave as one run; each is committed on its own.
	if srv.writes() != 1 || srv.blocks() != 4 {
		t.Fatalf("server saw %d WRITEs covering %d blocks, want 1 covering 4", srv.writes(), srv.blocks())
	}
}

func TestJournalSurvivesUpdateInPlace(t *testing.T) {
	// Re-dirtying the same block N times then crashing must recover the
	// LAST version exactly once.
	dir := t.TempDir()
	c1, err := New(journalConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	var last []byte
	for v := 0; v < 5; v++ {
		last = bytes.Repeat([]byte{byte(0x60 + v)}, 512)
		if err := c1.Put(fhA, 7, last, true); err != nil {
			t.Fatal(err)
		}
	}
	crashCache(c1)

	c2, err := New(journalConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	srv := newBlockSink(512)
	c2.SetWriteBackFunc(srv.writeBack)
	rep, err := c2.RecoverJournal()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Dirty != 1 {
		t.Fatalf("dirty = %d, want 1 (latest wins)", rep.Dirty)
	}
	if err := c2.WriteBackAll(); err != nil {
		t.Fatal(err)
	}
	if got := srv.image(fhA)[7*512]; !bytes.Equal(got, last) {
		t.Fatal("server did not receive the final version")
	}
	if srv.writes() != 1 || srv.blocks() != 1 {
		t.Fatalf("server saw %d WRITEs covering %d blocks, want 1 of 1", srv.writes(), srv.blocks())
	}
}

func TestJournalDisabledForWriteThrough(t *testing.T) {
	cfg := smallConfig()
	cfg.Policy = WriteThrough
	cfg.Journal = true
	c := newTestCache(t, cfg)
	if c.JournalEnabled() {
		t.Error("write-through cache opened a journal")
	}
	// And no journal file appears even after writes.
	if err := c.Put(fhA, 0, []byte("x"), false); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(c.Config().Dir, journalFileName)); !os.IsNotExist(err) {
		t.Error("journal file exists for write-through cache")
	}
}

func ExampleCache_RecoverJournal() {
	dir, _ := os.MkdirTemp("", "gvfs-recover")
	defer os.RemoveAll(dir)
	cfg := Config{Dir: dir, Banks: 1, SetsPerBank: 4, Assoc: 2, BlockSize: 64,
		Policy: WriteBack, Journal: true}
	c1, _ := New(cfg)
	c1.Put(nfs3.FH("fh"), 3, []byte("acked but unpropagated"), true)
	c1.Close() // crash: dirty block never written back

	c2, _ := New(cfg)
	defer c2.Close()
	c2.SetWriteBackFunc(func(fh nfs3.FH, off uint64, data []byte) error {
		fmt.Printf("replay offset=%d data=%q\n", off, data)
		return nil
	})
	rep, _ := c2.RecoverJournal()
	fmt.Printf("dirty=%d restored=%d\n", rep.Dirty, rep.Restored)
	c2.WriteBackAll()
	// Output:
	// dirty=1 restored=1
	// replay offset=192 data="acked but unpropagated"
}
