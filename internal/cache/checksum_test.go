package cache

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// oneFrameConfig pins a single block to a known location: with one
// bank, one set and assoc 1, the only frame lives at offset 0 of
// bank0000.
func oneFrameConfig(dir string) Config {
	return Config{Dir: dir, Banks: 1, SetsPerBank: 1, Assoc: 1,
		BlockSize: 512, Policy: WriteBack}
}

// corruptBank flips bytes at the start of bank0000.
func corruptBank(t *testing.T, dir string, n int) {
	t.Helper()
	path := filepath.Join(dir, "bank0000")
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n > len(blob) {
		n = len(blob)
	}
	for i := 0; i < n; i++ {
		blob[i] ^= 0xFF
	}
	if err := os.WriteFile(path, blob, 0644); err != nil {
		t.Fatal(err)
	}
}

func TestChecksumCleanCorruptionIsMiss(t *testing.T) {
	// Bit rot under a clean frame: the read verifies the CRC, drops the
	// frame and reports a miss so the proxy refetches from the server.
	dir := t.TempDir()
	c := newTestCache(t, oneFrameConfig(dir))
	data := bytes.Repeat([]byte{0x42}, 512)
	if err := c.Put(fhA, 0, data, false); err != nil {
		t.Fatal(err)
	}
	corruptBank(t, dir, 64)
	if _, ok := c.Get(fhA, 0); ok {
		t.Fatal("corrupt frame served as a hit")
	}
	st := c.Stats()
	if st.ChecksumErrors != 1 {
		t.Errorf("checksum errors = %d", st.ChecksumErrors)
	}
	// The frame was invalidated: a re-Put (the refetch) repairs it.
	if err := c.Put(fhA, 0, data, false); err != nil {
		t.Fatal(err)
	}
	if got, ok := c.Get(fhA, 0); !ok || !bytes.Equal(got, data) {
		t.Fatal("refetched frame not served")
	}
}

func TestChecksumDirtyCorruptionServedFromJournal(t *testing.T) {
	// The same rot under a DIRTY frame must not lose the acked write:
	// the journal still holds the intact copy, and both reads and
	// write-back fall back to it.
	dir := t.TempDir()
	cfg := oneFrameConfig(dir)
	cfg.Journal = true
	cfg.JournalSync = SyncAlways
	c := newTestCache(t, cfg)
	data := bytes.Repeat([]byte{0x77}, 512)
	if err := c.Put(fhA, 0, data, true); err != nil {
		t.Fatal(err)
	}
	corruptBank(t, dir, 64)
	got, ok := c.Get(fhA, 0)
	if !ok || !bytes.Equal(got, data) {
		t.Fatalf("dirty corrupt frame: hit=%v, want journal copy", ok)
	}
	if st := c.Stats(); st.ChecksumErrors == 0 {
		t.Error("checksum error not counted")
	}
	// Write-back rescues from the journal as well.
	srv := newBlockSink(512)
	c.SetWriteBackFunc(srv.writeBack)
	if err := c.WriteBackAll(); err != nil {
		t.Fatal(err)
	}
	if sent := srv.image(fhA)[0]; !bytes.Equal(sent, data) {
		t.Fatal("write-back did not send the journal's intact copy")
	}
}

func TestChecksumDirtyCorruptionNoJournalFails(t *testing.T) {
	// Without a journal there is no second copy: write-back must
	// surface the loss loudly instead of propagating garbage.
	dir := t.TempDir()
	c := newTestCache(t, oneFrameConfig(dir))
	if err := c.Put(fhA, 0, bytes.Repeat([]byte{0x99}, 512), true); err != nil {
		t.Fatal(err)
	}
	corruptBank(t, dir, 64)
	srv := newBlockSink(512)
	c.SetWriteBackFunc(srv.writeBack)
	if err := c.WriteBackAll(); err == nil {
		t.Fatal("write-back of a corrupt dirty frame succeeded silently")
	}
	if srv.writes() != 0 {
		t.Error("corrupt data was propagated to the server")
	}
}

func TestChecksumSurvivesRestartViaIndex(t *testing.T) {
	// The CRC rides the index snapshot: a frame corrupted while the
	// proxy was down is caught on the first read after a warm restart.
	dir := t.TempDir()
	cfg := oneFrameConfig(dir)
	c1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0x13}, 512)
	if err := c1.Put(fhA, 0, data, false); err != nil {
		t.Fatal(err)
	}
	if err := c1.SaveIndex(); err != nil {
		t.Fatal(err)
	}
	c1.Close()
	corruptBank(t, dir, 64)

	c2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c2.LoadIndex(); err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get(fhA, 0); ok {
		t.Fatal("offline-corrupted frame served after warm restart")
	}
	if st := c2.Stats(); st.ChecksumErrors != 1 {
		t.Errorf("checksum errors = %d", st.ChecksumErrors)
	}
}

func TestChecksumShortBlock(t *testing.T) {
	// CRCs cover the logical size, not the frame: short (tail) blocks
	// verify correctly.
	dir := t.TempDir()
	c := newTestCache(t, oneFrameConfig(dir))
	tail := []byte("short tail block")
	if err := c.Put(fhA, 0, tail, false); err != nil {
		t.Fatal(err)
	}
	if got, ok := c.Get(fhA, 0); !ok || !bytes.Equal(got, tail) {
		t.Fatalf("short block round trip: hit=%v got=%q", ok, got)
	}
	if st := c.Stats(); st.ChecksumErrors != 0 {
		t.Errorf("false checksum error on short block: %d", st.ChecksumErrors)
	}
}
