package cache

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gvfs/internal/nfs3"
)

func runsEqual(a, b []run) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestCoalesceRuns(t *testing.T) {
	const bs = 512
	id := func(fh string, b uint64) BlockID { return BlockID{FH: fh, Block: b} }
	cases := []struct {
		name     string
		ids      []BlockID
		maxBytes int
		want     []run
	}{
		{
			name:     "adjacent blocks merge",
			ids:      []BlockID{id("a", 0), id("a", 1), id("a", 2)},
			maxBytes: 8 * bs,
			want:     []run{{fh: "a", start: 0, n: 3}},
		},
		{
			name:     "gap splits",
			ids:      []BlockID{id("a", 0), id("a", 1), id("a", 3)},
			maxBytes: 8 * bs,
			want:     []run{{fh: "a", start: 0, n: 2}, {fh: "a", start: 3, n: 1}},
		},
		{
			name:     "unsorted input is sorted first",
			ids:      []BlockID{id("a", 2), id("a", 0), id("a", 1)},
			maxBytes: 8 * bs,
			want:     []run{{fh: "a", start: 0, n: 3}},
		},
		{
			name:     "duplicates (overlap) are dropped",
			ids:      []BlockID{id("a", 0), id("a", 1), id("a", 1), id("a", 2)},
			maxBytes: 8 * bs,
			want:     []run{{fh: "a", start: 0, n: 3}},
		},
		{
			name:     "max-size split",
			ids:      []BlockID{id("a", 0), id("a", 1), id("a", 2), id("a", 3), id("a", 4)},
			maxBytes: 2 * bs,
			want:     []run{{fh: "a", start: 0, n: 2}, {fh: "a", start: 2, n: 2}, {fh: "a", start: 4, n: 1}},
		},
		{
			name:     "distinct files never merge",
			ids:      []BlockID{id("a", 0), id("b", 1), id("a", 1), id("b", 2)},
			maxBytes: 8 * bs,
			want:     []run{{fh: "a", start: 0, n: 2}, {fh: "b", start: 1, n: 2}},
		},
		{
			name:     "tiny budget still flushes one block per run",
			ids:      []BlockID{id("a", 0), id("a", 1)},
			maxBytes: bs / 2,
			want:     []run{{fh: "a", start: 0, n: 1}, {fh: "a", start: 1, n: 1}},
		},
		{
			name: "empty",
			ids:  nil, maxBytes: 8 * bs, want: nil,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := coalesceRuns(tc.ids, bs, tc.maxBytes)
			if !runsEqual(got, tc.want) {
				t.Errorf("coalesceRuns = %+v, want %+v", got, tc.want)
			}
		})
	}
}

var errCoalesceBoom = fmt.Errorf("coalesce test write-back failure")

// runBS is the block size of the flush-shape tests below: four blocks
// fill one WRITE of nfs3.MaxTransfer bytes.
const runBS = nfs3.MaxTransfer / 4

func runConfig() Config {
	cfg := smallConfig()
	cfg.BlockSize = runBS
	return cfg
}

func TestCoalescedWriteBackMergesAdjacent(t *testing.T) {
	const bs = runBS
	c := newTestCache(t, runConfig())
	rec := newBlockSink(bs)
	c.SetWriteBackFunc(rec.writeBack)
	want := make([]byte, 8*bs)
	for i := uint64(0); i < 8; i++ {
		blk := bytes.Repeat([]byte{byte(i + 1)}, bs)
		copy(want[i*bs:], blk)
		if err := c.Put(fhA, i, blk, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.WriteBackAll(); err != nil {
		t.Fatal(err)
	}
	if n := c.DirtyCount(); n != 0 {
		t.Errorf("dirty after writeback = %d", n)
	}
	// 8 adjacent blocks, 4 to a WRITE: exactly two WRITEs.
	if rec.writes() != 2 || rec.blocks() != 8 {
		t.Errorf("%d WRITEs covering %d blocks, want 2 covering 8", rec.writes(), rec.blocks())
	}
	for _, call := range rec.calls {
		if len(call.data) != nfs3.MaxTransfer || call.off%nfs3.MaxTransfer != 0 {
			t.Errorf("WRITE off=%d len=%d, want a full aligned run", call.off, len(call.data))
		}
	}
	got := make([]byte, 8*bs)
	for off, data := range rec.image(fhA) {
		copy(got[off:], data)
	}
	if !bytes.Equal(got, want) {
		t.Error("reassembled write-back data differs from cached content")
	}
	// Blocks stay cached and clean after the coalesced flush.
	for i := uint64(0); i < 8; i++ {
		data, ok := c.Get(fhA, i)
		if !ok || !bytes.Equal(data, want[i*bs:(i+1)*bs]) {
			t.Fatalf("block %d lost or corrupted after coalesced flush", i)
		}
	}
}

func TestCoalescedWriteBackShortTail(t *testing.T) {
	const bs = 512
	c := newTestCache(t, smallConfig())
	rec := newBlockSink(bs)
	c.SetWriteBackFunc(rec.writeBack)
	// Two full blocks then a short (file-tail) block: one WRITE whose
	// short frame is the run's tail.
	if err := c.Put(fhA, 0, bytes.Repeat([]byte{1}, bs), true); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(fhA, 1, bytes.Repeat([]byte{2}, bs), true); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(fhA, 2, bytes.Repeat([]byte{3}, 100), true); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteBackAll(); err != nil {
		t.Fatal(err)
	}
	if len(rec.calls) != 1 {
		t.Fatalf("write-backs = %d, want 1 (calls: %+v)", len(rec.calls), rec.calls)
	}
	call := rec.calls[0]
	if call.off != 0 || len(call.data) != 2*bs+100 {
		t.Fatalf("coalesced write off=%d len=%d, want off=0 len=%d", call.off, len(call.data), 2*bs+100)
	}
	if !bytes.Equal(call.data[2*bs:], bytes.Repeat([]byte{3}, 100)) {
		t.Error("short tail bytes corrupted")
	}
}

func TestCoalescedWriteBackShortMiddleSplitsRun(t *testing.T) {
	const bs = 512
	c := newTestCache(t, smallConfig())
	rec := newBlockSink(bs)
	c.SetWriteBackFunc(rec.writeBack)
	// A short block in the middle cannot be coalesced with a successor
	// (its bytes end before the next block's offset): expect the run to
	// end at the short frame and the rest to flush separately.
	if err := c.Put(fhA, 0, bytes.Repeat([]byte{1}, bs), true); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(fhA, 1, bytes.Repeat([]byte{2}, 64), true); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(fhA, 2, bytes.Repeat([]byte{3}, bs), true); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteBackAll(); err != nil {
		t.Fatal(err)
	}
	if n := c.DirtyCount(); n != 0 {
		t.Errorf("dirty after writeback = %d", n)
	}
	// Block 1 is short, so blocks 0-1 coalesce with the short tail and
	// block 2 leaves on its own.
	if rec.writes() != 2 || rec.blocks() != 3 {
		t.Fatalf("%d WRITEs covering %d blocks, want 2 covering 3 (calls: %+v)", rec.writes(), rec.blocks(), rec.calls)
	}
	for _, call := range rec.calls {
		if wantLen := map[uint64]int{0: bs + 64, 2 * bs: bs}[call.off]; len(call.data) != wantLen {
			t.Errorf("WRITE off=%d len=%d, want len %d", call.off, len(call.data), wantLen)
		}
	}
	img := rec.image(fhA)
	if !bytes.Equal(img[0], bytes.Repeat([]byte{1}, bs)) {
		t.Error("block 0 bytes wrong")
	}
	if !bytes.Equal(img[bs], bytes.Repeat([]byte{2}, 64)) {
		t.Error("short block 1 bytes wrong")
	}
	if !bytes.Equal(img[2*bs], bytes.Repeat([]byte{3}, bs)) {
		t.Error("block 2 flushed incorrectly")
	}
}

func TestCoalescedWriteBackErrorKeepsDirty(t *testing.T) {
	const bs = 512
	c := newTestCache(t, smallConfig())
	c.SetWriteBackFunc(func(nfs3.FH, uint64, []byte) error { return errCoalesceBoom })
	for i := uint64(0); i < 4; i++ {
		if err := c.Put(fhA, i, bytes.Repeat([]byte{byte(i)}, bs), true); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.WriteBackAll(); err == nil {
		t.Fatal("expected error from failing write-back")
	}
	if n := c.DirtyCount(); n != 4 {
		t.Errorf("dirty after failed writeback = %d, want 4", n)
	}
}

func TestCoalescedWriteBackDisjointFiles(t *testing.T) {
	const bs = 512
	c := newTestCache(t, smallConfig())
	rec := newBlockSink(bs)
	c.SetWriteBackFunc(rec.writeBack)
	for i := uint64(0); i < 3; i++ {
		if err := c.Put(fhA, i, bytes.Repeat([]byte{0xaa}, bs), true); err != nil {
			t.Fatal(err)
		}
		if err := c.Put(fhB, i, bytes.Repeat([]byte{0xbb}, bs), true); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.WriteBackAll(); err != nil {
		t.Fatal(err)
	}
	if len(rec.calls) != 2 {
		t.Errorf("write-backs = %d, want 2 (one coalesced run per file)", len(rec.calls))
	}
	for _, call := range rec.calls {
		if len(call.data) != 3*bs {
			t.Errorf("file %q run len = %d, want %d", call.fh, len(call.data), 3*bs)
		}
	}
}

// TestRedirtyInsideRunInFlight is the run path's torture: every writer
// owns every fourth block of one eight-block run and keeps re-dirtying
// them while flushes of that run are on the wire. A block's pin is held
// for the whole run's round trip, so what must hold is the per-block
// contract: the sink ends with the last acknowledged version of every
// block, and no block ever lands an older version after a newer one.
// Every block is dirty before the first flush, so that flush is one
// eight-block run; the writers start re-dirtying once its WRITE is on
// the wire, and the WRITE is held until every writer has begun: the run
// is in flight by construction, not by timing.
func TestRedirtyInsideRunInFlight(t *testing.T) {
	const (
		bs       = 256
		blocks   = 8 // one set each: nothing is evicted, every WRITE is a flush
		writers  = 4
		versions = 60
	)
	cfg := Config{Banks: 1, SetsPerBank: 8, Assoc: 2, BlockSize: bs,
		Policy: WriteBack, stripes: 4, flushConcurrency: 4}
	c := newTestCache(t, cfg)
	payload := func(block uint64, version int) []byte {
		return bytes.Repeat([]byte{byte(block), byte(version)}, bs/2)
	}
	for b := uint64(0); b < blocks; b++ {
		if err := c.Put(fhA, b, payload(b, 1), true); err != nil {
			t.Fatal(err)
		}
	}
	sink := newBlockSink(bs)
	inFlight := make(chan struct{})
	var redirtying sync.WaitGroup
	redirtying.Add(writers)
	var firstRun sync.Once
	c.SetWriteBackFunc(func(fh nfs3.FH, off uint64, data []byte) error {
		firstRun.Do(func() {
			close(inFlight)
			redirtying.Wait()
		})
		return sink.writeBack(fh, off, data)
	})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	flushed := make(chan struct{})
	go func() {
		defer close(flushed)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := c.WriteBackAll(); err != nil {
				t.Errorf("write-back all: %v", err)
				return
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-inFlight
			redirtying.Done()
			for v := 2; v <= versions; v++ {
				for b := uint64(w); b < blocks; b += writers {
					if err := c.Put(fhA, b, payload(b, v), true); err != nil {
						t.Errorf("put block %d v%d: %v", b, v, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-flushed
	if err := c.WriteBackAll(); err != nil {
		t.Fatal(err)
	}
	if n := c.DirtyCount(); n != 0 {
		t.Fatalf("%d dirty frames after final write-back", n)
	}

	for b := uint64(0); b < blocks; b++ {
		if got, _ := sink.block(fhA, b); !bytes.Equal(got, payload(b, versions)) {
			t.Errorf("block %d: sink ends with version %d, want %d", b, got[1], versions)
		}
	}
	newest := make(map[uint64]int)
	multi := 0
	for _, call := range sink.calls {
		if len(call.data) > bs {
			multi++
		}
		for b, data := call.off/bs, call.data; len(data) > 0; b, data = b+1, data[bs:] {
			if data[0] != byte(b) || !bytes.Equal(data[:bs], payload(b, int(data[1]))) {
				t.Fatalf("block %d landed torn: % x ...", b, data[:8])
			}
			if v := int(data[1]); v < newest[b] {
				t.Errorf("block %d: version %d landed after version %d", b, v, newest[b])
			} else {
				newest[b] = v
			}
		}
	}
	if multi == 0 {
		t.Error("no flush left as a multi-block run: the test did not exercise the run path")
	}
}

// TestRecoverCrashBetweenRunWriteAndCommits kills the proxy (by copying
// its cache directory, which is all a SIGKILL leaves) at the moment a
// run's WRITE has landed upstream and none of its per-block commit
// records is journaled yet. Recovery over that directory must find the
// run's blocks dirty again — and only those of runs not yet committed —
// replay them with the same bytes, and be idempotent.
func TestRecoverCrashBetweenRunWriteAndCommits(t *testing.T) {
	const bs = 512
	dir := t.TempDir()
	cfg := journalConfig(dir)
	cfg.flushConcurrency = 1 // runs leave one after the other, in order
	c1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	// Two runs of three blocks with a hole between them.
	want := make(map[uint64][]byte)
	for _, b := range []uint64{0, 1, 2, 4, 5, 6} {
		want[b*bs] = bytes.Repeat([]byte{byte(0xD0 + b)}, bs)
		if err := c1.Put(fhA, b, want[b*bs], true); err != nil {
			t.Fatal(err)
		}
	}
	srv := newBlockSink(bs)
	crashDir := t.TempDir()
	c1.SetWriteBackFunc(func(fh nfs3.FH, off uint64, data []byte) error {
		if err := srv.writeBack(fh, off, data); err != nil {
			return err
		}
		if off == 4*bs { // second run landed; first run is committed, this one is not
			copyDir(t, dir, crashDir)
		}
		return nil
	})
	if err := c1.WriteBackAll(); err != nil {
		t.Fatal(err)
	}
	if srv.writes() != 2 || srv.blocks() != 6 {
		t.Fatalf("flush sent %d WRITEs covering %d blocks, want 2 covering 6", srv.writes(), srv.blocks())
	}

	cfg.Dir = crashDir
	c2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c2.SetWriteBackFunc(srv.writeBack)
	rep, err := c2.RecoverJournal()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Dirty != 3 {
		t.Fatalf("recovery found %d dirty blocks, want the 3 of the uncommitted run", rep.Dirty)
	}
	for _, id := range c2.DirtyBlocks() {
		if id.Block < 4 || id.Block > 6 {
			t.Errorf("block %d of the committed run is dirty again", id.Block)
		}
	}
	if err := c2.WriteBackAll(); err != nil {
		t.Fatal(err)
	}
	if srv.writes() != 3 || srv.blocks() != 9 {
		t.Errorf("after replay: %d WRITEs covering %d blocks, want 3 covering 9 (the run again, as a run)", srv.writes(), srv.blocks())
	}
	crashCache(c2)

	// Crash again after the replay: nothing is left to do.
	c3, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	c3.SetWriteBackFunc(srv.writeBack)
	if rep, err = c3.RecoverJournal(); err != nil || rep.Dirty != 0 {
		t.Fatalf("second recovery: %+v, %v; want nothing dirty", rep, err)
	}
	got := srv.image(fhA)
	if len(got) != len(want) {
		t.Fatalf("server has %d blocks, want %d", len(got), len(want))
	}
	for off, data := range want {
		if !bytes.Equal(got[off], data) {
			t.Errorf("server block at %d wrong after crash, replay and second recovery", off)
		}
	}
}

// copyDir copies the regular files of src into dst.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		blob, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), blob, 0644); err != nil {
			t.Fatal(err)
		}
	}
}

// rotFrame overwrites three bytes inside id's frame through its bank
// mapping, behind the cache's back.
func rotFrame(t *testing.T, c *Cache, id BlockID) {
	t.Helper()
	bank, off := c.bankOf(c.stripeFor(id).index[id])
	m, err := c.bank(bank)
	if err != nil {
		t.Fatal(err)
	}
	copy(m[off+100:], "rot")
}

// TestRunWithTornFrameSendsJournalCopy rots the bank bytes of the
// middle frame of a three-block run: the run still leaves as one WRITE,
// carrying the journal's copy of the torn block.
func TestRunWithTornFrameSendsJournalCopy(t *testing.T) {
	const bs = 512
	dir := t.TempDir()
	c := newTestCache(t, journalConfig(dir))
	srv := newBlockSink(bs)
	c.SetWriteBackFunc(srv.writeBack)
	for b := uint64(0); b < 3; b++ {
		if err := c.Put(fhA, b, bytes.Repeat([]byte{byte(0x40 + b)}, bs), true); err != nil {
			t.Fatal(err)
		}
	}
	rotFrame(t, c, BlockID{FH: fhA.Key(), Block: 1})
	if err := c.WriteBackAll(); err != nil {
		t.Fatal(err)
	}
	if srv.writes() != 1 || srv.blocks() != 3 {
		t.Errorf("%d WRITEs covering %d blocks, want 1 covering 3", srv.writes(), srv.blocks())
	}
	for b := uint64(0); b < 3; b++ {
		if got, _ := srv.block(fhA, b); !bytes.Equal(got, bytes.Repeat([]byte{byte(0x40 + b)}, bs)) {
			t.Errorf("block %d landed wrong", b)
		}
	}
	if c.DirtyCount() != 0 || c.Stats().ChecksumErrors == 0 || c.JournalStats().Live != 0 {
		t.Errorf("after flush: dirty %d, checksum errors %d, live intents %d",
			c.DirtyCount(), c.Stats().ChecksumErrors, c.JournalStats().Live)
	}
}

// TestRunWithTornFrameNoJournalStaysDirty: without a journal a torn
// frame has no second copy, so its run fails whole, sends nothing, and
// stays dirty.
func TestRunWithTornFrameNoJournalStaysDirty(t *testing.T) {
	const bs = 512
	c := newTestCache(t, smallConfig())
	srv := newBlockSink(bs)
	c.SetWriteBackFunc(srv.writeBack)
	for b := uint64(0); b < 3; b++ {
		if err := c.Put(fhA, b, bytes.Repeat([]byte{byte(0x40 + b)}, bs), true); err != nil {
			t.Fatal(err)
		}
	}
	rotFrame(t, c, BlockID{FH: fhA.Key(), Block: 1})
	if err := c.WriteBackAll(); err == nil {
		t.Fatal("a run with a torn, unjournaled frame was sent")
	}
	if srv.writes() != 0 || c.DirtyCount() != 3 {
		t.Errorf("%d WRITEs, %d dirty blocks; want 0 and 3", srv.writes(), c.DirtyCount())
	}
}

// TestWriteBackWhole: a file the cache holds whole — frames, and blocks
// the caller calls zeros — goes back as one stream of its size, and its
// dirty blocks, journaled ones included, are clean once the stream was
// taken; a file not held whole or with nothing dirty is not sent, and a
// failed send and a torn frame leave every dirty block dirty for the
// ordinary flush. WRITEs go on during the send, and a block one changes,
// or grows past the size sent, stays dirty; every other write-back of the
// file waits for the send to return.
func TestWriteBackWhole(t *testing.T) {
	const bs = 512
	size := uint64(3*bs + 100) // blocks 0 (clean), 1 (dirty), 2 (zeros, no frame), 3 (dirty, short)
	sizeFn := func() uint64 { return size }
	setup := func(t *testing.T) (*Cache, []byte) {
		c := newTestCache(t, journalConfig(t.TempDir()))
		c.SetWriteBackFunc(func(nfs3.FH, uint64, []byte) error { return nil })
		want := make([]byte, size)
		for b, dirty := range map[uint64]bool{0: false, 1: true, 3: true} {
			data := bytes.Repeat([]byte{byte(0x40 + b)}, bs)[:min(bs, int(size-b*bs))]
			copy(want[b*bs:], data)
			if err := c.Put(fhA, b, data, dirty); err != nil {
				t.Fatal(err)
			}
		}
		return c, want
	}
	zeros := func(b uint64) bool { return b == 2 }
	readAll := func(r io.Reader) error { _, err := io.ReadAll(r); return err }
	t.Run("whole", func(t *testing.T) {
		c, want := setup(t)
		var got []byte
		cleaned, err := c.WriteBackWhole(fhA, sizeFn, zeros, func(r io.Reader) (err error) {
			got, err = io.ReadAll(r)
			return err
		})
		slices.Sort(cleaned)
		if err != nil || !bytes.Equal(got, want) || !slices.Equal(cleaned, []uint64{1, 3}) {
			t.Errorf("sent %d bytes (want %d, equal %v), cleaned %v, err %v", len(got), len(want), bytes.Equal(got, want), cleaned, err)
		}
		if c.DirtyCount() != 0 || c.JournalStats().Live != 0 {
			t.Errorf("after the send: %d dirty, %d live intents", c.DirtyCount(), c.JournalStats().Live)
		}
	})
	unsent := func(io.Reader) error { t.Error("a file was sent that should not be"); return nil }
	for _, tc := range []struct {
		name  string
		zero  func(uint64) bool
		send  func(io.Reader) error
		prep  func(t *testing.T, c *Cache)
		dirty int
	}{
		{name: "not whole", zero: func(uint64) bool { return false }, send: unsent, dirty: 2},
		{name: "nothing dirty", zero: zeros, send: unsent, prep: func(t *testing.T, c *Cache) {
			if err := c.WriteBackAll(); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "send fails", zero: zeros, send: func(io.Reader) error { return errors.New("link down") }, dirty: 2},
		{name: "torn frame", zero: zeros, send: readAll, dirty: 2, prep: func(t *testing.T, c *Cache) {
			rotFrame(t, c, BlockID{FH: fhA.Key(), Block: 1})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, _ := setup(t)
			if tc.prep != nil {
				tc.prep(t, c)
			}
			if cleaned, _ := c.WriteBackWhole(fhA, sizeFn, tc.zero, tc.send); len(cleaned) != 0 || c.DirtyCount() != tc.dirty {
				t.Errorf("cleaned %v, %d dirty, want none cleaned and %d dirty", cleaned, c.DirtyCount(), tc.dirty)
			}
		})
	}
	// put writes a block in another goroutine and fails the test if the
	// WRITE does not return promptly: no frame is pinned across a send.
	put := func(t *testing.T, c *Cache, block uint64, data []byte) {
		done := make(chan error, 1)
		go func() { done <- c.Put(fhA, block, data, true) }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a WRITE waited for the send")
		}
	}
	// stays checks that block holds data, dirty, after the send.
	stays := func(t *testing.T, c *Cache, block uint64, data []byte, cleaned []uint64) {
		if got, ok := c.Get(fhA, block); !ok || !bytes.Equal(got, data) {
			t.Errorf("block %d: the WRITE made during the send was lost", block)
		}
		if _, dirty := c.Peek(fhA, block); !dirty || slices.Contains(cleaned, block) {
			t.Errorf("block %d is clean (cleaned %v): the bytes the send missed would never go back", block, cleaned)
		}
	}
	t.Run("a write after the read stays dirty", func(t *testing.T) {
		c, _ := setup(t)
		newer := bytes.Repeat([]byte{0xee}, bs)
		cleaned, err := c.WriteBackWhole(fhA, sizeFn, zeros, func(r io.Reader) error {
			err := readAll(r)
			put(t, c, 1, newer)
			return err
		})
		if err != nil || !slices.Equal(cleaned, []uint64{3}) {
			t.Errorf("cleaned %v, err %v; want block 3 only", cleaned, err)
		}
		stays(t, c, 1, newer, cleaned)
	})
	t.Run("the last block grows after the size was read", func(t *testing.T) {
		c, want := setup(t)
		full := bytes.Repeat([]byte{0x43}, bs) // a client page over the short block 3
		var got []byte
		cleaned, err := c.WriteBackWhole(fhA, sizeFn, zeros, func(r io.Reader) (err error) {
			put(t, c, 3, full)
			got, err = io.ReadAll(r)
			return err
		})
		if err != nil || !bytes.Equal(got, want) || !slices.Equal(cleaned, []uint64{1}) {
			t.Errorf("sent %d bytes (want the %d the size names), cleaned %v, err %v; want block 1 only", len(got), len(want), cleaned, err)
		}
		stays(t, c, 3, full, cleaned)
	})
	t.Run("other write-backs of the file wait for the send", func(t *testing.T) {
		c, _ := setup(t)
		var sending atomic.Bool
		c.SetWriteBackFunc(func(fh nfs3.FH, off uint64, _ []byte) error {
			if sending.Load() {
				t.Errorf("block %d of the file went upstream during the send: the send replaces it there", off/bs)
			}
			return nil
		})
		flushed := make(chan error, 1)
		c.WriteBackWhole(fhA, sizeFn, zeros, func(r io.Reader) error {
			sending.Store(true)
			defer sending.Store(false)
			go func() { flushed <- c.WriteBackAll() }()
			time.Sleep(50 * time.Millisecond)
			return readAll(r)
		})
		if err := <-flushed; err != nil {
			t.Fatal(err)
		}
		if c.DirtyCount() != 0 {
			t.Errorf("%d dirty after the send and the flush", c.DirtyCount())
		}
	})
}
