package cache

import (
	"bytes"
	"fmt"
	"os"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"gvfs/internal/nfs3"
)

const millisecond = time.Millisecond

func timeSleep(d time.Duration) { time.Sleep(d) }

func newTestCache(t testing.TB, cfg Config) *Cache {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func smallConfig() Config {
	return Config{Banks: 4, SetsPerBank: 8, Assoc: 2, BlockSize: 512, Policy: WriteBack}
}

var fhA = nfs3.FH("file-handle-A")
var fhB = nfs3.FH("file-handle-B")

func TestPutGet(t *testing.T) {
	c := newTestCache(t, smallConfig())
	data := bytes.Repeat([]byte{0xaa}, 512)
	if err := c.Put(fhA, 0, data, false); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(fhA, 0)
	if !ok || !bytes.Equal(got, data) {
		t.Errorf("hit=%v len=%d", ok, len(got))
	}
	st := c.Stats()
	if st.Hits != 1 || st.Insertions != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestMiss(t *testing.T) {
	c := newTestCache(t, smallConfig())
	if _, ok := c.Get(fhA, 7); ok {
		t.Error("unexpected hit in empty cache")
	}
	if st := c.Stats(); st.Misses != 1 {
		t.Errorf("misses = %d", st.Misses)
	}
}

func TestShortBlock(t *testing.T) {
	c := newTestCache(t, smallConfig())
	tail := []byte("tail-block") // shorter than frame
	if err := c.Put(fhA, 3, tail, false); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(fhA, 3)
	if !ok || !bytes.Equal(got, tail) {
		t.Errorf("short block: hit=%v got=%q", ok, got)
	}
}

func TestOversizeBlockRejected(t *testing.T) {
	c := newTestCache(t, smallConfig())
	if err := c.Put(fhA, 0, make([]byte, 513), false); err == nil {
		t.Error("oversize block accepted")
	}
}

func TestUpdateInPlace(t *testing.T) {
	c := newTestCache(t, smallConfig())
	c.Put(fhA, 0, []byte("v1"), false)
	c.Put(fhA, 0, []byte("v2-longer"), false)
	got, ok := c.Get(fhA, 0)
	if !ok || string(got) != "v2-longer" {
		t.Errorf("got %q", got)
	}
	if st := c.Stats(); st.Insertions != 1 {
		t.Errorf("in-place update counted as insertion: %+v", st)
	}
}

func TestDistinctFilesDoNotCollide(t *testing.T) {
	c := newTestCache(t, smallConfig())
	c.Put(fhA, 5, []byte("AAA"), false)
	c.Put(fhB, 5, []byte("BBB"), false)
	a, _ := c.Get(fhA, 5)
	b, _ := c.Get(fhB, 5)
	if string(a) != "AAA" || string(b) != "BBB" {
		t.Errorf("a=%q b=%q", a, b)
	}
}

func TestLRUEvictionWithinSet(t *testing.T) {
	cfg := Config{Banks: 1, SetsPerBank: 1, Assoc: 2, BlockSize: 64, Policy: WriteThrough}
	c := newTestCache(t, cfg)
	// All blocks of one file map to the single set.
	c.Put(fhA, 0, []byte("block0"), false)
	c.Put(fhA, 1, []byte("block1"), false)
	c.Get(fhA, 0) // touch block0 so block1 is LRU
	c.Put(fhA, 2, []byte("block2"), false)
	if _, ok := c.Get(fhA, 1); ok {
		t.Error("LRU victim still cached")
	}
	if _, ok := c.Get(fhA, 0); !ok {
		t.Error("recently used block evicted")
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Errorf("evictions = %d", st.Evictions)
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	cfg := Config{Banks: 1, SetsPerBank: 1, Assoc: 1, BlockSize: 64, Policy: WriteBack}
	c := newTestCache(t, cfg)
	var wrote []string
	c.SetWriteBackFunc(func(fh nfs3.FH, off uint64, data []byte) error {
		wrote = append(wrote, fmt.Sprintf("%s@%d=%s", fh.Key(), off, data))
		return nil
	})
	c.Put(fhA, 0, []byte("dirty0"), true)
	c.Put(fhA, 1, []byte("clean1"), false) // evicts dirty block 0
	if len(wrote) != 1 || wrote[0] != "file-handle-A@0=dirty0" {
		t.Errorf("writebacks = %v", wrote)
	}
	if st := c.Stats(); st.WriteBacks != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestDirtyEvictionWithoutFuncFails(t *testing.T) {
	cfg := Config{Banks: 1, SetsPerBank: 1, Assoc: 1, BlockSize: 64, Policy: WriteBack}
	c := newTestCache(t, cfg)
	c.Put(fhA, 0, []byte("dirty"), true)
	if err := c.Put(fhA, 1, []byte("x"), false); err == nil {
		t.Error("dirty eviction without write-back func should fail")
	}
}

func TestWriteBackAll(t *testing.T) {
	c := newTestCache(t, smallConfig())
	var mu sync.Mutex
	got := map[uint64][]byte{}
	c.SetWriteBackFunc(func(fh nfs3.FH, off uint64, data []byte) error {
		mu.Lock()
		defer mu.Unlock()
		got[off] = append([]byte{}, data...)
		return nil
	})
	for i := uint64(0); i < 10; i++ {
		c.Put(fhA, i, []byte{byte(i)}, true)
	}
	if n := c.DirtyCount(); n != 10 {
		t.Fatalf("dirty = %d", n)
	}
	if err := c.WriteBackAll(); err != nil {
		t.Fatal(err)
	}
	if n := c.DirtyCount(); n != 0 {
		t.Errorf("dirty after writeback = %d", n)
	}
	if len(got) != 10 {
		t.Errorf("wrote %d blocks", len(got))
	}
	// Data remains cached after write-back.
	if _, ok := c.Get(fhA, 5); !ok {
		t.Error("data dropped by WriteBackAll")
	}
}

func TestFlushInvalidates(t *testing.T) {
	c := newTestCache(t, smallConfig())
	c.SetWriteBackFunc(func(nfs3.FH, uint64, []byte) error { return nil })
	c.Put(fhA, 0, []byte("d"), true)
	c.Put(fhA, 1, []byte("c"), false)
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(fhA, 0); ok {
		t.Error("flush left data cached")
	}
	if _, ok := c.Get(fhA, 1); ok {
		t.Error("flush left clean data cached")
	}
}

func TestInvalidateFile(t *testing.T) {
	c := newTestCache(t, smallConfig())
	c.SetWriteBackFunc(func(nfs3.FH, uint64, []byte) error { return nil })
	c.Put(fhA, 0, []byte("a"), true)
	c.Put(fhB, 0, []byte("b"), false)
	if err := c.InvalidateFile(fhA); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(fhA, 0); ok {
		t.Error("fhA still cached")
	}
	if _, ok := c.Get(fhB, 0); !ok {
		t.Error("fhB wrongly invalidated")
	}
}

func TestMarkClean(t *testing.T) {
	c := newTestCache(t, smallConfig())
	c.Put(fhA, 0, []byte("d"), true)
	c.MarkClean(fhA, 0)
	if n := c.DirtyCount(); n != 0 {
		t.Errorf("dirty = %d", n)
	}
}

func TestPeek(t *testing.T) {
	c := newTestCache(t, smallConfig())
	c.Put(fhA, 0, []byte("d"), true)
	cached, dirty := c.Peek(fhA, 0)
	if !cached || !dirty {
		t.Errorf("peek = %v %v", cached, dirty)
	}
	before := c.Stats()
	c.Peek(fhA, 1)
	if after := c.Stats(); after != before {
		t.Error("peek mutated stats")
	}
}

func TestReadOnlyRejectsDirty(t *testing.T) {
	cfg := smallConfig()
	cfg.ReadOnly = true
	c := newTestCache(t, cfg)
	if err := c.Put(fhA, 0, []byte("d"), true); err == nil {
		t.Error("read-only cache accepted dirty block")
	}
	if err := c.Put(fhA, 0, []byte("c"), false); err != nil {
		t.Errorf("read-only cache rejected clean block: %v", err)
	}
}

func TestCapacity(t *testing.T) {
	cfg := Config{Dir: "x", Banks: 512, SetsPerBank: 128, Assoc: 16, BlockSize: 8192}
	if got := cfg.Capacity(); got != 8<<30 {
		t.Errorf("capacity = %d, want 8 GiB", got)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("missing dir accepted")
	}
	if _, err := New(Config{Dir: t.TempDir(), BlockSize: 65536}); err == nil {
		t.Error("block size above NFS limit accepted")
	}
}

func TestSpatialLocalityConsecutiveSets(t *testing.T) {
	c := newTestCache(t, smallConfig())
	s0 := c.setOf(BlockID{FH: "f", Block: 0})
	s1 := c.setOf(BlockID{FH: "f", Block: 1})
	totalSets := c.cfg.Banks * c.cfg.SetsPerBank
	if s1 != (s0+1)%totalSets {
		t.Errorf("consecutive blocks map to sets %d, %d", s0, s1)
	}
}

func TestManyFilesNoAliasing(t *testing.T) {
	// Fill the cache well past capacity and verify hits return the
	// correct bytes (no tag aliasing).
	cfg := Config{Banks: 2, SetsPerBank: 4, Assoc: 2, BlockSize: 32, Policy: WriteThrough}
	c := newTestCache(t, cfg)
	for f := 0; f < 8; f++ {
		fh := nfs3.FH(fmt.Sprintf("file-%d", f))
		for b := uint64(0); b < 8; b++ {
			data := []byte(fmt.Sprintf("f%db%d", f, b))
			if err := c.Put(fh, b, data, false); err != nil {
				t.Fatal(err)
			}
		}
	}
	for f := 0; f < 8; f++ {
		fh := nfs3.FH(fmt.Sprintf("file-%d", f))
		for b := uint64(0); b < 8; b++ {
			if data, ok := c.Get(fh, b); ok {
				want := fmt.Sprintf("f%db%d", f, b)
				if string(data) != want {
					t.Errorf("aliased: got %q want %q", data, want)
				}
			}
		}
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := newTestCache(t, smallConfig())
	c.SetWriteBackFunc(func(nfs3.FH, uint64, []byte) error { return nil })
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			fh := nfs3.FH(fmt.Sprintf("file-%d", g))
			for i := uint64(0); i < 100; i++ {
				data := []byte{byte(g), byte(i)}
				if err := c.Put(fh, i, data, g%2 == 0); err != nil {
					t.Error(err)
					return
				}
				if got, ok := c.Get(fh, i); ok && !bytes.Equal(got, data) {
					t.Errorf("corrupt read g=%d i=%d", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// Property: the cache never returns wrong bytes — a Get hit always
// matches the most recent Put for that (file, block).
func TestQuickNeverStale(t *testing.T) {
	cfg := Config{Banks: 2, SetsPerBank: 2, Assoc: 2, BlockSize: 64, Policy: WriteThrough}
	f := func(ops []struct {
		File  uint8
		Block uint8
		Val   uint8
	}) bool {
		dir, err := os.MkdirTemp("", "cachetest")
		if err != nil {
			return false
		}
		defer os.RemoveAll(dir)
		cfg := cfg
		cfg.Dir = dir
		c, err := New(cfg)
		if err != nil {
			return false
		}
		defer c.Close()
		model := map[BlockID][]byte{}
		for _, op := range ops {
			fh := nfs3.FH(fmt.Sprintf("f%d", op.File%4))
			block := uint64(op.Block % 16)
			data := bytes.Repeat([]byte{op.Val}, 8)
			if err := c.Put(fh, block, data, false); err != nil {
				return false
			}
			model[BlockID{FH: fh.Key(), Block: block}] = data
			if got, ok := c.Get(fh, block); !ok || !bytes.Equal(got, data) {
				return false
			}
		}
		// Every remaining hit must match the model.
		for id, want := range model {
			if got, ok := c.Get(nfs3.FH(id.FH), id.Block); ok && !bytes.Equal(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPipelinedWriteBackAll(t *testing.T) {
	cfg := smallConfig()
	cfg.flushConcurrency = 4
	c := newTestCache(t, cfg)
	sink := newBlockSink(cfg.BlockSize)
	var mu sync.Mutex
	inFlight, peak := 0, 0
	c.SetWriteBackFunc(func(fh nfs3.FH, off uint64, data []byte) error {
		mu.Lock()
		inFlight++
		if inFlight > peak {
			peak = inFlight
		}
		mu.Unlock()
		// Simulate WAN latency so concurrency is observable.
		timeSleep(2 * millisecond)
		mu.Lock()
		inFlight--
		mu.Unlock()
		return sink.writeBack(fh, off, data)
	})
	// Eight runs of four blocks, a one-block hole between neighbours:
	// what is pipelined is WRITEs, and one run is one WRITE.
	const runs, perRun = 8, 4
	for r := uint64(0); r < runs; r++ {
		for i := uint64(0); i < perRun; i++ {
			b := r*(perRun+1) + i
			if err := c.Put(fhA, b, bytes.Repeat([]byte{byte(b)}, cfg.BlockSize), true); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := c.WriteBackAll(); err != nil {
		t.Fatal(err)
	}
	if c.DirtyCount() != 0 {
		t.Errorf("dirty = %d after pipelined write-back", c.DirtyCount())
	}
	if peak < 2 {
		t.Errorf("peak concurrency = %d, want pipelining", peak)
	}
	if peak > 4 {
		t.Errorf("peak concurrency = %d exceeds flushConcurrency", peak)
	}
	if sink.writes() != runs || sink.blocks() != runs*perRun {
		t.Errorf("%d WRITEs covering %d blocks, want %d covering %d", sink.writes(), sink.blocks(), runs, runs*perRun)
	}
	for off, data := range sink.image(fhA) {
		if want := bytes.Repeat([]byte{byte(off / uint64(cfg.BlockSize))}, cfg.BlockSize); !bytes.Equal(data, want) {
			t.Errorf("block at %d landed as %d x %#x", off, len(data), data[0])
		}
	}
}

func TestWriteBackAllErrorKeepsDirty(t *testing.T) {
	c := newTestCache(t, smallConfig())
	c.SetWriteBackFunc(func(nfs3.FH, uint64, []byte) error {
		return fmt.Errorf("upstream unreachable")
	})
	c.Put(fhA, 0, []byte("d"), true)
	if err := c.WriteBackAll(); err == nil {
		t.Fatal("expected error")
	}
	if c.DirtyCount() != 1 {
		t.Errorf("dirty = %d, want 1 (data must not be lost)", c.DirtyCount())
	}
}

func TestConcurrentPutDuringWriteBack(t *testing.T) {
	cfg := smallConfig()
	cfg.flushConcurrency = 2
	c := newTestCache(t, cfg)
	c.SetWriteBackFunc(func(nfs3.FH, uint64, []byte) error {
		timeSleep(1 * millisecond)
		return nil
	})
	for i := uint64(0); i < 16; i++ {
		c.Put(fhA, i, []byte{1}, true)
	}
	done := make(chan error, 1)
	go func() { done <- c.WriteBackAll() }()
	// Keep dirtying while the flush runs; nothing should corrupt.
	for i := uint64(0); i < 16; i++ {
		if err := c.Put(fhB, i, []byte{2}, true); err != nil {
			t.Error(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// fhB blocks dirtied concurrently may or may not have been seen;
	// a final write-back settles everything.
	if err := c.WriteBackAll(); err != nil {
		t.Fatal(err)
	}
	if c.DirtyCount() != 0 {
		t.Errorf("dirty = %d", c.DirtyCount())
	}
}

// TestCleanPutLeavesDirtyFrame: a clean insert is a copy of what
// upstream held when it was read and may arrive after a write of the
// same block was absorbed. It never replaces the dirty frame — through
// Put, and through PutDedup both where it would have written the frame
// and where it would have bound the block to another frame's content.
func TestCleanPutLeavesDirtyFrame(t *testing.T) {
	for _, dedup := range []bool{false, true} {
		cfg := smallConfig()
		cfg.Dedup = dedup
		c := newTestCache(t, cfg)
		var flushed []byte
		c.SetWriteBackFunc(func(fh nfs3.FH, off uint64, data []byte) error {
			flushed = append([]byte(nil), data...)
			return nil
		})
		written, old := bytes.Repeat([]byte{0x11}, 512), bytes.Repeat([]byte{0x22}, 512)
		if err := c.PutDedup(fhB, 0, old, false); err != nil { // the old content, cached under another identity
			t.Fatal(err)
		}
		if err := c.Put(fhA, 3, written, true); err != nil {
			t.Fatal(err)
		}
		for _, put := range []func(nfs3.FH, uint64, []byte, bool) error{c.Put, c.PutDedup} {
			if err := put(fhA, 3, old, false); err != nil {
				t.Fatal(err)
			}
			if got, ok := c.Get(fhA, 3); !ok || !bytes.Equal(got, written) {
				t.Fatalf("dedup=%v: the dirty frame's bytes were replaced", dedup)
			}
			if _, dirty := c.Peek(fhA, 3); !dirty {
				t.Fatalf("dedup=%v: the frame is no longer dirty", dedup)
			}
			if n := c.DedupRefCount(fhA, 3); n != 0 {
				t.Fatalf("dedup=%v: the dirty block is bound to shared content (%d refs)", dedup, n)
			}
		}
		if err := c.WriteBackAll(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(flushed, written) {
			t.Errorf("dedup=%v: the flush carried something other than the written bytes", dedup)
		}
		// Clean again, the frame takes clean inserts as before.
		if err := c.Put(fhA, 3, old, false); err != nil {
			t.Fatal(err)
		}
		if got, ok := c.Get(fhA, 3); !ok || !bytes.Equal(got, old) {
			t.Errorf("dedup=%v: a clean frame did not take a clean insert", dedup)
		}
	}
}

// TestOverwriteKeepsDirtyBit: Overwrite is the insert of a write-through
// that upstream already holds. A dirty frame takes the bytes and stays
// dirty — its flush then carries them — and a clean or absent block
// becomes a clean one.
func TestOverwriteKeepsDirtyBit(t *testing.T) {
	c := newTestCache(t, smallConfig())
	var flushed []byte
	c.SetWriteBackFunc(func(fh nfs3.FH, off uint64, data []byte) error {
		flushed = append([]byte(nil), data...)
		return nil
	})
	first, second := bytes.Repeat([]byte{0x11}, 512), bytes.Repeat([]byte{0x22}, 512)
	if err := c.Put(fhA, 3, first, true); err != nil {
		t.Fatal(err)
	}
	for _, block := range []uint64{3, 4, 4} { // dirty, absent, clean
		if err := c.Overwrite(fhA, block, second); err != nil {
			t.Fatal(err)
		}
		if got, ok := c.Get(fhA, block); !ok || !bytes.Equal(got, second) {
			t.Fatalf("block %d does not hold the overwriting bytes", block)
		}
		if _, dirty := c.Peek(fhA, block); dirty != (block == 3) {
			t.Fatalf("block %d: dirty=%v", block, dirty)
		}
	}
	if err := c.WriteBackAll(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(flushed, second) {
		t.Error("the flush of the overwritten dirty frame carried its old bytes")
	}
}
