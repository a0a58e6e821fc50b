package proxy_test

import (
	"bytes"
	"testing"

	"gvfs/internal/cache"
	"gvfs/internal/memfs"
	"gvfs/internal/nfs3"
	"gvfs/internal/stack"
	"gvfs/internal/stack/stacktest"

	gvfs "gvfs"
)

// A caching proxy flushes in runs of up to nfs3.MaxTransfer bytes, so
// whatever sits above it — here a second caching proxy, the paper's
// cascaded LAN cache — sees WRITEs of several blocks. These tests pin
// down what it does with them.

const cascadeBS = 8192

// twoLevels declares the cascade: a session of the grid user on a
// first-level caching proxy, over a second-level one, over the image
// server.
func twoLevels(policy1, policy2 cache.Policy) stacktest.Spec {
	return stacktest.Spec{
		Hops: []stack.ProxyOptions{
			{CacheConfig: &cache.Config{Banks: 16, SetsPerBank: 16, Assoc: 4, BlockSize: cascadeBS, Policy: policy1}},
			{CacheConfig: &cache.Config{Banks: 16, SetsPerBank: 16, Assoc: 4, BlockSize: cascadeBS, Policy: policy2}},
		},
		Session: gvfs.SessionConfig{Cred: stacktest.Cred},
	}
}

func patterned(n int, salt byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7+i/cascadeBS) ^ salt
	}
	return b
}

func writeCounters(n *stack.Node) (absorbed, forwarded uint64) {
	s := n.Proxy.Snapshot()
	return s.Counter("gvfs_proxy_writes_absorbed_total"), s.Counter("gvfs_proxy_writes_forwarded_total")
}

// TestCascadedFlushAbsorbedInRuns: the first level's Flush reaches a
// write-back second level as runs, the second level absorbs every one
// of them (a run it forwarded would make it a write-through relay), and
// its own Flush then lands the file byte-identical at the origin.
func TestCascadedFlushAbsorbedInRuns(t *testing.T) {
	c := stacktest.New(t, twoLevels(cache.WriteBack, cache.WriteBack))
	fs, level1, level2, sess := c.FS, c.Hops[0], c.Hops[1], c.Session()

	// Five full runs, then a run of one full block and a 100-byte tail:
	// aligned, not a multiple of the block size, last block partial.
	payload := patterned(5*nfs3.MaxTransfer+cascadeBS+100, 0)
	const wantRuns = 6
	if err := sess.WriteFile("/out.img", payload); err != nil {
		t.Fatal(err)
	}
	if a, _ := writeCounters(level2); a != 0 {
		t.Fatalf("second level absorbed %d WRITEs before the first level flushed", a)
	}

	if err := level1.Proxy.Flush(); err != nil {
		t.Fatal(err)
	}
	absorbed, forwarded := writeCounters(level2)
	if absorbed != wantRuns {
		t.Errorf("second level absorbed %d WRITEs, want %d (runs of %d bytes)", absorbed, wantRuns, nfs3.MaxTransfer)
	}
	if forwarded != 0 {
		t.Errorf("second level forwarded %d WRITEs: a run was treated as unaligned", forwarded)
	}
	if wb := level1.BlockCache.Stats().WriteBacks; wb != uint64(len(payload)+cascadeBS-1)/cascadeBS {
		t.Errorf("first level wrote back %d blocks, want %d", wb, (len(payload)+cascadeBS-1)/cascadeBS)
	}
	if data, err := fs.ReadFile("/out.img"); err == nil && len(data) > 0 {
		t.Fatalf("%d bytes reached the origin before the second level flushed", len(data))
	}
	// The second level answers for the data it holds.
	got, err := c.Mount(gvfs.SessionConfig{Addr: level2.Addr, Cred: stacktest.Cred}).ReadFile("/out.img")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("read through the second level: err=%v, %d bytes, equal=%v", err, len(got), bytes.Equal(got, payload))
	}

	if err := level2.Proxy.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, f := writeCounters(level2); f != 0 {
		t.Errorf("second level's own flush counted %d forwarded WRITEs", f)
	}
	data, err := fs.ReadFile("/out.img")
	if err != nil || !bytes.Equal(data, payload) {
		t.Fatalf("origin after both flushes: err=%v, %d bytes, want %d byte-identical", err, len(data), len(payload))
	}
}

// TestAlignedMultiBlockWriteAbsorbed drives one caching proxy with raw
// WRITEs of every aligned shape: whole blocks, two and a half blocks
// into the middle of a file (the last block's remainder must be merged
// from upstream), and past the end of the file.
func TestAlignedMultiBlockWriteAbsorbed(t *testing.T) {
	e := stacktest.New(t, oneHop(cache.WriteBack))
	want := patterned(10*cascadeBS, 0)
	e.FS.WriteFile("/disk.img", want)
	nc := e.Session().NFS()
	fh, _, err := nc.Lookup(e.Session().Root(), "disk.img")
	if err != nil {
		t.Fatal(err)
	}
	// Every block starts cold: block 8's partial WRITE is merged from
	// upstream, and blocks 0, 1 and 5 — which no WRITE touches — miss in
	// the read-back below, after the WRITEs have extended the file. Those
	// misses carry the origin's (old, smaller) size and must not shrink
	// the shadow size under the blocks past the old EOF.
	for _, w := range []struct {
		off, n int
	}{
		{2 * cascadeBS, 3 * cascadeBS},         // whole blocks
		{6 * cascadeBS, 2*cascadeBS + 4096},    // partial last block inside the file
		{9 * cascadeBS, 2*cascadeBS + 100},     // runs past EOF, partial tail
		{12 * cascadeBS, nfs3.MaxTransfer},     // a full run beyond EOF
		{16 * cascadeBS, nfs3.MaxTransfer + 1}, // one byte more than a run
	} {
		data := patterned(w.n, byte(w.off/cascadeBS))
		if end := w.off + w.n; end > len(want) {
			want = append(want, make([]byte, end-len(want))...)
		}
		copy(want[w.off:], data)
		before, _ := writeCounters(e.Hop())
		if n, _, err := nc.Write(fh, uint64(w.off), data, nfs3.Unstable); err != nil || int(n) != w.n {
			t.Fatalf("WRITE off=%d len=%d: n=%d err=%v", w.off, w.n, n, err)
		}
		if after, fwd := writeCounters(e.Hop()); after != before+1 || fwd != 0 {
			t.Errorf("WRITE off=%d len=%d: absorbed %d -> %d, forwarded %d; want one absorbed, none forwarded",
				w.off, w.n, before, after, fwd)
		}
	}
	var got []byte
	for eof := false; !eof; {
		var data []byte
		if data, eof, err = nc.Read(fh, uint64(len(got)), cascadeBS); err != nil {
			t.Fatalf("READ at %d: %v", len(got), err)
		}
		got = append(got, data...)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("read-your-writes: %d bytes, want %d byte-identical", len(got), len(want))
	}
	if err := e.Hop().Proxy.Flush(); err != nil {
		t.Fatal(err)
	}
	data, err := e.FS.ReadFile("/disk.img")
	if err != nil || !bytes.Equal(data, want) {
		t.Fatalf("origin after flush: err=%v, %d bytes, want %d byte-identical", err, len(data), len(want))
	}
}

// TestWriteThroughMultiBlockCoherent: a write-through cache that is
// handed a run (it sits above a proxy that flushes) forwards it, and
// must then not keep serving the old content of any block the run
// covered — not only of the first.
func TestWriteThroughMultiBlockCoherent(t *testing.T) {
	e := stacktest.New(t, oneHop(cache.WriteThrough))
	old := patterned(8*cascadeBS, 0)
	e.FS.WriteFile("/disk.img", old)
	if _, err := e.Session().ReadFile("/disk.img"); err != nil { // warm every block
		t.Fatal(err)
	}
	nc := e.Session().NFS()
	fh, _, err := nc.Lookup(e.Session().Root(), "disk.img")
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), old...)
	for _, w := range []struct{ off, n int }{
		{1 * cascadeBS, 3 * cascadeBS},         // aligned run
		{5*cascadeBS + 512, cascadeBS + 1024},  // unaligned, straddles two blocks
		{6*cascadeBS + 4096, cascadeBS + 1000}, // unaligned, ends inside the last block
	} {
		data := patterned(w.n, 0xA5)
		copy(want[w.off:], data)
		if _, _, err := nc.Write(fh, uint64(w.off), data, nfs3.FileSync); err != nil {
			t.Fatalf("WRITE off=%d len=%d: %v", w.off, w.n, err)
		}
	}
	if data, _ := e.FS.ReadFile("/disk.img"); !bytes.Equal(data, want) {
		t.Fatal("write-through did not reach the origin")
	}
	e.Session().DropCaches()
	got, err := e.Session().ReadFile("/disk.img")
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < len(want)/cascadeBS; b++ {
		if !bytes.Equal(got[b*cascadeBS:(b+1)*cascadeBS], want[b*cascadeBS:(b+1)*cascadeBS]) {
			t.Errorf("block %d served stale from the write-through cache", b)
		}
	}
}

// TestCascadedMissRunsServedByLevelTwo is the read mirror of
// TestCascadedFlushAbsorbedInRuns: a first level that misses in runs
// sends the level above READs of several blocks. The second level
// fetches each as one run of its own — one miss per first-level miss —
// and installs it, so once the first level has forgotten the file a
// second cold pass is all second-level hits and nothing reaches the
// origin. A second level that treated those READs as unaligned would
// relay every one of them.
func TestCascadedMissRunsServedByLevelTwo(t *testing.T) {
	payload := patterned(5*nfs3.MaxTransfer+cascadeBS+100, 0x33)
	spec := twoLevels(cache.WriteBack, cache.WriteBack)
	spec.Seed = func(fs *memfs.FS) { fs.WriteFile("/golden.img", payload) }
	c := stacktest.New(t, spec)
	level1, level2, sess := c.Hops[0], c.Hops[1], c.Session()
	nc := sess.NFS()
	fh, _, err := nc.Lookup(sess.Root(), "golden.img")
	if err != nil {
		t.Fatal(err)
	}
	counter := func(n *stack.Node, name string) uint64 { return n.Proxy.Snapshot().Counter(name) }
	scan := func(pass string) {
		t.Helper()
		var got []byte
		for eof := false; !eof; {
			var data []byte
			if data, eof, err = nc.Read(fh, uint64(len(got)), cascadeBS); err != nil {
				t.Fatalf("%s pass: READ at %d: %v", pass, len(got), err)
			}
			got = append(got, data...)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("%s pass: %d bytes, want %d byte-identical", pass, len(got), len(payload))
		}
	}

	scan("first")
	misses1 := counter(level1, "gvfs_proxy_read_misses_total")
	// Block 0 alone, the rest of its run, four full runs, and the last
	// block and a half.
	if want := uint64(1 + 1 + 4 + 1); misses1 != want {
		t.Fatalf("first level missed %d times over a sequential scan, want %d (runs)", misses1, want)
	}
	if m, h := counter(level2, "gvfs_proxy_read_misses_total"), counter(level2, "gvfs_proxy_read_hits_total"); m != misses1 || h != 0 {
		t.Errorf("second level: %d misses, %d hits for the first level's %d run READs; want one miss each", m, h, misses1)
	}

	// The first level ends its session: its blocks and attributes go,
	// the second level keeps its own.
	if err := level1.Proxy.Flush(); err != nil {
		t.Fatal(err)
	}
	origin := c.OriginCalls("")
	scan("second")
	if m := counter(level1, "gvfs_proxy_read_misses_total") - misses1; m != misses1 {
		t.Errorf("first level missed %d times on its second cold pass, want %d", m, misses1)
	}
	if m, h := counter(level2, "gvfs_proxy_read_misses_total"), counter(level2, "gvfs_proxy_read_hits_total"); m != misses1 || h != misses1 {
		t.Errorf("second level after the second pass: %d misses, %d hits; want %d and %d (every run READ a hit)", m, h, misses1, misses1)
	}
	if n := c.OriginCalls("") - origin; n != 0 {
		t.Errorf("%d calls reached the origin during the second pass, want 0", n)
	}
}
