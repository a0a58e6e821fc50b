package proxy_test

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"time"

	"gvfs/internal/cache"
	"gvfs/internal/memfs"
	"gvfs/internal/meta"
	"gvfs/internal/nfs3"
	"gvfs/internal/simnet"
	"gvfs/internal/stack"
	"gvfs/internal/stack/stacktest"

	gvfs "gvfs"
)

// oneHop declares the chain most tests here run on: an image server, one
// client proxy with a disk cache of the given policy, and a session of the
// grid user.
func oneHop(policy cache.Policy) stacktest.Spec {
	return stacktest.Spec{
		Hops:    []stack.ProxyOptions{{CacheConfig: &cache.Config{Banks: 16, SetsPerBank: 16, Assoc: 4, BlockSize: 8192, Policy: policy}}},
		Session: gvfs.SessionConfig{Cred: stacktest.Cred},
	}
}

func TestReadThroughProxyChain(t *testing.T) {
	e := stacktest.New(t, oneHop(cache.WriteBack))
	payload := bytes.Repeat([]byte("GridVM"), 10000)
	e.FS.WriteFile("/images/vm.vmdk", payload)

	got, err := e.Session().ReadFile("/images/vm.vmdk")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("read through chain: %d bytes, want %d", len(got), len(payload))
	}
}

func TestProxyCacheHitsOnRereadAfterPageCacheDrop(t *testing.T) {
	spec := oneHop(cache.WriteBack)
	spec.Session.PageCachePages = 4
	e := stacktest.New(t, spec)
	payload := bytes.Repeat([]byte{0x5a}, 64*1024)
	e.FS.WriteFile("/vm.vmdk", payload)

	if _, err := e.Session().ReadFile("/vm.vmdk"); err != nil {
		t.Fatal(err)
	}
	beforeMisses := e.Hop().Proxy.Snapshot().Counter("gvfs_proxy_read_misses_total")
	if beforeMisses == 0 {
		t.Fatal("first read should miss in the proxy cache")
	}

	// Drop the client memory cache: re-reads must hit the proxy disk
	// cache, not the server.
	e.Session().DropCaches()
	if _, err := e.Session().ReadFile("/vm.vmdk"); err != nil {
		t.Fatal(err)
	}
	after := e.Hop().Proxy.Snapshot()
	if after.Counter("gvfs_proxy_read_hits_total") == 0 {
		t.Error("re-read produced no proxy cache hits")
	}
	if m := after.Counter("gvfs_proxy_read_misses_total"); m != beforeMisses {
		t.Errorf("re-read missed in proxy cache: %d -> %d", beforeMisses, m)
	}
}

func TestWriteBackAbsorbsWrites(t *testing.T) {
	e := stacktest.New(t, oneHop(cache.WriteBack))
	payload := bytes.Repeat([]byte{7}, 32*1024)
	if err := e.Session().WriteFile("/out.dat", payload); err != nil {
		t.Fatal(err)
	}
	if n := e.Hop().Proxy.Snapshot().Counter("gvfs_proxy_writes_absorbed_total"); n == 0 {
		t.Fatal("no writes absorbed under write-back")
	}
	// Server must NOT have the data yet.
	if data, err := e.FS.ReadFile("/out.dat"); err == nil && bytes.Equal(data, payload) {
		t.Fatal("write-back leaked data to server before flush")
	}
	// Reads through the same proxy see the absorbed data.
	got, err := e.Session().ReadFile("/out.dat")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("read-your-writes failed: err=%v", err)
	}
	// Middleware write-back propagates it.
	if err := e.Hop().Proxy.WriteBack(); err != nil {
		t.Fatal(err)
	}
	data, err := e.FS.ReadFile("/out.dat")
	if err != nil || !bytes.Equal(data, payload) {
		t.Fatalf("server data after WriteBack: err=%v len=%d", err, len(data))
	}
}

func TestWriteThroughPropagatesImmediately(t *testing.T) {
	e := stacktest.New(t, oneHop(cache.WriteThrough))
	payload := bytes.Repeat([]byte{9}, 16*1024)
	if err := e.Session().WriteFile("/wt.dat", payload); err != nil {
		t.Fatal(err)
	}
	data, err := e.FS.ReadFile("/wt.dat")
	if err != nil || !bytes.Equal(data, payload) {
		t.Fatalf("write-through did not reach server: err=%v", err)
	}
}

func TestFlushPropagatesAndInvalidates(t *testing.T) {
	e := stacktest.New(t, oneHop(cache.WriteBack))
	payload := bytes.Repeat([]byte{3}, 24*1024)
	if err := e.Session().WriteFile("/f.dat", payload); err != nil {
		t.Fatal(err)
	}
	if err := e.Hop().Proxy.Flush(); err != nil {
		t.Fatal(err)
	}
	data, err := e.FS.ReadFile("/f.dat")
	if err != nil || !bytes.Equal(data, payload) {
		t.Fatalf("flush did not propagate: err=%v", err)
	}
	// After flush the proxy cache is cold again.
	e.Session().DropCaches()
	before := e.Hop().Proxy.Snapshot().Counter("gvfs_proxy_read_misses_total")
	if _, err := e.Session().ReadFile("/f.dat"); err != nil {
		t.Fatal(err)
	}
	after := e.Hop().Proxy.Snapshot().Counter("gvfs_proxy_read_misses_total")
	if after == before {
		t.Error("proxy cache unexpectedly warm after flush")
	}
}

func TestGetattrSeesAbsorbedSize(t *testing.T) {
	e := stacktest.New(t, oneHop(cache.WriteBack))
	payload := make([]byte, 20000)
	if err := e.Session().WriteFile("/grow.dat", payload); err != nil {
		t.Fatal(err)
	}
	attr, err := e.Session().Stat("/grow.dat")
	if err != nil {
		t.Fatal(err)
	}
	if attr.Size != 20000 {
		t.Errorf("stat size = %d, want 20000 (absorbed writes visible)", attr.Size)
	}
}

// TestZeroBlockFiltering holds the zero filter to what it is for: the
// blocks a memory state's zero map calls zero do not cross the link to
// the image server, whatever the size of the READs the session asks in.
// Of a 64-block file with one non-zero block, one block crosses.
// gvfs_proxy_zero_filtered_total counts the READs answered wholly from
// the map, so its value depends on the session's READ size and is only
// required to have moved.
func TestZeroBlockFiltering(t *testing.T) {
	link := simnet.NewLink(simnet.Local())
	spec := oneHop(cache.WriteBack)
	spec.Link = link
	e := stacktest.New(t, spec)
	// A "memory state" that is mostly zero.
	const bs = 8192
	state := make([]byte, 64*bs)
	copy(state[5*bs:], bytes.Repeat([]byte{0xAB}, bs)) // one non-zero block
	e.FS.WriteFile("/vm/mem.vmss", state)

	m := meta.GenerateZeroMap(state, bs)
	blob, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	e.FS.WriteFile("/vm/"+meta.NameFor("mem.vmss"), blob)

	for _, pass := range []string{"cold", "block cache warm"} {
		before := link.Stats().Received
		got, err := e.Session().ReadFile("/vm/mem.vmss")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, state) {
			t.Fatalf("%s: zero-filtered read corrupted data", pass)
		}
		// The block, and the replies to the LOOKUPs, the GETATTR and the
		// meta-data file's READ.
		limit := uint64(bs + 2048)
		if pass != "cold" {
			limit = 0 // and its one block is in the cache by now
		}
		if crossed := link.Stats().Received - before; crossed > limit {
			t.Errorf("%s: %d bytes came across the link for a file with one non-zero %d-byte block, want at most %d", pass, crossed, bs, limit)
		}
	}
	snap := e.Hop().Proxy.Snapshot()
	if n := snap.Counter("gvfs_proxy_zero_filtered_total"); n == 0 {
		t.Error("no READ was answered wholly from the zero map")
	}
	if n := snap.Counter("gvfs_blockcache_insertions_total"); n != 1 {
		t.Errorf("%d blocks inserted into the block cache, want 1: blocks the map calls zero are not fetched", n)
	}
}

func TestFileChannelFetch(t *testing.T) {
	spec := oneHop(cache.WriteBack)
	spec.FileChan = true
	e := stacktest.New(t, spec)
	const bs = 8192
	state := make([]byte, 32*bs)
	for i := 0; i < len(state); i += 7 {
		state[i] = byte(i)
	}
	writeVMState(t, e.FS, state)

	got, err := e.Session().ReadFile("/vm/mem.vmss")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, state) {
		t.Fatal("file-channel read corrupted data")
	}
	st := e.Hop().Proxy.Snapshot()
	if n := st.Counter("gvfs_proxy_filechan_fetches_total"); n != 1 {
		t.Errorf("file channel fetches = %d, want 1", n)
	}
	if st.Counter("gvfs_proxy_filechan_reads_total") == 0 {
		t.Error("no reads served from the file cache")
	}
	// Re-read after dropping the client cache: still served locally,
	// with no second fetch.
	e.Session().DropCaches()
	if _, err := e.Session().ReadFile("/vm/mem.vmss"); err != nil {
		t.Fatal(err)
	}
	if n := e.Hop().Proxy.Snapshot().Counter("gvfs_proxy_filechan_fetches_total"); n != 1 {
		t.Errorf("re-read refetched the file: %d fetches", n)
	}
}

// TestFetchedFileGoesBackWhole: the blocks a session wrote into a file it
// fetched through the file channel go back the way the file came — one
// whole-file transfer read from the block cache, zero-map blocks as zeros,
// no upstream WRITE — while the cache holds the file whole; once a block
// of it has left the cache they go back in runs, as any other file's.
func TestFetchedFileGoesBackWhole(t *testing.T) {
	spec := oneHop(cache.WriteBack)
	spec.FileChan = true
	e := stacktest.New(t, spec)
	const bs = 8192
	state := make([]byte, 16*bs) // zero but for blocks 2, 3 and 9
	for _, b := range []int{2, 3, 9} {
		copy(state[b*bs:], bytes.Repeat([]byte{byte(b)}, bs))
	}
	writeVMState(t, e.FS, state)
	if got, err := e.Session().ReadFile("/vm/mem.vmss"); err != nil || !bytes.Equal(got, state) {
		t.Fatalf("first read: %v", err)
	}
	p, bc := e.Hop().Proxy, e.Hop().BlockCache
	f, err := e.Session().Open("/vm/mem.vmss")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	write := func(block int, b byte) {
		t.Helper()
		patch := bytes.Repeat([]byte{b}, bs)
		if _, err := f.WriteAt(patch, int64(block*bs)); err != nil {
			t.Fatal(err)
		}
		copy(state[block*bs:], patch)
	}
	for pass, whole := range []bool{true, false} {
		write(3, byte(0xa0+pass)) // a fetched block
		write(5, byte(0xb0+pass)) // a zero-map block
		if !whole {
			if err := bc.InvalidateBlock(f.Handle(), 9); err != nil { // clean: it goes, unsent
				t.Fatal(err)
			}
		}
		before := e.OriginCalls("WRITE")
		if err := p.WriteBack(); err != nil {
			t.Fatal(err)
		}
		if got, _ := e.FS.ReadFile("/vm/mem.vmss"); !bytes.Equal(got, state) {
			t.Errorf("pass %d: the origin does not hold the written state", pass)
		}
		if n := e.OriginCalls("WRITE") - before; whole != (n == 0) {
			t.Errorf("pass %d (file held whole: %v): %d upstream WRITEs", pass, whole, n)
		}
		if bc.DirtyCount() != 0 {
			t.Errorf("pass %d: %d blocks dirty after the write-back", pass, bc.DirtyCount())
		}
	}
}

// TestDirRenameRepathsDescendants: a memory state fetched whole through
// the file channel is written (the block cache absorbs the write), then
// its directory is renamed, then the session is written back. The written
// bytes reach the origin at the new path, nothing is left at the old one,
// and the file is accounted under its new path: the RENAME moved the paths
// of everything under the directory — or, when the table has no path for
// where they went, left them with none.
func TestDirRenameRepathsDescendants(t *testing.T) {
	t.Run("to a known path", dirRenameToKnownPath)
	t.Run("to no known path", dirRenameToNoKnownPath)
}

func dirRenameToKnownPath(t *testing.T) {
	spec := oneHop(cache.WriteBack)
	spec.FileChan = true
	e := stacktest.New(t, spec)
	const bs = 8192
	state := make([]byte, 4*bs)
	for i := range state {
		state[i] = byte(i * 7)
	}
	writeVMState(t, e.FS, state)
	if got, err := e.Session().ReadFile("/vm/mem.vmss"); err != nil || !bytes.Equal(got, state) {
		t.Fatalf("first read: %v", err)
	}
	if n := e.Hop().Proxy.Snapshot().Counter("gvfs_proxy_filechan_fetches_total"); n != 1 {
		t.Fatalf("file channel fetches = %d, want 1: the case is not set up", n)
	}
	f, err := e.Session().Open("/vm/mem.vmss")
	if err != nil {
		t.Fatal(err)
	}
	patch := bytes.Repeat([]byte{0xab}, bs)
	if _, err := f.WriteAt(patch, bs); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("degraded close: %v", err)
	}
	copy(state[bs:], patch)

	if err := e.Session().Rename("/vm", "/vm2"); err != nil {
		t.Fatal(err)
	}
	if err := e.Hop().Proxy.WriteBack(); err != nil {
		t.Fatal(err)
	}
	if got, err := e.FS.ReadFile("/vm2/mem.vmss"); err != nil || !bytes.Equal(got, state) {
		t.Errorf("the origin's /vm2/mem.vmss after the write-back: %d bytes, %v; want the written state", len(got), err)
	}
	if _, err := e.FS.ReadFile("/vm/mem.vmss"); err == nil {
		t.Error("the origin has a file at the old path")
	}

	e.Session().DropCaches()
	if got, err := e.Session().ReadFile("/vm2/mem.vmss"); err != nil || !bytes.Equal(got, state) {
		t.Fatalf("read under the new path: %v", err)
	}
	var files []string
	for _, row := range e.Hop().Proxy.Statusz().Files["reads"] {
		files = append(files, row.File)
	}
	if !slices.Contains(files, "/vm2/mem.vmss") {
		t.Errorf("/statusz has no row for /vm2/mem.vmss: %q", files)
	}
}

// dirRenameToNoKnownPath: the directory moves into one whose handle the
// table holds without a path (a client kept it across a Flush, and its
// parent has not been listed since). Its file
// then has no path: it is read and written by handle, never through the
// file channel under the old path's bare suffix — which names another
// file at the export root.
func dirRenameToNoKnownPath(t *testing.T) {
	spec := oneHop(cache.WriteBack)
	spec.FileChan = true
	e := stacktest.New(t, spec)
	const bs = 8192
	state := bytes.Repeat([]byte{0x5a}, 4*bs)
	decoy := bytes.Repeat([]byte{0xde}, 4*bs)
	writeVMState(t, e.FS, state)
	e.FS.WriteFile("/mem.vmss", decoy)
	e.FS.WriteFile("/a/dst/keep", nil)

	p, nc, root := e.Hop().Proxy, e.Session().NFS(), e.Session().Root()
	a, _, err := nc.Lookup(root, "a")
	if err != nil {
		t.Fatal(err)
	}
	dst, _, err := nc.Lookup(a, "dst")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := nc.GetAttr(dst); err != nil { // the table has dst again, with no path
		t.Fatal(err)
	}
	vm, _, err := nc.Lookup(root, "vm")
	if err != nil {
		t.Fatal(err)
	}
	fh, _, err := nc.Lookup(vm, "mem.vmss")
	if err != nil {
		t.Fatal(err)
	}
	readAll := func(when string) []byte {
		t.Helper()
		var got []byte
		for off := uint64(0); off < uint64(len(state)); off += bs {
			data, _, err := nc.Read(fh, off, bs)
			if err != nil {
				t.Fatalf("%s: READ at %d: %v", when, off, err)
			}
			got = append(got, data...)
		}
		return got
	}
	if got := readAll("before the RENAME"); !bytes.Equal(got, state) {
		t.Fatal("the first read returned other bytes")
	}
	fetches := func() uint64 { return p.Snapshot().Counter("gvfs_proxy_filechan_fetches_total") }
	if n := fetches(); n != 1 {
		t.Fatalf("file channel fetches = %d, want 1: the case is not set up", n)
	}
	for i, b := range []byte{0xab, 0xcd} {
		if i == 1 {
			if err := nc.Rename(root, "vm", dst, "vm"); err != nil {
				t.Fatal(err)
			}
		}
		patch := bytes.Repeat([]byte{b}, bs)
		if _, _, err := nc.Write(fh, uint64(i+1)*bs, patch, nfs3.Unstable); err != nil {
			t.Fatal(err)
		}
		copy(state[(i+1)*bs:], patch)
	}
	if got := readAll("after the RENAME"); !bytes.Equal(got, state) {
		t.Errorf("the moved file reads as other bytes (the decoy's: %v)", bytes.Equal(got, decoy))
	}
	if n := fetches(); n != 1 {
		t.Errorf("file channel fetches = %d after the RENAME, want still 1: the file has no path now", n)
	}
	if err := p.WriteBack(); err != nil {
		t.Fatal(err)
	}
	if got, err := e.FS.ReadFile("/a/dst/vm/mem.vmss"); err != nil || !bytes.Equal(got, state) {
		t.Errorf("the origin's /a/dst/vm/mem.vmss after the write-back: %d bytes, %v; want the written state", len(got), err)
	}
	if got, _ := e.FS.ReadFile("/mem.vmss"); !bytes.Equal(got, decoy) {
		t.Error("the write-back reached /mem.vmss, the bare suffix of the old path")
	}
}

func TestIdentityMappingAtServerProxy(t *testing.T) {
	e := stacktest.New(t, oneHop(cache.WriteBack))
	if err := e.Session().WriteFile("/id.dat", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := e.Hop().Proxy.WriteBack(); err != nil {
		t.Fatal(err)
	}
	// The server-side proxy must have allocated a short-lived identity
	// for the session's grid user.
	if live := e.Server.Allocator.Live(); live == 0 {
		t.Error("no logical user account allocated at the server proxy")
	}
	if _, ok := e.Server.Allocator.Lookup("uid500@compute1"); !ok {
		t.Error("expected identity for uid500@compute1")
	}
}

func TestRemoveInvalidatesCaches(t *testing.T) {
	e := stacktest.New(t, oneHop(cache.WriteBack))
	payload := bytes.Repeat([]byte{1}, 16*1024)
	e.FS.WriteFile("/gone.dat", payload)
	if _, err := e.Session().ReadFile("/gone.dat"); err != nil {
		t.Fatal(err)
	}
	if err := e.Session().Remove("/gone.dat"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Session().ReadFile("/gone.dat"); err == nil {
		t.Error("read of removed file succeeded")
	}
}

func TestTruncateThroughProxy(t *testing.T) {
	e := stacktest.New(t, oneHop(cache.WriteBack))
	payload := bytes.Repeat([]byte{0xEE}, 20000)
	if err := e.Session().WriteFile("/t.dat", payload); err != nil {
		t.Fatal(err)
	}
	f, err := e.Session().Open("/t.dat")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Truncate(100); err != nil {
		t.Fatal(err)
	}
	e.Session().DropCaches()
	got, err := e.Session().ReadFile("/t.dat")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Errorf("size after truncate = %d, want 100", len(got))
	}
}

func TestOverwriteVisibleThroughCache(t *testing.T) {
	e := stacktest.New(t, oneHop(cache.WriteBack))
	e.FS.WriteFile("/o.dat", bytes.Repeat([]byte{1}, 8192))
	if _, err := e.Session().ReadFile("/o.dat"); err != nil {
		t.Fatal(err)
	}
	f, err := e.Session().Open("/o.dat")
	if err != nil {
		t.Fatal(err)
	}
	newData := bytes.Repeat([]byte{2}, 8192)
	if _, err := f.WriteAt(newData, 0); err != nil {
		t.Fatal(err)
	}
	f.Close()
	e.Session().DropCaches()
	got, err := e.Session().ReadFile("/o.dat")
	if err != nil || !bytes.Equal(got, newData) {
		t.Errorf("overwrite invisible: err=%v", err)
	}
}

func TestPartialBlockWriteMerging(t *testing.T) {
	e := stacktest.New(t, oneHop(cache.WriteBack))
	// Server has a full block; client writes a small prefix; the block
	// read back must merge old and new.
	orig := bytes.Repeat([]byte{0xCC}, 8192)
	e.FS.WriteFile("/m.dat", orig)
	f, err := e.Session().Open("/m.dat")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("HDR!"), 0); err != nil {
		t.Fatal(err)
	}
	f.Close()
	e.Session().DropCaches()
	got, err := e.Session().ReadFile("/m.dat")
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte("HDR!"), orig[4:]...)
	if !bytes.Equal(got, want) {
		t.Error("partial write clobbered block remainder")
	}
	// And the merge must survive flush to the server.
	if err := e.Hop().Proxy.Flush(); err != nil {
		t.Fatal(err)
	}
	data, _ := e.FS.ReadFile("/m.dat")
	if !bytes.Equal(data, want) {
		t.Error("server data wrong after flush of merged block")
	}
}

func TestCascadedProxies(t *testing.T) {
	// Two proxy levels (the paper's LAN second-level cache): client
	// proxy -> LAN proxy -> server proxy -> NFS server.
	payload := bytes.Repeat([]byte{0x42}, 64*1024)
	c := stacktest.New(t, stacktest.Spec{
		Seed: func(fs *memfs.FS) { fs.WriteFile("/vm.vmdk", payload) },
		Hops: []stack.ProxyOptions{
			{CacheConfig: &cache.Config{Banks: 8, SetsPerBank: 16, Assoc: 4, BlockSize: 8192, Policy: cache.WriteBack}},
			{CacheConfig: &cache.Config{Banks: 8, SetsPerBank: 16, Assoc: 4, BlockSize: 8192, Policy: cache.WriteThrough}},
		},
	})
	cliProxy, lanProxy := c.Hops[0], c.Hops[1]

	got, err := c.Session().ReadFile("/vm.vmdk")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("cascaded read failed: err=%v", err)
	}
	// Both levels saw the traffic.
	if lanProxy.Proxy.Snapshot().Counter("gvfs_proxy_read_misses_total") == 0 {
		t.Error("LAN proxy saw no read misses")
	}
	if cliProxy.Proxy.Snapshot().Counter("gvfs_proxy_read_misses_total") == 0 {
		t.Error("client proxy saw no read misses")
	}
}

func TestConcurrentSessionsThroughOneProxy(t *testing.T) {
	e := stacktest.New(t, oneHop(cache.WriteBack))
	for i := 0; i < 4; i++ {
		e.FS.WriteFile(fmt.Sprintf("/f%d", i), bytes.Repeat([]byte{byte(i)}, 32*1024))
	}
	done := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func(i int) {
			data, err := e.Session().ReadFile(fmt.Sprintf("/f%d", i))
			if err == nil && !bytes.Equal(data, bytes.Repeat([]byte{byte(i)}, 32*1024)) {
				err = fmt.Errorf("data mismatch for f%d", i)
			}
			done <- err
		}(i)
	}
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
}

func TestNoCacheProxyPureForwarding(t *testing.T) {
	e := stacktest.New(t, stacktest.Spec{Hops: []stack.ProxyOptions{{}}, Session: gvfs.SessionConfig{Cred: stacktest.Cred}})
	payload := bytes.Repeat([]byte{0x11}, 32*1024)
	e.FS.WriteFile("/p.dat", payload)
	got, err := e.Session().ReadFile("/p.dat")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("forwarding proxy read failed: %v", err)
	}
	if err := e.Session().WriteFile("/q.dat", payload); err != nil {
		t.Fatal(err)
	}
	data, err := e.FS.ReadFile("/q.dat")
	if err != nil || !bytes.Equal(data, payload) {
		t.Error("forwarding proxy write did not reach server")
	}
	st := e.Hop().Proxy.Snapshot()
	if h, w := st.Counter("gvfs_proxy_read_hits_total"), st.Counter("gvfs_proxy_writes_absorbed_total"); h != 0 || w != 0 {
		t.Errorf("cache activity on cacheless proxy: hits=%d absorbed=%d", h, w)
	}
}

func TestStatusErrorsPropagate(t *testing.T) {
	e := stacktest.New(t, oneHop(cache.WriteBack))
	if _, err := e.Session().Open("/does/not/exist"); nfs3.StatusOf(err) != nfs3.ErrNoEnt {
		t.Errorf("err = %v, want NOENT", err)
	}
}

func TestProxyWarmRestartWithPersistedIndex(t *testing.T) {
	payload := bytes.Repeat([]byte{0x3C}, 128*1024)
	server := stacktest.New(t, stacktest.Spec{
		Seed:      func(fs *memfs.FS) { fs.WriteFile("/warm.bin", payload) },
		NoSession: true,
	}).Server
	cfg := cache.Config{Dir: t.TempDir(), Banks: 16, SetsPerBank: 16, Assoc: 4,
		BlockSize: 8192, Policy: cache.WriteBack}
	lifetime := stacktest.Spec{Upstream: stacktest.Own,
		Hops: []stack.ProxyOptions{{UpstreamAddr: server.ProxyAddr(), CacheConfig: &cfg}}}

	// First proxy lifetime: read everything, save the index.
	first := stacktest.New(t, lifetime)
	if _, err := first.Session().ReadFile("/warm.bin"); err != nil {
		t.Fatal(err)
	}
	if err := first.Hop().Proxy.WriteBack(); err != nil {
		t.Fatal(err)
	}
	if err := first.Hop().BlockCache.SaveIndex(); err != nil {
		t.Fatal(err)
	}
	first.Close()

	// Second lifetime over the same directory: reads hit immediately.
	second := stacktest.New(t, lifetime)
	got, err := second.Session().ReadFile("/warm.bin")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("read after restart: %v", err)
	}
	st := second.Hop().Proxy.Snapshot()
	if st.Counter("gvfs_proxy_read_hits_total") == 0 {
		t.Error("no cache hits after warm restart")
	}
	if m := st.Counter("gvfs_proxy_read_misses_total"); m != 0 {
		t.Errorf("%d misses after warm restart, want 0", m)
	}
}

func TestCascadedWriteConsistency(t *testing.T) {
	// Writes absorbed by a first-level write-back proxy must reach the
	// end server through a second-level (write-through) proxy when the
	// middleware settles the session.
	c := stacktest.New(t, stacktest.Spec{Hops: []stack.ProxyOptions{
		{CacheConfig: &cache.Config{Banks: 8, SetsPerBank: 8, Assoc: 2, BlockSize: 8192, Policy: cache.WriteBack}},
		{CacheConfig: &cache.Config{Banks: 8, SetsPerBank: 8, Assoc: 2, BlockSize: 8192, Policy: cache.WriteThrough}},
	}})
	cliProxy, lanProxy := c.Hops[0], c.Hops[1]

	payload := bytes.Repeat([]byte{0xBE}, 40*1024)
	if err := c.Session().WriteFile("/cascade.dat", payload); err != nil {
		t.Fatal(err)
	}
	if data, _ := c.FS.ReadFile("/cascade.dat"); bytes.Equal(data, payload) {
		t.Fatal("data reached server before flush")
	}
	if err := cliProxy.Proxy.WriteBack(); err != nil {
		t.Fatal(err)
	}
	data, err := c.FS.ReadFile("/cascade.dat")
	if err != nil || !bytes.Equal(data, payload) {
		t.Fatalf("data wrong after cascaded write-back: %v", err)
	}
	// The middle (write-through) proxy now also has the fresh blocks
	// cached: a cold client re-read must not produce stale data.
	got, err := c.Mount(gvfs.SessionConfig{Addr: lanProxy.Addr}).ReadFile("/cascade.dat")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("stale data at LAN level: %v", err)
	}
}

func TestTwoSessionsShareProxyState(t *testing.T) {
	// Two sessions on the same compute server (e.g. middleware and VM
	// monitor) see each other's absorbed writes through the shared
	// client proxy — the paper's session owns the data at the proxy.
	e := stacktest.New(t, oneHop(cache.WriteBack))
	payload := bytes.Repeat([]byte{0x66}, 24*1024)
	if err := e.Session().WriteFile("/shared.dat", payload); err != nil {
		t.Fatal(err)
	}
	got, err := e.Mount(gvfs.SessionConfig{}).ReadFile("/shared.dat")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("second session missed absorbed writes: %v", err)
	}
}

func TestIdleWriteBackPropagates(t *testing.T) {
	e := stacktest.New(t, oneHop(cache.WriteBack))
	stop := e.Hop().Proxy.StartIdleWriteBack(300 * time.Millisecond)
	defer stop()
	payload := bytes.Repeat([]byte{0x77}, 16*1024)
	if err := e.Session().WriteFile("/idle.dat", payload); err != nil {
		t.Fatal(err)
	}
	// Without any explicit flush, the idle writer must settle the
	// session within a few idle periods.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if data, err := e.FS.ReadFile("/idle.dat"); err == nil && bytes.Equal(data, payload) {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatal("idle write-back never propagated the session's data")
}

func TestIdleWriteBackStop(t *testing.T) {
	e := stacktest.New(t, oneHop(cache.WriteBack))
	stop := e.Hop().Proxy.StartIdleWriteBack(100 * time.Millisecond)
	stop()
	stop() // double-stop must be safe
	if err := e.Session().WriteFile("/kept.dat", []byte("dirty")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(400 * time.Millisecond)
	if _, err := e.FS.ReadFile("/kept.dat"); err == nil {
		if data, _ := e.FS.ReadFile("/kept.dat"); len(data) > 0 {
			t.Error("stopped idle writer still propagated data")
		}
	}
}

func TestSharedReadOnlyCache(t *testing.T) {
	// Two proxies (two compute sessions on one host) share a single
	// read-only disk cache: the second proxy hits on blocks the first
	// one fetched (paper §3.2.1 shared read-only caches).
	payload := bytes.Repeat([]byte{0xC0}, 64*1024)
	origin := stacktest.New(t, stacktest.Spec{
		Seed:      func(fs *memfs.FS) { fs.WriteFile("/golden.vmdk", payload) },
		NoSession: true,
	})
	fs := origin.FS

	cfg := cache.Config{Dir: t.TempDir(), Banks: 8, SetsPerBank: 8, Assoc: 2,
		BlockSize: 8192, Policy: cache.WriteThrough, ReadOnly: true}
	shared, err := cache.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer shared.Close()

	mkProxy := func() (*stack.Node, *gvfs.Session) {
		c := stacktest.New(t, stacktest.Spec{Upstream: stacktest.Own, Hops: []stack.ProxyOptions{{
			UpstreamAddr: origin.Server.ProxyAddr(), SharedBlockCache: shared}}})
		return c.Hop(), c.Session()
	}

	nodeA, sessA := mkProxy()
	if _, err := sessA.ReadFile("/golden.vmdk"); err != nil {
		t.Fatal(err)
	}
	if nodeA.Proxy.Snapshot().Counter("gvfs_proxy_read_misses_total") == 0 {
		t.Fatal("first proxy should miss")
	}

	nodeB, sessB := mkProxy()
	got, err := sessB.ReadFile("/golden.vmdk")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("second proxy read: %v", err)
	}
	st := nodeB.Proxy.Snapshot()
	if st.Counter("gvfs_proxy_read_hits_total") == 0 {
		t.Error("second proxy got no hits from the shared cache")
	}
	if m := st.Counter("gvfs_proxy_read_misses_total"); m != 0 {
		t.Errorf("second proxy missed %d blocks despite shared cache", m)
	}

	// Writes through a read-only shared cache pass through and drop
	// the stale frames.
	patch := bytes.Repeat([]byte{0xFF}, 8192)
	f, err := sessB.Open("/golden.vmdk")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(patch, 0); err != nil {
		t.Fatal(err)
	}
	f.Close()
	data, _ := fs.ReadFile("/golden.vmdk")
	if !bytes.Equal(data[:8192], patch) {
		t.Error("write did not pass through to the server")
	}
	sessA.DropCaches()
	fresh, err := sessA.ReadFile("/golden.vmdk")
	if err != nil || !bytes.Equal(fresh[:8192], patch) {
		t.Error("stale block served from shared cache after write")
	}
}

func TestSharedCacheMustBeReadOnly(t *testing.T) {
	cfg := cache.Config{Dir: t.TempDir(), Banks: 2, SetsPerBank: 2, Assoc: 2, BlockSize: 512}
	writable, err := cache.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer writable.Close()
	if _, err := stacktest.Start(t, stacktest.Spec{Upstream: stacktest.NFS,
		Hops: []stack.ProxyOptions{{SharedBlockCache: writable}}}); err == nil {
		t.Error("writable shared cache accepted")
	}
}
