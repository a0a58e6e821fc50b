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
	"gvfs/internal/mountd"
	"gvfs/internal/nfs3"
	"gvfs/internal/simnet"
	"gvfs/internal/stack"
	"gvfs/internal/sunrpc"

	gvfs "gvfs"
)

// env is a full test deployment: image server, one client proxy, and a
// mounted session.
type env struct {
	fs      *memfs.FS
	server  *stack.ImageServer
	proxyN  *stack.Node
	session *gvfs.Session
}

type envOptions struct {
	policy   cache.Policy
	noCache  bool
	fileChan bool
	pages    int
	link     *simnet.Link // the path to the image server, when a test counts what crosses it
}

func newEnv(t testing.TB, o envOptions) *env {
	t.Helper()
	fs := memfs.New()
	server, err := stack.StartImageServer(fs, stack.ImageServerOptions{Link: o.link})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(server.Close)

	popts := stack.ProxyOptions{UpstreamAddr: server.ProxyAddr(), UpstreamLink: o.link}
	if !o.noCache {
		cfg := cache.Config{
			Dir: t.TempDir(), Banks: 16, SetsPerBank: 16, Assoc: 4,
			BlockSize: 8192, Policy: o.policy,
		}
		popts.CacheConfig = &cfg
	}
	if o.fileChan {
		popts.FileChanAddr = server.FileChanAddr()
	}
	proxyN, err := stack.StartProxy(popts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(proxyN.Close)

	sess, err := gvfs.Mount(gvfs.SessionConfig{
		Addr:           proxyN.Addr,
		Export:         "/",
		Cred:           sunrpc.UnixCred{UID: 500, GID: 500, MachineName: "compute1"}.Encode(),
		PageCachePages: o.pages,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Close() })
	return &env{fs: fs, server: server, proxyN: proxyN, session: sess}
}

func TestReadThroughProxyChain(t *testing.T) {
	e := newEnv(t, envOptions{policy: cache.WriteBack})
	payload := bytes.Repeat([]byte("GridVM"), 10000)
	e.fs.WriteFile("/images/vm.vmdk", payload)

	got, err := e.session.ReadFile("/images/vm.vmdk")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("read through chain: %d bytes, want %d", len(got), len(payload))
	}
}

func TestProxyCacheHitsOnRereadAfterPageCacheDrop(t *testing.T) {
	e := newEnv(t, envOptions{policy: cache.WriteBack, pages: 4})
	payload := bytes.Repeat([]byte{0x5a}, 64*1024)
	e.fs.WriteFile("/vm.vmdk", payload)

	if _, err := e.session.ReadFile("/vm.vmdk"); err != nil {
		t.Fatal(err)
	}
	beforeMisses := e.proxyN.Proxy.Snapshot().Counter("gvfs_proxy_read_misses_total")
	if beforeMisses == 0 {
		t.Fatal("first read should miss in the proxy cache")
	}

	// Drop the client memory cache: re-reads must hit the proxy disk
	// cache, not the server.
	e.session.DropCaches()
	if _, err := e.session.ReadFile("/vm.vmdk"); err != nil {
		t.Fatal(err)
	}
	after := e.proxyN.Proxy.Snapshot()
	if after.Counter("gvfs_proxy_read_hits_total") == 0 {
		t.Error("re-read produced no proxy cache hits")
	}
	if m := after.Counter("gvfs_proxy_read_misses_total"); m != beforeMisses {
		t.Errorf("re-read missed in proxy cache: %d -> %d", beforeMisses, m)
	}
}

func TestWriteBackAbsorbsWrites(t *testing.T) {
	e := newEnv(t, envOptions{policy: cache.WriteBack})
	payload := bytes.Repeat([]byte{7}, 32*1024)
	if err := e.session.WriteFile("/out.dat", payload); err != nil {
		t.Fatal(err)
	}
	if n := e.proxyN.Proxy.Snapshot().Counter("gvfs_proxy_writes_absorbed_total"); n == 0 {
		t.Fatal("no writes absorbed under write-back")
	}
	// Server must NOT have the data yet.
	if data, err := e.fs.ReadFile("/out.dat"); err == nil && bytes.Equal(data, payload) {
		t.Fatal("write-back leaked data to server before flush")
	}
	// Reads through the same proxy see the absorbed data.
	got, err := e.session.ReadFile("/out.dat")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("read-your-writes failed: err=%v", err)
	}
	// Middleware write-back propagates it.
	if err := e.proxyN.Proxy.WriteBack(); err != nil {
		t.Fatal(err)
	}
	data, err := e.fs.ReadFile("/out.dat")
	if err != nil || !bytes.Equal(data, payload) {
		t.Fatalf("server data after WriteBack: err=%v len=%d", err, len(data))
	}
}

func TestWriteThroughPropagatesImmediately(t *testing.T) {
	e := newEnv(t, envOptions{policy: cache.WriteThrough})
	payload := bytes.Repeat([]byte{9}, 16*1024)
	if err := e.session.WriteFile("/wt.dat", payload); err != nil {
		t.Fatal(err)
	}
	data, err := e.fs.ReadFile("/wt.dat")
	if err != nil || !bytes.Equal(data, payload) {
		t.Fatalf("write-through did not reach server: err=%v", err)
	}
}

func TestFlushPropagatesAndInvalidates(t *testing.T) {
	e := newEnv(t, envOptions{policy: cache.WriteBack})
	payload := bytes.Repeat([]byte{3}, 24*1024)
	if err := e.session.WriteFile("/f.dat", payload); err != nil {
		t.Fatal(err)
	}
	if err := e.proxyN.Proxy.Flush(); err != nil {
		t.Fatal(err)
	}
	data, err := e.fs.ReadFile("/f.dat")
	if err != nil || !bytes.Equal(data, payload) {
		t.Fatalf("flush did not propagate: err=%v", err)
	}
	// After flush the proxy cache is cold again.
	e.session.DropCaches()
	before := e.proxyN.Proxy.Snapshot().Counter("gvfs_proxy_read_misses_total")
	if _, err := e.session.ReadFile("/f.dat"); err != nil {
		t.Fatal(err)
	}
	after := e.proxyN.Proxy.Snapshot().Counter("gvfs_proxy_read_misses_total")
	if after == before {
		t.Error("proxy cache unexpectedly warm after flush")
	}
}

func TestGetattrSeesAbsorbedSize(t *testing.T) {
	e := newEnv(t, envOptions{policy: cache.WriteBack})
	payload := make([]byte, 20000)
	if err := e.session.WriteFile("/grow.dat", payload); err != nil {
		t.Fatal(err)
	}
	attr, err := e.session.Stat("/grow.dat")
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
	e := newEnv(t, envOptions{policy: cache.WriteBack, link: link})
	// A "memory state" that is mostly zero.
	const bs = 8192
	state := make([]byte, 64*bs)
	copy(state[5*bs:], bytes.Repeat([]byte{0xAB}, bs)) // one non-zero block
	e.fs.WriteFile("/vm/mem.vmss", state)

	m := meta.GenerateZeroMap(state, bs)
	blob, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	e.fs.WriteFile("/vm/"+meta.NameFor("mem.vmss"), blob)

	for _, pass := range []string{"cold", "block cache warm"} {
		before := link.Stats().Received
		got, err := e.session.ReadFile("/vm/mem.vmss")
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
	snap := e.proxyN.Proxy.Snapshot()
	if n := snap.Counter("gvfs_proxy_zero_filtered_total"); n == 0 {
		t.Error("no READ was answered wholly from the zero map")
	}
	if n := snap.Counter("gvfs_blockcache_insertions_total"); n != 1 {
		t.Errorf("%d blocks inserted into the block cache, want 1: blocks the map calls zero are not fetched", n)
	}
}

func TestFileChannelFetch(t *testing.T) {
	e := newEnv(t, envOptions{policy: cache.WriteBack, fileChan: true})
	const bs = 8192
	state := make([]byte, 32*bs)
	for i := 0; i < len(state); i += 7 {
		state[i] = byte(i)
	}
	e.fs.WriteFile("/vm/mem.vmss", state)
	m := meta.ForWholeFile(state, bs)
	blob, _ := m.Encode()
	e.fs.WriteFile("/vm/"+meta.NameFor("mem.vmss"), blob)

	got, err := e.session.ReadFile("/vm/mem.vmss")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, state) {
		t.Fatal("file-channel read corrupted data")
	}
	st := e.proxyN.Proxy.Snapshot()
	if n := st.Counter("gvfs_proxy_filechan_fetches_total"); n != 1 {
		t.Errorf("file channel fetches = %d, want 1", n)
	}
	if st.Counter("gvfs_proxy_filechan_reads_total") == 0 {
		t.Error("no reads served from the file cache")
	}
	// Re-read after dropping the client cache: still served locally,
	// with no second fetch.
	e.session.DropCaches()
	if _, err := e.session.ReadFile("/vm/mem.vmss"); err != nil {
		t.Fatal(err)
	}
	if n := e.proxyN.Proxy.Snapshot().Counter("gvfs_proxy_filechan_fetches_total"); n != 1 {
		t.Errorf("re-read refetched the file: %d fetches", n)
	}
}

// TestFetchedFileGoesBackWhole: the blocks a session wrote into a file it
// fetched through the file channel go back the way the file came — one
// whole-file transfer read from the block cache, zero-map blocks as zeros,
// no upstream WRITE — while the cache holds the file whole; once a block
// of it has left the cache they go back in runs, as any other file's.
func TestFetchedFileGoesBackWhole(t *testing.T) {
	e := newEnv(t, envOptions{policy: cache.WriteBack, fileChan: true})
	const bs = 8192
	state := make([]byte, 16*bs) // zero but for blocks 2, 3 and 9
	for _, b := range []int{2, 3, 9} {
		copy(state[b*bs:], bytes.Repeat([]byte{byte(b)}, bs))
	}
	e.fs.WriteFile("/vm/mem.vmss", state)
	blob, _ := meta.ForWholeFile(state, bs).Encode()
	e.fs.WriteFile("/vm/"+meta.NameFor("mem.vmss"), blob)
	if got, err := e.session.ReadFile("/vm/mem.vmss"); err != nil || !bytes.Equal(got, state) {
		t.Fatalf("first read: %v", err)
	}
	p, bc := e.proxyN.Proxy, e.proxyN.BlockCache
	upstreamWrites := func() uint64 {
		return e.server.Proxy.Metrics.Snapshot().Histograms[`gvfs_proxy_rpc_duration_seconds{proc="WRITE"}`].Count
	}
	f, err := e.session.Open("/vm/mem.vmss")
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
		before := upstreamWrites()
		if err := p.WriteBack(); err != nil {
			t.Fatal(err)
		}
		if got, _ := e.fs.ReadFile("/vm/mem.vmss"); !bytes.Equal(got, state) {
			t.Errorf("pass %d: the origin does not hold the written state", pass)
		}
		if n := upstreamWrites() - before; whole != (n == 0) {
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
	e := newEnv(t, envOptions{policy: cache.WriteBack, fileChan: true})
	const bs = 8192
	state := make([]byte, 4*bs)
	for i := range state {
		state[i] = byte(i * 7)
	}
	e.fs.WriteFile("/vm/mem.vmss", state)
	blob, _ := meta.ForWholeFile(state, bs).Encode()
	e.fs.WriteFile("/vm/"+meta.NameFor("mem.vmss"), blob)
	if got, err := e.session.ReadFile("/vm/mem.vmss"); err != nil || !bytes.Equal(got, state) {
		t.Fatalf("first read: %v", err)
	}
	if n := e.proxyN.Proxy.Snapshot().Counter("gvfs_proxy_filechan_fetches_total"); n != 1 {
		t.Fatalf("file channel fetches = %d, want 1: the case is not set up", n)
	}
	f, err := e.session.Open("/vm/mem.vmss")
	if err != nil {
		t.Fatal(err)
	}
	patch := bytes.Repeat([]byte{0xab}, bs)
	if _, err := f.WriteAt(patch, bs); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	copy(state[bs:], patch)

	if err := e.session.Rename("/vm", "/vm2"); err != nil {
		t.Fatal(err)
	}
	if err := e.proxyN.Proxy.WriteBack(); err != nil {
		t.Fatal(err)
	}
	if got, err := e.fs.ReadFile("/vm2/mem.vmss"); err != nil || !bytes.Equal(got, state) {
		t.Errorf("the origin's /vm2/mem.vmss after the write-back: %d bytes, %v; want the written state", len(got), err)
	}
	if _, err := e.fs.ReadFile("/vm/mem.vmss"); err == nil {
		t.Error("the origin has a file at the old path")
	}

	e.session.DropCaches()
	if got, err := e.session.ReadFile("/vm2/mem.vmss"); err != nil || !bytes.Equal(got, state) {
		t.Fatalf("read under the new path: %v", err)
	}
	var files []string
	for _, row := range e.proxyN.Proxy.Statusz().Files["reads"] {
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
	e := newEnv(t, envOptions{policy: cache.WriteBack, fileChan: true})
	const bs = 8192
	state := bytes.Repeat([]byte{0x5a}, 4*bs)
	decoy := bytes.Repeat([]byte{0xde}, 4*bs)
	e.fs.WriteFile("/vm/mem.vmss", state)
	blob, _ := meta.ForWholeFile(state, bs).Encode()
	e.fs.WriteFile("/vm/"+meta.NameFor("mem.vmss"), blob)
	e.fs.WriteFile("/mem.vmss", decoy)
	e.fs.WriteFile("/a/dst/keep", nil)

	p := e.proxyN.Proxy
	cred := sunrpc.UnixCred{UID: 500, GID: 500, MachineName: "compute1"}.Encode()
	root, err := mountd.Mount(sunrpc.Local{H: p}, cred, "/")
	if err != nil {
		t.Fatal(err)
	}
	nc := nfs3.NewClient(sunrpc.Local{H: p}, cred)
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
	if got, err := e.fs.ReadFile("/a/dst/vm/mem.vmss"); err != nil || !bytes.Equal(got, state) {
		t.Errorf("the origin's /a/dst/vm/mem.vmss after the write-back: %d bytes, %v; want the written state", len(got), err)
	}
	if got, _ := e.fs.ReadFile("/mem.vmss"); !bytes.Equal(got, decoy) {
		t.Error("the write-back reached /mem.vmss, the bare suffix of the old path")
	}
}

func TestIdentityMappingAtServerProxy(t *testing.T) {
	e := newEnv(t, envOptions{policy: cache.WriteBack})
	if err := e.session.WriteFile("/id.dat", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := e.proxyN.Proxy.WriteBack(); err != nil {
		t.Fatal(err)
	}
	// The server-side proxy must have allocated a short-lived identity
	// for the session's grid user.
	if live := e.server.Allocator.Live(); live == 0 {
		t.Error("no logical user account allocated at the server proxy")
	}
	if _, ok := e.server.Allocator.Lookup("uid500@compute1"); !ok {
		t.Error("expected identity for uid500@compute1")
	}
}

func TestRemoveInvalidatesCaches(t *testing.T) {
	e := newEnv(t, envOptions{policy: cache.WriteBack})
	payload := bytes.Repeat([]byte{1}, 16*1024)
	e.fs.WriteFile("/gone.dat", payload)
	if _, err := e.session.ReadFile("/gone.dat"); err != nil {
		t.Fatal(err)
	}
	if err := e.session.Remove("/gone.dat"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.session.ReadFile("/gone.dat"); err == nil {
		t.Error("read of removed file succeeded")
	}
}

func TestTruncateThroughProxy(t *testing.T) {
	e := newEnv(t, envOptions{policy: cache.WriteBack})
	payload := bytes.Repeat([]byte{0xEE}, 20000)
	if err := e.session.WriteFile("/t.dat", payload); err != nil {
		t.Fatal(err)
	}
	f, err := e.session.Open("/t.dat")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Truncate(100); err != nil {
		t.Fatal(err)
	}
	e.session.DropCaches()
	got, err := e.session.ReadFile("/t.dat")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Errorf("size after truncate = %d, want 100", len(got))
	}
}

func TestOverwriteVisibleThroughCache(t *testing.T) {
	e := newEnv(t, envOptions{policy: cache.WriteBack})
	e.fs.WriteFile("/o.dat", bytes.Repeat([]byte{1}, 8192))
	if _, err := e.session.ReadFile("/o.dat"); err != nil {
		t.Fatal(err)
	}
	f, err := e.session.Open("/o.dat")
	if err != nil {
		t.Fatal(err)
	}
	newData := bytes.Repeat([]byte{2}, 8192)
	if _, err := f.WriteAt(newData, 0); err != nil {
		t.Fatal(err)
	}
	f.Close()
	e.session.DropCaches()
	got, err := e.session.ReadFile("/o.dat")
	if err != nil || !bytes.Equal(got, newData) {
		t.Errorf("overwrite invisible: err=%v", err)
	}
}

func TestPartialBlockWriteMerging(t *testing.T) {
	e := newEnv(t, envOptions{policy: cache.WriteBack})
	// Server has a full block; client writes a small prefix; the block
	// read back must merge old and new.
	orig := bytes.Repeat([]byte{0xCC}, 8192)
	e.fs.WriteFile("/m.dat", orig)
	f, err := e.session.Open("/m.dat")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("HDR!"), 0); err != nil {
		t.Fatal(err)
	}
	f.Close()
	e.session.DropCaches()
	got, err := e.session.ReadFile("/m.dat")
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte("HDR!"), orig[4:]...)
	if !bytes.Equal(got, want) {
		t.Error("partial write clobbered block remainder")
	}
	// And the merge must survive flush to the server.
	if err := e.proxyN.Proxy.Flush(); err != nil {
		t.Fatal(err)
	}
	data, _ := e.fs.ReadFile("/m.dat")
	if !bytes.Equal(data, want) {
		t.Error("server data wrong after flush of merged block")
	}
}

func TestCascadedProxies(t *testing.T) {
	// Two proxy levels (the paper's LAN second-level cache): client
	// proxy -> LAN proxy -> server proxy -> NFS server.
	fs := memfs.New()
	payload := bytes.Repeat([]byte{0x42}, 64*1024)
	fs.WriteFile("/vm.vmdk", payload)
	server, err := stack.StartImageServer(fs, stack.ImageServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	lanCfg := cache.Config{Dir: t.TempDir(), Banks: 8, SetsPerBank: 16, Assoc: 4, BlockSize: 8192, Policy: cache.WriteThrough}
	lanProxy, err := stack.StartProxy(stack.ProxyOptions{
		UpstreamAddr: server.ProxyAddr(),
		CacheConfig:  &lanCfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lanProxy.Close()

	cliCfg := cache.Config{Dir: t.TempDir(), Banks: 8, SetsPerBank: 16, Assoc: 4, BlockSize: 8192, Policy: cache.WriteBack}
	cliProxy, err := stack.StartProxy(stack.ProxyOptions{
		UpstreamAddr: lanProxy.Addr,
		CacheConfig:  &cliCfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cliProxy.Close()

	sess, err := gvfs.Mount(gvfs.SessionConfig{Addr: cliProxy.Addr, Export: "/"})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	got, err := sess.ReadFile("/vm.vmdk")
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
	e := newEnv(t, envOptions{policy: cache.WriteBack})
	for i := 0; i < 4; i++ {
		e.fs.WriteFile(fmt.Sprintf("/f%d", i), bytes.Repeat([]byte{byte(i)}, 32*1024))
	}
	done := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func(i int) {
			data, err := e.session.ReadFile(fmt.Sprintf("/f%d", i))
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
	e := newEnv(t, envOptions{noCache: true})
	payload := bytes.Repeat([]byte{0x11}, 32*1024)
	e.fs.WriteFile("/p.dat", payload)
	got, err := e.session.ReadFile("/p.dat")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("forwarding proxy read failed: %v", err)
	}
	if err := e.session.WriteFile("/q.dat", payload); err != nil {
		t.Fatal(err)
	}
	data, err := e.fs.ReadFile("/q.dat")
	if err != nil || !bytes.Equal(data, payload) {
		t.Error("forwarding proxy write did not reach server")
	}
	st := e.proxyN.Proxy.Snapshot()
	if h, w := st.Counter("gvfs_proxy_read_hits_total"), st.Counter("gvfs_proxy_writes_absorbed_total"); h != 0 || w != 0 {
		t.Errorf("cache activity on cacheless proxy: hits=%d absorbed=%d", h, w)
	}
}

func TestStatusErrorsPropagate(t *testing.T) {
	e := newEnv(t, envOptions{policy: cache.WriteBack})
	if _, err := e.session.Open("/does/not/exist"); nfs3.StatusOf(err) != nfs3.ErrNoEnt {
		t.Errorf("err = %v, want NOENT", err)
	}
}

func TestProxyWarmRestartWithPersistedIndex(t *testing.T) {
	fs := memfs.New()
	payload := bytes.Repeat([]byte{0x3C}, 128*1024)
	fs.WriteFile("/warm.bin", payload)
	server, err := stack.StartImageServer(fs, stack.ImageServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	cacheDir := t.TempDir()
	cfg := cache.Config{Dir: cacheDir, Banks: 16, SetsPerBank: 16, Assoc: 4,
		BlockSize: 8192, Policy: cache.WriteBack}

	// First proxy lifetime: read everything, save the index.
	node1, err := stack.StartProxy(stack.ProxyOptions{
		UpstreamAddr: server.ProxyAddr(), CacheConfig: &cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	sess1, err := gvfs.Mount(gvfs.SessionConfig{Addr: node1.Addr, Export: "/"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess1.ReadFile("/warm.bin"); err != nil {
		t.Fatal(err)
	}
	if err := node1.Proxy.WriteBack(); err != nil {
		t.Fatal(err)
	}
	if err := node1.BlockCache.SaveIndex(); err != nil {
		t.Fatal(err)
	}
	sess1.Close()
	node1.Close()

	// Second lifetime over the same directory: reads hit immediately.
	node2, err := stack.StartProxy(stack.ProxyOptions{
		UpstreamAddr: server.ProxyAddr(), CacheConfig: &cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node2.Close()
	sess2, err := gvfs.Mount(gvfs.SessionConfig{Addr: node2.Addr, Export: "/"})
	if err != nil {
		t.Fatal(err)
	}
	defer sess2.Close()
	got, err := sess2.ReadFile("/warm.bin")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("read after restart: %v", err)
	}
	st := node2.Proxy.Snapshot()
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
	fs := memfs.New()
	server, err := stack.StartImageServer(fs, stack.ImageServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	lanCfg := cache.Config{Dir: t.TempDir(), Banks: 8, SetsPerBank: 8, Assoc: 2,
		BlockSize: 8192, Policy: cache.WriteThrough}
	lanProxy, err := stack.StartProxy(stack.ProxyOptions{
		UpstreamAddr: server.ProxyAddr(), CacheConfig: &lanCfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lanProxy.Close()

	cliCfg := cache.Config{Dir: t.TempDir(), Banks: 8, SetsPerBank: 8, Assoc: 2,
		BlockSize: 8192, Policy: cache.WriteBack}
	cliProxy, err := stack.StartProxy(stack.ProxyOptions{
		UpstreamAddr: lanProxy.Addr, CacheConfig: &cliCfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cliProxy.Close()

	sess, err := gvfs.Mount(gvfs.SessionConfig{Addr: cliProxy.Addr, Export: "/"})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	payload := bytes.Repeat([]byte{0xBE}, 40*1024)
	if err := sess.WriteFile("/cascade.dat", payload); err != nil {
		t.Fatal(err)
	}
	if data, _ := fs.ReadFile("/cascade.dat"); bytes.Equal(data, payload) {
		t.Fatal("data reached server before flush")
	}
	if err := cliProxy.Proxy.WriteBack(); err != nil {
		t.Fatal(err)
	}
	data, err := fs.ReadFile("/cascade.dat")
	if err != nil || !bytes.Equal(data, payload) {
		t.Fatalf("data wrong after cascaded write-back: %v", err)
	}
	// The middle (write-through) proxy now also has the fresh blocks
	// cached: a cold client re-read must not produce stale data.
	sess2, err := gvfs.Mount(gvfs.SessionConfig{Addr: lanProxy.Addr, Export: "/"})
	if err != nil {
		t.Fatal(err)
	}
	defer sess2.Close()
	got, err := sess2.ReadFile("/cascade.dat")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("stale data at LAN level: %v", err)
	}
}

func TestTwoSessionsShareProxyState(t *testing.T) {
	// Two sessions on the same compute server (e.g. middleware and VM
	// monitor) see each other's absorbed writes through the shared
	// client proxy — the paper's session owns the data at the proxy.
	e := newEnv(t, envOptions{policy: cache.WriteBack})
	payload := bytes.Repeat([]byte{0x66}, 24*1024)
	if err := e.session.WriteFile("/shared.dat", payload); err != nil {
		t.Fatal(err)
	}
	sess2, err := gvfs.Mount(gvfs.SessionConfig{Addr: e.proxyN.Addr, Export: "/"})
	if err != nil {
		t.Fatal(err)
	}
	defer sess2.Close()
	got, err := sess2.ReadFile("/shared.dat")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("second session missed absorbed writes: %v", err)
	}
}

func TestIdleWriteBackPropagates(t *testing.T) {
	e := newEnv(t, envOptions{policy: cache.WriteBack})
	stop := e.proxyN.Proxy.StartIdleWriteBack(300 * time.Millisecond)
	defer stop()
	payload := bytes.Repeat([]byte{0x77}, 16*1024)
	if err := e.session.WriteFile("/idle.dat", payload); err != nil {
		t.Fatal(err)
	}
	// Without any explicit flush, the idle writer must settle the
	// session within a few idle periods.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if data, err := e.fs.ReadFile("/idle.dat"); err == nil && bytes.Equal(data, payload) {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatal("idle write-back never propagated the session's data")
}

func TestIdleWriteBackStop(t *testing.T) {
	e := newEnv(t, envOptions{policy: cache.WriteBack})
	stop := e.proxyN.Proxy.StartIdleWriteBack(100 * time.Millisecond)
	stop()
	stop() // double-stop must be safe
	if err := e.session.WriteFile("/kept.dat", []byte("dirty")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(400 * time.Millisecond)
	if _, err := e.fs.ReadFile("/kept.dat"); err == nil {
		if data, _ := e.fs.ReadFile("/kept.dat"); len(data) > 0 {
			t.Error("stopped idle writer still propagated data")
		}
	}
}

func TestSharedReadOnlyCache(t *testing.T) {
	// Two proxies (two compute sessions on one host) share a single
	// read-only disk cache: the second proxy hits on blocks the first
	// one fetched (paper §3.2.1 shared read-only caches).
	fs := memfs.New()
	payload := bytes.Repeat([]byte{0xC0}, 64*1024)
	fs.WriteFile("/golden.vmdk", payload)
	server, err := stack.StartImageServer(fs, stack.ImageServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	cfg := cache.Config{Dir: t.TempDir(), Banks: 8, SetsPerBank: 8, Assoc: 2,
		BlockSize: 8192, Policy: cache.WriteThrough, ReadOnly: true}
	shared, err := cache.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer shared.Close()

	mkProxy := func() (*stack.Node, *gvfs.Session) {
		node, err := stack.StartProxy(stack.ProxyOptions{
			UpstreamAddr:     server.ProxyAddr(),
			SharedBlockCache: shared,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(node.Close)
		sess, err := gvfs.Mount(gvfs.SessionConfig{Addr: node.Addr, Export: "/"})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sess.Close() })
		return node, sess
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
	fs := memfs.New()
	node, err := stack.StartNFSServer(fs, stack.NFSServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	if _, err := stack.StartProxy(stack.ProxyOptions{
		UpstreamAddr:     node.Addr,
		SharedBlockCache: writable,
	}); err == nil {
		t.Error("writable shared cache accepted")
	}
}
