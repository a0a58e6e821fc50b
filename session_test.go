package gvfs_test

import (
	"bytes"
	"io"
	"sync"
	"sync/atomic"
	"testing"

	gvfs "gvfs"
	"gvfs/internal/memfs"
	"gvfs/internal/nfs3"
	"gvfs/internal/stack"
	"gvfs/internal/sunrpc"
)

// mountTestSession wires a session straight to a memfs NFS server.
func mountTestSession(t testing.TB, pages int) (*gvfs.Session, *memfs.FS) {
	t.Helper()
	fs := memfs.New()
	node, err := stack.StartNFSServer(fs, stack.NFSServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Close)
	sess, err := gvfs.Mount(gvfs.SessionConfig{
		Addr:           node.Addr,
		Export:         "/",
		Cred:           sunrpc.UnixCred{UID: 1, GID: 1, MachineName: "t"}.Encode(),
		PageCachePages: pages,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Close() })
	return sess, fs
}

func TestMountBadAddress(t *testing.T) {
	if _, err := gvfs.Mount(gvfs.SessionConfig{Addr: "127.0.0.1:1"}); err == nil {
		t.Error("mount to closed port succeeded")
	}
}

func TestMountBadBlockSize(t *testing.T) {
	if _, err := gvfs.Mount(gvfs.SessionConfig{Addr: "x", BlockSize: 65536}); err == nil {
		t.Error("oversized block size accepted")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	sess, _ := mountTestSession(t, 16)
	payload := bytes.Repeat([]byte("0123456789"), 3000) // spans blocks
	if err := sess.Mkdir("/dir"); err != nil {
		t.Fatal(err)
	}
	if err := sess.WriteFile("/dir/file.bin", payload); err != nil {
		t.Fatal(err)
	}
	got, err := sess.ReadFile("/dir/file.bin")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("round trip: err=%v len=%d", err, len(got))
	}
}

func TestSequentialReadWrite(t *testing.T) {
	sess, _ := mountTestSession(t, 16)
	f, err := sess.Create("/seq.bin")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		chunk := bytes.Repeat([]byte{byte(i)}, 1000)
		if _, err := f.Write(chunk); err != nil {
			t.Fatal(err)
		}
	}
	if f.Size() != 10000 {
		t.Errorf("size = %d", f.Size())
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 10000)
	if _, err := io.ReadFull(f, buf); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if buf[i*1000] != byte(i) {
			t.Errorf("chunk %d corrupted", i)
		}
	}
	f.Close()
	if _, err := f.Read(buf); err == nil {
		t.Error("read after close succeeded")
	}
}

func TestSeekWhence(t *testing.T) {
	sess, _ := mountTestSession(t, 4)
	sess.WriteFile("/s", make([]byte, 100))
	f, _ := sess.Open("/s")
	defer f.Close()
	if pos, _ := f.Seek(10, io.SeekStart); pos != 10 {
		t.Errorf("SeekStart = %d", pos)
	}
	if pos, _ := f.Seek(5, io.SeekCurrent); pos != 15 {
		t.Errorf("SeekCurrent = %d", pos)
	}
	if pos, _ := f.Seek(-10, io.SeekEnd); pos != 90 {
		t.Errorf("SeekEnd = %d", pos)
	}
	if _, err := f.Seek(-1000, io.SeekCurrent); err == nil {
		t.Error("negative seek succeeded")
	}
}

func TestReadAtEOFSemantics(t *testing.T) {
	sess, _ := mountTestSession(t, 4)
	sess.WriteFile("/e", []byte("12345"))
	f, _ := sess.Open("/e")
	defer f.Close()
	buf := make([]byte, 10)
	n, err := f.ReadAt(buf, 0)
	if n != 5 || err != io.EOF {
		t.Errorf("n=%d err=%v, want 5, EOF", n, err)
	}
	n, err = f.ReadAt(buf, 100)
	if n != 0 || err != io.EOF {
		t.Errorf("past-EOF: n=%d err=%v", n, err)
	}
	n, err = f.ReadAt(buf[:3], 1)
	if n != 3 || err != nil {
		t.Errorf("interior: n=%d err=%v", n, err)
	}
}

func TestUnalignedWriteAt(t *testing.T) {
	sess, fs := mountTestSession(t, 16)
	sess.WriteFile("/u", make([]byte, 20000))
	f, _ := sess.Open("/u")
	defer f.Close()
	patch := bytes.Repeat([]byte{0xAB}, 9000)
	if _, err := f.WriteAt(patch, 5000); err != nil { // crosses blocks, unaligned
		t.Fatal(err)
	}
	data, _ := fs.ReadFile("/u")
	if !bytes.Equal(data[5000:14000], patch) {
		t.Error("unaligned write misplaced")
	}
	if data[4999] != 0 || data[14000] != 0 {
		t.Error("write clobbered neighbours")
	}
}

func TestTruncateAndSync(t *testing.T) {
	sess, _ := mountTestSession(t, 4)
	sess.WriteFile("/t", make([]byte, 100))
	f, _ := sess.Open("/t")
	defer f.Close()
	if err := f.Truncate(10); err != nil {
		t.Fatal(err)
	}
	if f.Size() != 10 {
		t.Errorf("size = %d", f.Size())
	}
	if err := f.Sync(); err != nil {
		t.Errorf("sync: %v", err)
	}
	attr, _ := sess.Stat("/t")
	if attr.Size != 10 {
		t.Errorf("server size = %d", attr.Size)
	}
}

func TestMkdirAllAndReadDir(t *testing.T) {
	sess, _ := mountTestSession(t, 4)
	if err := sess.MkdirAll("/a/b/c"); err != nil {
		t.Fatal(err)
	}
	if err := sess.MkdirAll("/a/b/c"); err != nil {
		t.Errorf("MkdirAll not idempotent: %v", err)
	}
	sess.WriteFile("/a/b/c/f1", []byte("1"))
	sess.WriteFile("/a/b/c/f2", []byte("2"))
	entries, err := sess.ReadDir("/a/b/c")
	if err != nil || len(entries) != 2 {
		t.Errorf("entries=%d err=%v", len(entries), err)
	}
}

func TestRenameAndRemove(t *testing.T) {
	sess, _ := mountTestSession(t, 4)
	sess.WriteFile("/old", []byte("data"))
	if err := sess.Rename("/old", "/new"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Stat("/old"); nfs3.StatusOf(err) != nfs3.ErrNoEnt {
		t.Errorf("old still exists: %v", err)
	}
	data, err := sess.ReadFile("/new")
	if err != nil || string(data) != "data" {
		t.Errorf("new: %q err=%v", data, err)
	}
	if err := sess.Remove("/new"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Stat("/new"); nfs3.StatusOf(err) != nfs3.ErrNoEnt {
		t.Errorf("removed file still exists: %v", err)
	}
}

func TestSymlinkAPI(t *testing.T) {
	sess, _ := mountTestSession(t, 4)
	sess.WriteFile("/target", []byte("t"))
	if err := sess.Symlink("/target", "/link"); err != nil {
		t.Fatal(err)
	}
	got, err := sess.ReadLink("/link")
	if err != nil || got != "/target" {
		t.Errorf("readlink = %q err=%v", got, err)
	}
}

func TestOpenDirectoryFails(t *testing.T) {
	sess, _ := mountTestSession(t, 4)
	sess.MkdirAll("/d")
	if _, err := sess.Open("/d"); nfs3.StatusOf(err) != nfs3.ErrIsDir {
		t.Errorf("err = %v, want ISDIR", err)
	}
}

func TestCreateTruncatesExisting(t *testing.T) {
	sess, _ := mountTestSession(t, 4)
	sess.WriteFile("/c", bytes.Repeat([]byte{1}, 100))
	f, err := sess.Create("/c")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.Size() != 0 {
		t.Errorf("size after create = %d", f.Size())
	}
	attr, _ := sess.Stat("/c")
	if attr.Size != 0 {
		t.Errorf("server size = %d", attr.Size)
	}
}

func TestPageCacheServesRereads(t *testing.T) {
	sess, _ := mountTestSession(t, 64)
	payload := bytes.Repeat([]byte{7}, 64*1024)
	sess.WriteFile("/p", payload)
	sess.DropCaches()
	if _, err := sess.ReadFile("/p"); err != nil {
		t.Fatal(err)
	}
	st1 := sess.PageCacheStats()
	if _, err := sess.ReadFile("/p"); err != nil {
		t.Fatal(err)
	}
	st2 := sess.PageCacheStats()
	if st2.Hits <= st1.Hits {
		t.Errorf("no page-cache hits on re-read: %+v -> %+v", st1, st2)
	}
	if st2.Misses != st1.Misses {
		t.Errorf("re-read missed: %+v -> %+v", st1, st2)
	}
}

func TestDentryCacheAvoidsLookups(t *testing.T) {
	sess, fs := mountTestSession(t, 4)
	sess.MkdirAll("/deep/path/to")
	sess.WriteFile("/deep/path/to/file", []byte("x"))
	// Repeated opens use the dentry cache; this mostly asserts the
	// API stays correct when cached entries are used.
	for i := 0; i < 3; i++ {
		if _, err := sess.ReadFile("/deep/path/to/file"); err != nil {
			t.Fatal(err)
		}
	}
	// After a server-side change visible via a fresh lookup, dropping
	// caches must pick it up.
	fs.WriteFile("/deep/path/to/file", []byte("new"))
	sess.DropCaches()
	data, _ := sess.ReadFile("/deep/path/to/file")
	if string(data) != "new" {
		t.Errorf("stale data after DropCaches: %q", data)
	}
}

func TestReadAllViaFile(t *testing.T) {
	sess, _ := mountTestSession(t, 16)
	payload := bytes.Repeat([]byte("x"), 30000)
	sess.WriteFile("/ra", payload)
	f, _ := sess.Open("/ra")
	defer f.Close()
	got, err := f.ReadAll()
	if err != nil || len(got) != 30000 {
		t.Errorf("len=%d err=%v", len(got), err)
	}
}

func TestStatRootAndHelpers(t *testing.T) {
	sess, _ := mountTestSession(t, 4)
	attr, err := sess.Stat("/")
	if err != nil || attr.Type != nfs3.TypeDir {
		t.Errorf("root stat: %+v err=%v", attr, err)
	}
	if sess.Root() == nil || sess.NFS() == nil || sess.BlockSize() == 0 {
		t.Error("accessors broken")
	}
}

func TestConcurrentFileAccess(t *testing.T) {
	sess, _ := mountTestSession(t, 64)
	f, err := sess.Create("/stress.bin")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// Pre-size the file so concurrent readers see stable bounds.
	if _, err := f.WriteAt(make([]byte, 8*16*1024), 0); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			region := int64(g) * 16 * 1024
			pattern := bytes.Repeat([]byte{byte(g + 1)}, 16*1024)
			if _, err := f.WriteAt(pattern, region); err != nil {
				t.Error(err)
				return
			}
			buf := make([]byte, 16*1024)
			if _, err := f.ReadAt(buf, region); err != nil && err != io.EOF {
				t.Error(err)
				return
			}
			if !bytes.Equal(buf, pattern) {
				t.Errorf("region %d corrupted under concurrency", g)
			}
		}(g)
	}
	wg.Wait()
}

func TestLargeBlockSizeSession(t *testing.T) {
	fs := memfs.New()
	node, err := stack.StartNFSServer(fs, stack.NFSServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	sess, err := gvfs.Mount(gvfs.SessionConfig{
		Addr: node.Addr, Export: "/", BlockSize: 32768, PageCachePages: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	payload := bytes.Repeat([]byte{0xBB}, 100_000) // spans 32 KB blocks
	if err := sess.WriteFile("/big", payload); err != nil {
		t.Fatal(err)
	}
	got, err := sess.ReadFile("/big")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("32KB-block round trip: %v", err)
	}
}

func TestReadFileOfEmptyFile(t *testing.T) {
	sess, _ := mountTestSession(t, 4)
	f, err := sess.Create("/empty")
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	data, err := sess.ReadFile("/empty")
	if err != nil || len(data) != 0 {
		t.Errorf("empty read: len=%d err=%v", len(data), err)
	}
}

// countingFS counts the name-space calls that reach the end server.
type countingFS struct {
	*memfs.FS
	lookups, mkdirs atomic.Int64
}

func (c *countingFS) Lookup(dir nfs3.FH, name string) (nfs3.FH, nfs3.Fattr, error) {
	c.lookups.Add(1)
	return c.FS.Lookup(dir, name)
}

func (c *countingFS) Mkdir(dir nfs3.FH, name string, attr nfs3.SetAttr) (nfs3.FH, nfs3.Fattr, error) {
	c.mkdirs.Add(1)
	return c.FS.Mkdir(dir, name, attr)
}

// TestResolveAndMkdirAllRoundTrips: a path is looked up from the longest
// prefix the session already knows, not from the root, and MkdirAll sends
// MKDIR only for what is missing.
func TestResolveAndMkdirAllRoundTrips(t *testing.T) {
	fs := &countingFS{FS: memfs.New()}
	for _, p := range []string{"/images/g0/img0.vmx", "/images/g0/img0.vmss"} {
		if err := fs.WriteFile(p, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	node, err := stack.StartNFSServer(fs, stack.NFSServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	sess, err := gvfs.Mount(gvfs.SessionConfig{Addr: node.Addr, Export: "/"})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	calls := func(step string, f func() error, lookups, mkdirs int64) {
		t.Helper()
		l0, m0 := fs.lookups.Load(), fs.mkdirs.Load()
		if err := f(); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if l, m := fs.lookups.Load()-l0, fs.mkdirs.Load()-m0; l != lookups || m != mkdirs {
			t.Errorf("%s: %d LOOKUPs and %d MKDIRs reached the server, want %d and %d", step, l, m, lookups, mkdirs)
		}
	}
	stat := func(p string) func() error {
		return func() error { _, err := sess.Stat(p); return err }
	}
	calls("first path", stat("/images/g0/img0.vmx"), 3, 0)
	calls("sibling", stat("/images/g0/img0.vmss"), 1, 0)
	calls("new tree", func() error { return sess.MkdirAll("/clones/cold-0") }, 1, 2)
	calls("second clone directory", func() error { return sess.MkdirAll("/clones/warm-0") }, 0, 1)
	calls("directory that exists", func() error { return sess.MkdirAll("/clones/warm-0") }, 0, 1)
	calls("root", func() error { return sess.MkdirAll("/") }, 0, 0)
	if _, err := sess.Stat("/clones/warm-0"); err != nil {
		t.Error(err)
	}
	if err := sess.MkdirAll("/images/g0/img0.vmx/sub"); err == nil {
		t.Error("MkdirAll under a regular file succeeded")
	}
}
