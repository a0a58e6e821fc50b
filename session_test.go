package gvfs_test

import (
	"bytes"
	"gvfs/internal/stack/stacktest"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	gvfs "gvfs"
	"gvfs/internal/memfs"
	"gvfs/internal/nfs3"
	"gvfs/internal/obs"
	"gvfs/internal/sunrpc"
)

// mountTestSession wires a session straight to a memfs NFS server.
func mountTestSession(t testing.TB, pages int) (*gvfs.Session, *memfs.FS) {
	c := stacktest.New(t, stacktest.Spec{Upstream: stacktest.NFS, Session: gvfs.SessionConfig{
		Cred: sunrpc.UnixCred{UID: 1, GID: 1, MachineName: "t"}.Encode(), PageCachePages: pages}})
	return c.Session(), c.FS
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
	sess := stacktest.New(t, stacktest.Spec{Upstream: stacktest.NFS,
		Session: gvfs.SessionConfig{BlockSize: 32768, PageCachePages: 8}}).Session()
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
	sess := stacktest.New(t, stacktest.Spec{Upstream: stacktest.NFS, Origin: fs}).Session()
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

// readCall is one READ that reached the end server.
type readCall struct{ off, count int }

// readSpyFS records the READs that reach the end server, can fail them
// from an offset on, and can hold one READ's reply until told to let go.
type readSpyFS struct {
	*memfs.FS

	mu       sync.Mutex
	reads    []readCall
	failFrom int           // when > 0, a READ at this offset or past it fails
	held     chan struct{} // when set, the next READ announces itself here ...
	release  chan struct{} // ... and answers only once this is closed
}

func (s *readSpyFS) Read(fh nfs3.FH, off uint64, count uint32) ([]byte, bool, error) {
	s.mu.Lock()
	s.reads = append(s.reads, readCall{int(off), int(count)})
	failFrom, held, release := s.failFrom, s.held, s.release
	s.held = nil
	s.mu.Unlock()
	if failFrom > 0 && int(off) >= failFrom {
		return nil, false, &nfs3.Error{Status: nfs3.ErrIO, Op: "read"}
	}
	data, eof, err := s.FS.Read(fh, off, count) // the bytes as they are now ...
	if held != nil {
		held <- struct{}{}
		<-release // ... sent once the test says so
	}
	return data, eof, err
}

// taken returns the READs recorded since the last call, by offset.
func (s *readSpyFS) taken() []readCall {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.reads
	s.reads = nil
	slices.SortFunc(out, func(a, b readCall) int { return a.off - b.off })
	return out
}

// mountSpySession is a session straight on an end server whose READs are
// recorded; /f holds size patterned bytes.
func mountSpySession(t *testing.T, cfg gvfs.SessionConfig, size int) (*gvfs.Session, *readSpyFS, []byte) {
	t.Helper()
	spy := &readSpyFS{FS: memfs.New()}
	want := make([]byte, size)
	for i := range want {
		want[i] = byte(i*7 + i/8192)
	}
	if err := spy.WriteFile("/f", want); err != nil {
		t.Fatal(err)
	}
	sess := stacktest.New(t, stacktest.Spec{Upstream: stacktest.NFS, Origin: spy, Session: cfg}).Session()
	return sess, spy, want
}

const kib = 1024

// TestReadAtAsksInAlignedWindows: the pages a ReadAt needs and the buffer
// cache lacks go out as READs of up to 32 KiB that do not cross a
// 32 KiB-aligned window, cover no resident page and nothing past the
// pages asked for.
func TestReadAtAsksInAlignedWindows(t *testing.T) {
	for _, tc := range []struct {
		name     string
		resident []int // pages read (one at a time) beforehand
		off, n   int
		want     []readCall
	}{
		{name: "aligned extent", off: 0, n: 64 * kib, want: []readCall{{0, 32 * kib}, {32 * kib, 32 * kib}}},
		{name: "extent one page in", off: 8 * kib, n: 64 * kib,
			want: []readCall{{8 * kib, 24 * kib}, {32 * kib, 32 * kib}, {64 * kib, 8 * kib}}},
		{name: "resident page splits the window", resident: []int{2}, off: 0, n: 32 * kib,
			want: []readCall{{0, 16 * kib}, {24 * kib, 8 * kib}}},
		{name: "resident pages at both ends", resident: []int{0, 7}, off: 0, n: 64 * kib,
			want: []readCall{{8 * kib, 24 * kib}, {32 * kib, 24 * kib}}},
		{name: "all resident", resident: []int{4, 5}, off: 32 * kib, n: 16 * kib},
		{name: "a few bytes across a page edge", off: 8*kib - 50, n: 100, want: []readCall{{0, 16 * kib}}},
		{name: "one page", off: 40 * kib, n: 8 * kib, want: []readCall{{40 * kib, 8 * kib}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sess, spy, want := mountSpySession(t, gvfs.SessionConfig{PageCachePages: 64}, 128*kib)
			f, err := sess.Open("/f")
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			page := make([]byte, 8*kib)
			for _, p := range tc.resident {
				if _, err := f.ReadAt(page, int64(p*8*kib)); err != nil {
					t.Fatal(err)
				}
			}
			spy.taken()
			buf := make([]byte, tc.n)
			n, err := f.ReadAt(buf, int64(tc.off))
			if n != tc.n || err != nil || !bytes.Equal(buf, want[tc.off:tc.off+tc.n]) {
				t.Fatalf("ReadAt(%d bytes at %d): n=%d err=%v, bytes match: %v", tc.n, tc.off, n, err, bytes.Equal(buf, want[tc.off:tc.off+tc.n]))
			}
			if got := spy.taken(); !slices.Equal(got, tc.want) {
				t.Errorf("READs {off count} = %v, want %v", got, tc.want)
			}
			// What came is resident now.
			if n, err := f.ReadAt(buf, int64(tc.off)); n != tc.n || err != nil || !bytes.Equal(buf, want[tc.off:tc.off+tc.n]) {
				t.Errorf("re-read: n=%d err=%v", n, err)
			}
			if got := spy.taken(); len(got) != 0 {
				t.Errorf("a re-read sent READs %v", got)
			}
		})
	}
}

// TestReadFileDeliversWhateverThePageCacheHolds: an extent is filled from
// the replies, not through the buffer cache, so a cache that is off or
// smaller than the extent costs no READ twice.
func TestReadFileDeliversWhateverThePageCacheHolds(t *testing.T) {
	for _, pages := range []int{0, 4, 64} {
		sess, spy, want := mountSpySession(t, gvfs.SessionConfig{PageCachePages: pages}, 256*kib)
		got, err := sess.ReadFile("/f")
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("PageCachePages %d: ReadFile: err=%v, %d bytes", pages, err, len(got))
		}
		reads := spy.taken()
		for i, r := range reads {
			if r != (readCall{i * 32 * kib, 32 * kib}) {
				t.Errorf("PageCachePages %d: READ %d is %v", pages, i, r)
			}
		}
		if len(reads) != 8 {
			t.Errorf("PageCachePages %d: a 256 KiB ReadFile sent %d READs, want 8", pages, len(reads))
		}
	}
}

// TestReadAtWindowFailureMidExtent: io.ReaderAt's contract when a window
// fails — the bytes before it, and the error.
func TestReadAtWindowFailureMidExtent(t *testing.T) {
	sess, spy, want := mountSpySession(t, gvfs.SessionConfig{PageCachePages: 64}, 256*kib)
	f, err := sess.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spy.mu.Lock()
	spy.failFrom = 64 * kib
	spy.mu.Unlock()
	buf := make([]byte, 200*kib)
	n, err := f.ReadAt(buf, 4*kib)
	if n != 60*kib || nfs3.StatusOf(err) != nfs3.ErrIO {
		t.Fatalf("n=%d err=%v, want the %d bytes before the failed window and NFS3ERR_IO", n, err, 60*kib)
	}
	if !bytes.Equal(buf[:n], want[4*kib:64*kib]) {
		t.Error("the bytes before the failed window are wrong")
	}
	// Windows in flight when one fails are all there are: the rest of the
	// extent is not asked for.
	if got := len(spy.taken()); got > 4 {
		t.Errorf("%d READs sent for an extent whose third window failed", got)
	}
}

// TestReadAtEOFAcrossWindows: where the file ends relative to the windows
// of a ReadAt decides nothing but n and io.EOF.
func TestReadAtEOFAcrossWindows(t *testing.T) {
	for _, tc := range []struct {
		name         string
		size, off, n int
		wantN        int
		wantErr      error
	}{
		{"EOF inside the first window", 10000, 0, 64 * kib, 10000, io.EOF},
		{"EOF inside the second window", 40000, 0, 64 * kib, 40000, io.EOF},
		{"EOF on a window edge, asked past it", 32 * kib, 0, 64 * kib, 32 * kib, io.EOF},
		{"EOF on a window edge, asked up to it", 64 * kib, 0, 64 * kib, 64 * kib, nil},
		{"EOF on a page edge inside a window", 16 * kib, 8 * kib, 24 * kib, 8 * kib, io.EOF},
		{"starting past EOF", 10000, 32 * kib, 8 * kib, 0, io.EOF},
		{"starting past EOF inside the last page", 10000, 12000, 100, 0, io.EOF},
		{"interior", 100000, 5000, 70000, 70000, nil},
	} {
		for _, pages := range []int{0, 64} {
			sess, _, want := mountSpySession(t, gvfs.SessionConfig{PageCachePages: pages}, tc.size)
			f, err := sess.Open("/f")
			if err != nil {
				t.Fatal(err)
			}
			for pass := 0; pass < 2; pass++ { // from the server, then from the buffer cache
				buf := make([]byte, tc.n)
				n, err := f.ReadAt(buf, int64(tc.off))
				if n != tc.wantN || err != tc.wantErr {
					t.Errorf("%s (pages %d, pass %d): n=%d err=%v, want %d, %v", tc.name, pages, pass, n, err, tc.wantN, tc.wantErr)
				} else if !bytes.Equal(buf[:n], want[min(tc.off, tc.size):min(tc.off, tc.size)+n]) {
					t.Errorf("%s (pages %d, pass %d): wrong bytes", tc.name, pages, pass)
				}
			}
			f.Close()
		}
	}
}

// TestReadAtExtentDoesNotCacheOverWrite: a READ reply that was on its way
// while a write to the same file was acknowledged installs nothing — not
// over the page the write installed, and not on the page a partial write
// left alone because it was not resident. The end server holds the
// READ's reply (the bytes from before the writes) until both writes have
// been acknowledged.
func TestReadAtExtentDoesNotCacheOverWrite(t *testing.T) {
	sess, spy, want := mountSpySession(t, gvfs.SessionConfig{PageCachePages: 64}, 32*kib)
	f, err := sess.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	held, release := make(chan struct{}), make(chan struct{})
	spy.mu.Lock()
	spy.held, spy.release = held, release
	spy.mu.Unlock()

	old := make([]byte, 32*kib)
	readDone := make(chan error, 1)
	go func() {
		_, err := f.ReadAt(old, 0)
		readDone <- err
	}()
	<-held // the READ has its (old) bytes and waits
	patch := bytes.Repeat([]byte{0xEE}, 100)
	whole := bytes.Repeat([]byte{0xDD}, 8*kib)
	if _, err := f.WriteAt(patch, 8*kib+10); err != nil { // page 1 is not resident: the write leaves it alone
		t.Fatal(err)
	}
	if _, err := f.WriteAt(whole, 16*kib); err != nil { // page 2 becomes resident
		t.Fatal(err)
	}
	copy(want[8*kib+10:], patch)
	copy(want[16*kib:], whole)
	close(release)
	if err := <-readDone; err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 32*kib)
	if n, err := f.ReadAt(got, 0); n != len(got) || err != nil {
		t.Fatalf("re-read: n=%d err=%v", n, err)
	}
	if !bytes.Equal(got, want) {
		for p := 0; p < 4; p++ {
			if !bytes.Equal(got[p*8*kib:(p+1)*8*kib], want[p*8*kib:(p+1)*8*kib]) {
				t.Errorf("page %d: a re-read after acknowledged writes returned bytes from before them", p)
			}
		}
	}
}

// TestSessionReadMetricsUnits: gvfs_pagecache_read_duration_seconds takes
// one "miss" observation per READ RPC and one "hit" per page served from
// the buffer cache, and the hit and miss counters count the pages a
// caller asked for.
func TestSessionReadMetricsUnits(t *testing.T) {
	reg := obs.NewRegistry()
	sess, _, _ := mountSpySession(t, gvfs.SessionConfig{PageCachePages: 64, Metrics: reg}, 64*kib)
	f, err := sess.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 64*kib)
	for pass := 0; pass < 2; pass++ {
		if _, err := f.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	for name, want := range map[string]uint64{
		`gvfs_pagecache_read_duration_seconds{outcome="miss"}`: 2, // two windows
		`gvfs_pagecache_read_duration_seconds{outcome="hit"}`:  8, // eight pages
	} {
		if got := snap.Histograms[name].Count; got != want {
			t.Errorf("%s: %d observations, want %d", name, got, want)
		}
	}
	for _, name := range []string{"gvfs_pagecache_misses_total", "gvfs_pagecache_hits_total"} {
		if got := snap.Counter(name); got != 8 {
			t.Errorf("%s = %d, want 8: the pages asked for, once cold and once resident", name, got)
		}
	}
}
