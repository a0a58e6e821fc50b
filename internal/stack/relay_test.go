package stack_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	gvfs "gvfs"
	"gvfs/internal/cache"
	"gvfs/internal/filechan"
	"gvfs/internal/memfs"
	"gvfs/internal/meta"
	"gvfs/internal/nfs3"
	"gvfs/internal/simnet"
	"gvfs/internal/stack"
	"gvfs/internal/stack/stacktest"
)

// The paper's LAN cache server (Fig 6 S3): a write-through caching proxy
// whose meta-data handling fetches through the image server's file
// channel, and the file-channel relay beside it, which keeps no store of
// its own.

// lanHop is the LAN cache server's proxy: a small write-through disk
// cache that fetches through the file channel at fileChan ("" = the
// image server's).
func lanHop(fileChan string) stack.ProxyOptions {
	return stack.ProxyOptions{FileChanAddr: fileChan, CacheConfig: &cache.Config{
		Banks: 8, SetsPerBank: 8, Assoc: 4, BlockSize: 8192, Policy: cache.WriteThrough}}
}

// lanChain builds a LAN cache server over an image server of the files
// seed writes, and the relay beside it.
func lanChain(t *testing.T, seed func(*memfs.FS)) (*stack.Chain, *stack.Node) {
	t.Helper()
	c := stacktest.New(t, stack.ChainSpec{Seed: seed, Hops: []stack.ProxyOptions{lanHop("")}, FileChan: true, NoSession: true})
	return c, startRelay(t, c.Hop(), c.Server.FileChanAddr())
}

// startRelay runs a relay beside lan that puts to the file channel at
// fileChan.
func startRelay(t *testing.T, lan *stack.Node, fileChan string) *stack.Node {
	t.Helper()
	relay, err := stack.StartFileChanRelay(lan, stack.Dialer(fileChan, nil, nil), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(relay.Close)
	return relay
}

// writeImage writes data at p with the meta-data that asks for it whole
// through the file channel.
func writeImage(t testing.TB, fs *memfs.FS, p string, data []byte) {
	t.Helper()
	blob, err := meta.ForWholeFile(data, 8192).Encode()
	if err != nil {
		t.Fatal(err)
	}
	fs.WriteFile(p, data)
	fs.WriteFile(path.Join(path.Dir(p), meta.NameFor(path.Base(p))), blob)
}

// relayGet fetches p through the relay at addr.
func relayGet(addr, p string) ([]byte, error) {
	conn, err := simnet.Dial(addr, nil)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	return filechan.Fetch(conn, p, true)
}

// relayPut uploads data to p through the relay at addr.
func relayPut(addr, p string, data []byte) error {
	conn, err := simnet.Dial(addr, nil)
	if err != nil {
		return err
	}
	defer conn.Close()
	return filechan.PutFrom(conn, p, bytes.NewReader(data), uint64(len(data)), true)
}

// mustGet fails the test unless the relay at addr serves want at p.
func mustGet(t *testing.T, addr, p string, want []byte, what string) {
	t.Helper()
	got, err := relayGet(addr, p)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("%s: %d bytes starting %q, err=%v", what, len(got), got[:min(len(got), 4)], err)
	}
}

// The relay serves a file it has served before with the image server
// gone: the LAN proxy's block cache holds it, and its attribute table the
// names.
func TestFileChanRelayCachesUpstream(t *testing.T) {
	payload := bytes.Repeat([]byte("golden"), 10000)
	c, relay := lanChain(t, func(fs *memfs.FS) { writeImage(t, fs, "/img.vmss", payload) })
	mustGet(t, relay.Addr, "/img.vmss", payload, "first fetch")
	c.StopOrigin()
	mustGet(t, relay.Addr, "/img.vmss", payload, "fetch after the image server died")
	if n := c.Hop().Proxy.Snapshot().Counter("gvfs_proxy_filechan_fetches_total"); n != 1 {
		t.Errorf("the LAN proxy fetched %d times, want 1", n)
	}
}

// A GET of a file that is not there fails with the image server's
// NFS3ERR_NOENT, from the image server and through the relay alike: the
// file channel carries the status, not only its message.
func TestFileChanRelayMissingFile(t *testing.T) {
	c, relay := lanChain(t, func(fs *memfs.FS) { writeImage(t, fs, "/img.vmss", []byte("golden")) })
	for what, addr := range map[string]string{"image server": c.Server.FileChanAddr(), "relay": relay.Addr} {
		_, err := relayGet(addr, "/absent.vmss")
		if !errors.Is(err, filechan.ErrRemote) || nfs3.StatusOf(err) != nfs3.ErrNoEnt {
			t.Errorf("GET of a missing file from the %s: %v (status %v), want ErrRemote with NFS3ERR_NOENT", what, err, nfs3.StatusOf(err))
		}
	}
}

// slowOpens is a FileStore that counts the files opened on it and holds
// the first open until every expected open has arrived or a while has
// passed, so misses that come together overlap at the LAN.
type slowOpens struct {
	*memfs.FS
	opens   atomic.Int32
	want    int32
	arrived chan struct{}
}

func (s *slowOpens) OpenFile(path string) (io.ReadCloser, uint64, error) {
	if s.opens.Add(1) == s.want {
		close(s.arrived)
	}
	select {
	case <-s.arrived:
	case <-time.After(200 * time.Millisecond):
	}
	return s.FS.OpenFile(path)
}

// fileChanServer serves store's file channel for the test's length.
func fileChanServer(t *testing.T, store filechan.FileStore) string {
	t.Helper()
	n, err := stack.StartFileChanServer(store, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	return n.Addr
}

// Concurrent misses of one path at the relay make one upstream fetch —
// they wait on the file's meta-data lock at the LAN proxy — and each gets
// the whole file: the access pattern of parallel clones of one golden
// image behind a LAN cache.
func TestFileChanRelayMissGoesUpstreamOnce(t *testing.T) {
	const clients = 8
	fs := memfs.New()
	img := make([]byte, 3<<20)
	for i := range img {
		img[i] = byte(i / 4096)
	}
	writeImage(t, fs, "/golden/img.vmss", img)
	store := &slowOpens{FS: fs, want: clients, arrived: make(chan struct{})}
	fc := fileChanServer(t, store)
	c := stacktest.New(t, stack.ChainSpec{Upstream: stack.NFS, FS: fs, Hops: []stack.ProxyOptions{lanHop(fc)}, NoSession: true})
	relay := startRelay(t, c.Hop(), fc)

	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got, err := relayGet(relay.Addr, "/golden/img.vmss"); err != nil || !bytes.Equal(got, img) {
				t.Errorf("fetch through the relay: %d bytes, err=%v", len(got), err)
			}
		}()
	}
	wg.Wait()
	if n := store.opens.Load(); n != 1 {
		t.Errorf("%d concurrent misses made %d upstream fetches, want 1", clients, n)
	}
}

// The LAN has one cache, so neither way round does it go stale: a write
// through the LAN proxy is what the relay serves next, and a PUT through
// the relay is what a session on the LAN proxy reads next.
func TestFileChanRelayNotStale(t *testing.T) {
	a := bytes.Repeat([]byte("A"), 64<<10)
	b := bytes.Repeat([]byte("B"), 64<<10)
	cc := bytes.Repeat([]byte("C"), 64<<10)
	c, relay := lanChain(t, func(fs *memfs.FS) { writeImage(t, fs, "/img.vmss", a) })
	mustGet(t, relay.Addr, "/img.vmss", a, "first fetch")

	sess := stacktest.Mount(t, c, gvfs.SessionConfig{Cred: stacktest.Cred})
	if err := sess.WriteFile("/img.vmss", b); err != nil {
		t.Fatal(err)
	}
	if got, _ := c.FS.ReadFile("/img.vmss"); !bytes.Equal(got, b) {
		t.Fatal("the write-through LAN proxy did not write to the image server")
	}
	mustGet(t, relay.Addr, "/img.vmss", b, "fetch after a write through the LAN proxy")

	if err := relayPut(relay.Addr, "/img.vmss", cc); err != nil {
		t.Fatal(err)
	}
	if got, _ := c.FS.ReadFile("/img.vmss"); !bytes.Equal(got, cc) {
		t.Fatal("the PUT did not reach the image server")
	}
	got, err := stacktest.Mount(t, c, gvfs.SessionConfig{Cred: stacktest.Cred}).ReadFile("/img.vmss")
	if err != nil || !bytes.Equal(got, cc) {
		t.Fatalf("read through the LAN proxy after a PUT: %d bytes starting %q, err=%v", len(got), got[:min(len(got), 4)], err)
	}
	mustGet(t, relay.Addr, "/img.vmss", cc, "fetch after a PUT")
	if err := relayPut(relay.Addr, "/new.vmss", cc); err != nil {
		t.Fatal(err)
	}
	mustGet(t, relay.Addr, "/new.vmss", cc, "fetch of a file a PUT created")
}

// gatedStore is an image server's file channel whose first GET takes the
// file's bytes at once and then holds them until release closes — a fill
// that brings bytes older than whatever lands meanwhile — and whose later
// GETs fail, so that READs go to the blocks.
type gatedStore struct {
	*memfs.FS
	once            sync.Once
	opened, release chan struct{}
}

func (g *gatedStore) OpenFile(p string) (io.ReadCloser, uint64, error) {
	first := false
	g.once.Do(func() { first = true })
	if !first {
		return nil, 0, errors.New("the file channel is down")
	}
	data, err := g.FS.ReadFile(p)
	if err != nil {
		return nil, 0, err
	}
	close(g.opened)
	<-g.release
	return io.NopCloser(bytes.NewReader(data)), uint64(len(data)), nil
}

// A PUT that lands while a GET's fill of the same file is in flight at
// the LAN proxy leaves no old byte to serve: the PUT's drop waits for the
// fill and takes its blocks, so the READs after it miss and go upstream.
func TestFileChanRelayPutDuringFill(t *testing.T) {
	old := bytes.Repeat([]byte("old!"), 16<<10)
	fresh := bytes.Repeat([]byte("new!"), 16<<10)
	fs := memfs.New()
	writeImage(t, fs, "/img.vmss", old)
	store := &gatedStore{FS: fs, opened: make(chan struct{}), release: make(chan struct{})}
	fc := fileChanServer(t, store)
	c := stacktest.New(t, stack.ChainSpec{Upstream: stack.NFS, FS: fs, Hops: []stack.ProxyOptions{lanHop(fc)}, NoSession: true})
	relay := startRelay(t, c.Hop(), fc)

	filled := make(chan error, 1)
	go func() {
		_, err := relayGet(relay.Addr, "/img.vmss") // old bytes, or an error: it overlaps the PUT
		filled <- err
	}()
	<-store.opened
	put := make(chan error, 1)
	go func() { put <- relayPut(relay.Addr, "/img.vmss", fresh) }()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if got, _ := fs.ReadFile("/img.vmss"); bytes.Equal(got, fresh) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the PUT never reached the image server")
		}
	}
	close(store.release) // the fill now brings the old bytes
	<-filled
	if err := <-put; err != nil {
		t.Fatal(err)
	}
	mustGet(t, relay.Addr, "/img.vmss", fresh, "fetch after the PUT")
	got, err := stacktest.Mount(t, c, gvfs.SessionConfig{Cred: stacktest.Cred}).ReadFile("/img.vmss")
	if err != nil || !bytes.Equal(got, fresh) {
		t.Fatalf("read through the LAN proxy after the PUT: %d bytes starting %q, err=%v", len(got), got[:min(len(got), 4)], err)
	}
}

// Images churned through the relay well past the LAN cache's capacity
// are all served, and nothing is written outside the LAN proxy's cache
// directory, whose files stay within the cache's bound.
func TestFileChanRelayBounded(t *testing.T) {
	const images, size = 32, 256 << 10
	hop := lanHop("")
	cfg := hop.CacheConfig
	cfg.Dir = t.TempDir()
	capacity := int64(cfg.Banks * cfg.SetsPerBank * cfg.Assoc * cfg.BlockSize)
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	img := func(i int) []byte { return bytes.Repeat([]byte{byte(i), byte(i >> 8), 7}, size/3+1)[:size] }
	c := stacktest.New(t, stack.ChainSpec{Hops: []stack.ProxyOptions{hop}, FileChan: true, NoSession: true, Seed: func(fs *memfs.FS) {
		for i := range images {
			writeImage(t, fs, fmt.Sprintf("/images/g%d.vmss", i), img(i))
		}
	}})
	relay := startRelay(t, c.Hop(), c.Server.FileChanAddr())
	for i := range images {
		mustGet(t, relay.Addr, fmt.Sprintf("/images/g%d.vmss", i), img(i), "churn")
	}
	if images*size < 4*capacity {
		t.Fatalf("%d bytes of images for a %d-byte cache: not a churn", images*size, capacity)
	}
	if st := c.Hop().BlockCache.Stats(); st.Evictions == 0 {
		t.Error("the LAN cache evicted nothing")
	}
	if left, _ := os.ReadDir(tmp); len(left) != 0 {
		t.Errorf("%d files left in the temporary directory", len(left))
	}
	var used int64
	filepath.Walk(cfg.Dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			used += info.Size()
		}
		return nil
	})
	if used > capacity+1<<20 {
		t.Errorf("the LAN cache directory holds %d bytes for a %d-byte cache", used, capacity)
	}
}
