package clone_test

import (
	"fmt"
	"strings"
	"testing"

	gvfs "gvfs"
	"gvfs/internal/cache"
	"gvfs/internal/clone"
	"gvfs/internal/memfs"
	"gvfs/internal/simnet"
	"gvfs/internal/stack"
	"gvfs/internal/sunrpc"
	"gvfs/internal/vm"
)

func spec(name string, seed int64) vm.Spec {
	return vm.Spec{Name: name, MemoryBytes: 1 << 20, DiskBytes: 4 << 20, Seed: seed}
}

// cloneEnv builds an image server with a golden image and a caching
// client proxy with the full extension set enabled.
type cloneEnv struct {
	fs     *memfs.FS
	server *stack.ImageServer
	node   *stack.Node
}

func newCloneEnv(t testing.TB) *cloneEnv {
	t.Helper()
	fs := memfs.New()
	if err := vm.InstallImage(fs, "/images/golden", spec("rh73", 1)); err != nil {
		t.Fatal(err)
	}
	server, err := stack.StartImageServer(fs, stack.ImageServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(server.Close)
	cfg := cache.Config{Dir: t.TempDir(), Banks: 16, SetsPerBank: 16, Assoc: 4, BlockSize: 8192, Policy: cache.WriteBack}
	node, err := stack.StartProxy(stack.ProxyOptions{
		UpstreamAddr: server.ProxyAddr(),
		CacheConfig:  &cfg,
		FileCacheDir: t.TempDir(),
		FileChanAddr: server.FileChanAddr(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Close)
	return &cloneEnv{fs: fs, server: server, node: node}
}

func (e *cloneEnv) session(t testing.TB) *gvfs.Session {
	t.Helper()
	sess, err := gvfs.Mount(gvfs.SessionConfig{Addr: e.node.Addr, Export: "/", PageCachePages: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Close() })
	return sess
}

func TestCloneWorkflow(t *testing.T) {
	e := newCloneEnv(t)
	sess := e.session(t)
	res, err := clone.Clone(sess, clone.Options{
		GoldenDir: "/images/golden",
		CloneDir:  "/clones/c1",
		Name:      "rh73",
		User:      "alice",
		KeepVM:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer res.VM.Close()

	// Config copied and customized.
	cfg, err := sess.ReadFile("/clones/c1/rh73.vmx")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(cfg), `guestinfo.gridUser = "alice"`) {
		t.Error("clone config not customized")
	}
	if !strings.Contains(string(cfg), `checkpoint.vmState = "/images/golden/rh73.vmss"`) {
		t.Errorf("clone config does not reference golden memstate:\n%s", cfg)
	}
	// Disk is a symlink, not a copy.
	target, err := sess.ReadLink("/clones/c1/rh73.vmdk")
	if err != nil || target != "/images/golden/rh73.vmdk" {
		t.Errorf("disk link = %q err=%v", target, err)
	}
	// VM is usable: read a disk block through the link.
	buf := make([]byte, 8192)
	if _, err := res.VM.Disk.ReadAt(buf, 0); err != nil {
		t.Errorf("disk read through clone: %v", err)
	}
	// The memory state must have moved via the file channel, not
	// block-by-block NFS.
	if n := e.node.Proxy.Snapshot().Counter("gvfs_proxy_filechan_fetches_total"); n != 1 {
		t.Errorf("file channel fetches = %d, want 1", n)
	}
}

func TestSequentialClonesSameImageGetWarmer(t *testing.T) {
	e := newCloneEnv(t)
	sess := e.session(t)
	var opts []clone.Options
	for i := 0; i < 3; i++ {
		opts = append(opts, clone.Options{
			GoldenDir: "/images/golden",
			CloneDir:  fmt.Sprintf("/clones/c%d", i),
			Name:      "rh73",
		})
	}
	results, err := clone.Sequential(sess, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	// Only the first clone transfers the memory state.
	if n := e.node.Proxy.Snapshot().Counter("gvfs_proxy_filechan_fetches_total"); n != 1 {
		t.Errorf("file channel fetches = %d, want 1 (temporal locality)", n)
	}
}

func TestSequentialClonesDistinctImages(t *testing.T) {
	e := newCloneEnv(t)
	for i := 1; i < 3; i++ {
		if err := vm.InstallImage(e.fs, fmt.Sprintf("/images/g%d", i), spec(fmt.Sprintf("img%d", i), int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	sess := e.session(t)
	opts := []clone.Options{
		{GoldenDir: "/images/golden", CloneDir: "/clones/c0", Name: "rh73"},
		{GoldenDir: "/images/g1", CloneDir: "/clones/c1", Name: "img1"},
		{GoldenDir: "/images/g2", CloneDir: "/clones/c2", Name: "img2"},
	}
	if _, err := clone.Sequential(sess, opts); err != nil {
		t.Fatal(err)
	}
	if n := e.node.Proxy.Snapshot().Counter("gvfs_proxy_filechan_fetches_total"); n != 3 {
		t.Errorf("file channel fetches = %d, want 3 (no locality)", n)
	}
}

func TestParallelClones(t *testing.T) {
	// Eight compute servers (each with its own proxy+session) share
	// one image server.
	fs := memfs.New()
	if err := vm.InstallImage(fs, "/images/golden", spec("rh73", 1)); err != nil {
		t.Fatal(err)
	}
	server, err := stack.StartImageServer(fs, stack.ImageServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	const n = 4
	var sessions []*gvfs.Session
	var opts []clone.Options
	for i := 0; i < n; i++ {
		cfg := cache.Config{Dir: t.TempDir(), Banks: 8, SetsPerBank: 16, Assoc: 4, BlockSize: 8192, Policy: cache.WriteBack}
		node, err := stack.StartProxy(stack.ProxyOptions{
			UpstreamAddr: server.ProxyAddr(),
			CacheConfig:  &cfg,
			FileCacheDir: t.TempDir(),
			FileChanAddr: server.FileChanAddr(),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer node.Close()
		sess, err := gvfs.Mount(gvfs.SessionConfig{Addr: node.Addr, Export: "/", PageCachePages: 64})
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		sessions = append(sessions, sess)
		opts = append(opts, clone.Options{
			GoldenDir: "/images/golden",
			CloneDir:  fmt.Sprintf("/clones/p%d", i),
			Name:      "rh73",
		})
	}
	results, err := clone.Parallel(sessions, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r == nil || r.Duration <= 0 {
			t.Errorf("clone %d missing result", i)
		}
	}
}

func TestSCPCopyBaseline(t *testing.T) {
	e := newCloneEnv(t)
	dial := stack.Dialer(e.server.FileChanAddr(), nil, nil)
	total, dur, err := clone.SCPCopy(dial, "/images/golden", "rh73")
	if err != nil {
		t.Fatal(err)
	}
	s := spec("rh73", 1)
	wantMin := s.MemoryBytes + s.DiskBytes // plus small config
	if total < wantMin {
		t.Errorf("scp moved %d bytes, want >= %d", total, wantMin)
	}
	if dur <= 0 {
		t.Error("no duration measured")
	}
}

func TestPlainNFSResumeBaseline(t *testing.T) {
	fs := memfs.New()
	if err := vm.InstallImage(fs, "/images/golden", spec("rh73", 1)); err != nil {
		t.Fatal(err)
	}
	// No proxy cache, no metadata: a plain NFS mount.
	node, err := stack.StartNFSServer(fs, stack.NFSServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	sess, err := gvfs.Mount(gvfs.SessionConfig{Addr: node.Addr, Export: "/", PageCachePages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	dur, err := clone.PlainNFSResume(sess, "/images/golden", "rh73")
	if err != nil {
		t.Fatal(err)
	}
	if dur <= 0 {
		t.Error("no duration measured")
	}
}

// TestWarmCloneWANRoundTrips counts the calls that cross the link to the
// image server — the server-side proxy's gvfs_proxy_calls_total — for a
// cold clone and then a second clone of the same image through a fresh
// session, the shape of the benchmark's wan_clone. The client proxy
// serves the second clone's READs from its caches and its LOOKUPs and
// GETATTRs from its attribute table, so what is left to cross is the
// MOUNT and the calls that create the clone's own files. The cold
// clone's count bounds what a boot extent costs when the session asks in
// windows.
func TestWarmCloneWANRoundTrips(t *testing.T) {
	fs := memfs.New()
	if err := vm.InstallImage(fs, "/images/g0", spec("img0", 1)); err != nil {
		t.Fatal(err)
	}
	link := simnet.NewLink(simnet.Local())
	server, err := stack.StartImageServer(fs, stack.ImageServerOptions{Link: link})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(server.Close)
	cfg := cache.Config{Dir: t.TempDir(), Banks: 16, SetsPerBank: 16, Assoc: 4, BlockSize: 8192, Policy: cache.WriteBack}
	node, err := stack.StartProxy(stack.ProxyOptions{
		UpstreamAddr: server.ProxyAddr(), UpstreamLink: link, CacheConfig: &cfg,
		FileCacheDir: t.TempDir(), FileChanAddr: server.FileChanAddr(), FileChanLink: link,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Close)

	crossed := func() uint64 { return server.Proxy.Proxy.Snapshot().Counter("gvfs_proxy_calls_total") }
	instantiate := func(pass string) uint64 {
		t.Helper()
		before := crossed()
		sess, err := gvfs.Mount(gvfs.SessionConfig{Addr: node.Addr, Export: "/", PageCachePages: 64,
			Cred: sunrpc.UnixCred{UID: 500, GID: 500, MachineName: "compute"}.Encode()})
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		res, err := clone.Clone(sess, clone.Options{GoldenDir: "/images/g0", CloneDir: "/clones/" + pass,
			Name: "img0", User: "alice", KeepVM: true})
		if err != nil {
			t.Fatal(err)
		}
		defer res.VM.Close()
		// One 64 KiB boot extent, as wan_clone reads them: two windows.
		buf := make([]byte, 64<<10)
		if _, err := res.VM.Disk.ReadAt(buf, 0); err != nil {
			t.Fatalf("%s: disk read through the clone's link: %v", pass, err)
		}
		redo, err := res.VM.OpenRedoLog()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := redo.WriteAt(buf[:8192], 0); err != nil {
			t.Fatal(err)
		}
		return crossed() - before
	}
	cold := instantiate("cold")
	warm := instantiate("warm")
	t.Logf("calls that crossed the link: cold clone %d, warm clone %d", cold, warm)
	// The cold clone's 64 KiB extent is two calls, not eight: the session
	// asks for its two 32 KiB windows (together, so one round trip).
	if cold > 19 {
		t.Errorf("cold clone sent %d calls across the link, want at most 19 (17 besides the extent's 2 windows)", cold)
	}
	if warm > 6 {
		ops := server.Proxy.Proxy.Statusz().Clients
		t.Errorf("warm clone sent %d calls across the link, want at most 6 (server proxy op mix, both clones: %+v)", warm, ops)
	}
	snap := node.Proxy.Snapshot()
	if hits := snap.Counter(`gvfs_proxy_attr_hits_total{proc="LOOKUP"}`); hits == 0 {
		t.Error("no LOOKUP was answered from the attribute table")
	}
}
