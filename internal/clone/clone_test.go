package clone_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	gvfs "gvfs"
	"gvfs/internal/cache"
	"gvfs/internal/clone"
	"gvfs/internal/memfs"
	"gvfs/internal/nfs3"
	"gvfs/internal/simnet"
	"gvfs/internal/stack"
	"gvfs/internal/stack/stacktest"
	"gvfs/internal/sunrpc"
	"gvfs/internal/vm"
)

func spec(name string, seed int64) vm.Spec {
	return vm.Spec{Name: name, MemoryBytes: 1 << 20, DiskBytes: 4 << 20, Seed: seed}
}

// goldenServer declares an image server with a golden image, and hops on
// it with a session whose page cache holds 64 pages.
func goldenServer(hops ...stack.ProxyOptions) stacktest.Spec {
	return stacktest.Spec{
		Seed: func(fs *memfs.FS) {
			if err := vm.InstallImage(fs, "/images/golden", spec("rh73", 1)); err != nil {
				panic(err)
			}
		},
		Hops: hops, Session: gvfs.SessionConfig{PageCachePages: 64},
	}
}

// goldenClient declares the golden image server and a caching client
// proxy with the full extension set enabled.
func goldenClient() stacktest.Spec {
	spec := goldenServer(stack.ProxyOptions{CacheConfig: &cache.Config{Banks: 16, SetsPerBank: 16, Assoc: 4, BlockSize: 8192, Policy: cache.WriteBack}})
	spec.FileChan = true
	return spec
}

// computeServer declares one compute server — a caching proxy with the
// file channel and a session — against server.
func computeServer(server *stack.ImageServer) stacktest.Spec {
	return stacktest.Spec{Upstream: stacktest.Own, Session: gvfs.SessionConfig{PageCachePages: 64},
		Hops: []stack.ProxyOptions{{UpstreamAddr: server.ProxyAddr(), FileChanAddr: server.FileChanAddr(),
			CacheConfig: &cache.Config{Banks: 8, SetsPerBank: 16, Assoc: 4, BlockSize: 8192, Policy: cache.WriteBack}}}}
}

func TestCloneWorkflow(t *testing.T) {
	e := stacktest.New(t, goldenClient())
	sess := e.Session()
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
	if n := e.Hop().Proxy.Snapshot().Counter("gvfs_proxy_filechan_fetches_total"); n != 1 {
		t.Errorf("file channel fetches = %d, want 1", n)
	}
}

func TestSequentialClonesSameImageGetWarmer(t *testing.T) {
	e := stacktest.New(t, goldenClient())
	sess := e.Session()
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
	if n := e.Hop().Proxy.Snapshot().Counter("gvfs_proxy_filechan_fetches_total"); n != 1 {
		t.Errorf("file channel fetches = %d, want 1 (temporal locality)", n)
	}
}

func TestSequentialClonesDistinctImages(t *testing.T) {
	e := stacktest.New(t, goldenClient())
	for i := 1; i < 3; i++ {
		if err := vm.InstallImage(e.FS, fmt.Sprintf("/images/g%d", i), spec(fmt.Sprintf("img%d", i), int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	sess := e.Session()
	opts := []clone.Options{
		{GoldenDir: "/images/golden", CloneDir: "/clones/c0", Name: "rh73"},
		{GoldenDir: "/images/g1", CloneDir: "/clones/c1", Name: "img1"},
		{GoldenDir: "/images/g2", CloneDir: "/clones/c2", Name: "img2"},
	}
	if _, err := clone.Sequential(sess, opts); err != nil {
		t.Fatal(err)
	}
	if n := e.Hop().Proxy.Snapshot().Counter("gvfs_proxy_filechan_fetches_total"); n != 3 {
		t.Errorf("file channel fetches = %d, want 3 (no locality)", n)
	}
}

func TestParallelClones(t *testing.T) {
	// Eight compute servers (each with its own proxy+session) share
	// one image server.
	golden := goldenServer()
	golden.NoSession = true
	server := stacktest.New(t, golden).Server

	const n = 4
	var sessions []*gvfs.Session
	var opts []clone.Options
	for i := 0; i < n; i++ {
		sessions = append(sessions, stacktest.New(t, computeServer(server)).Session())
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
	e := stacktest.New(t, goldenClient())
	dial := stack.Dialer(e.Server.FileChanAddr(), nil, nil)
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
	// No proxy cache, no metadata: a plain NFS mount.
	plain := goldenServer()
	plain.Upstream = stacktest.NFS
	sess := stacktest.New(t, plain).Session()
	dur, err := clone.PlainNFSResume(sess, "/images/golden", "rh73")
	if err != nil {
		t.Fatal(err)
	}
	if dur <= 0 {
		t.Error("no duration measured")
	}
}

// wanCloneChain is the shape of the benchmark's wan_clone: an image server
// across link, and a compute server's caching client proxy with the file
// channel, which mounts no session of its own.
func wanCloneChain(t *testing.T, link *simnet.Link) *stacktest.Chain {
	fs := memfs.New()
	if err := vm.InstallImage(fs, "/images/g0", spec("img0", 1)); err != nil {
		t.Fatal(err)
	}
	return stacktest.New(t, stacktest.Spec{FS: fs, Link: link, FileChan: true, NoSession: true,
		Hops: []stack.ProxyOptions{{FileChanLink: link,
			CacheConfig: &cache.Config{Banks: 16, SetsPerBank: 16, Assoc: 4, BlockSize: 8192, Policy: cache.WriteBack}}}})
}

// instantiate is one wan_clone instantiation of img0 into /clones/<pass>
// through a fresh session: the MOUNT, the clone, one 64 KiB boot extent
// (two windows) and the first redo-log page.
func instantiate(t *testing.T, c *stacktest.Chain, pass string) {
	t.Helper()
	sess := c.Mount(gvfs.SessionConfig{PageCachePages: 64,
		Cred: sunrpc.UnixCred{UID: 500, GID: 500, MachineName: "compute"}.Encode()})
	res, err := clone.Clone(sess, clone.Options{GoldenDir: "/images/g0", CloneDir: "/clones/" + pass,
		Name: "img0", User: "alice", KeepVM: true})
	if err != nil {
		t.Fatal(err)
	}
	defer res.VM.Close()
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
}

// TestWarmCloneWANRoundTrips counts the calls that cross the link to the
// image server — the server-side proxy's gvfs_proxy_calls_total — for a
// cold clone and then a second clone of the same image through a fresh
// session, the shape of the benchmark's wan_clone. The client proxy
// serves the second clone's READs from its caches, its LOOKUPs and
// GETATTRs from its attribute table and its MOUNT from the reply to the
// first, so what is left to cross is the calls that create the clone's
// own files. The cold clone's count bounds what a boot extent costs when
// the session asks in windows.
func TestWarmCloneWANRoundTrips(t *testing.T) {
	c := wanCloneChain(t, simnet.NewLink(simnet.Local()))
	crossed := func() uint64 { return c.OriginCalls("") }
	procs := func() (lookups, listings uint64) { return c.OriginCalls("LOOKUP"), c.OriginCalls("READDIRPLUS") }
	lookups, listings := procs()
	before := crossed()
	instantiate(t, c, "cold")
	cold := crossed() - before
	lookupsCold, listingsCold := procs()
	instantiate(t, c, "warm")
	warm := crossed() - before - cold
	t.Logf("calls that crossed the link: cold clone %d (%d LOOKUP, %d READDIRPLUS), warm clone %d",
		cold, lookupsCold-lookups, listingsCold-listings, warm)
	// The cold clone's 64 KiB extent is two calls, not eight: the session
	// asks for its two 32 KiB windows (together, so one round trip). Its
	// names cost three listings — the root, /images, the image's directory
	// — which answer every LOOKUP after them, the proxy's own .meta probes
	// and the NOENT of /clones included.
	if cold > 13 {
		t.Errorf("cold clone sent %d calls across the link, want at most 13 (11 besides the extent's 2 windows)", cold)
	}
	if n := lookupsCold - lookups; n != 0 {
		t.Errorf("%d LOOKUPs crossed the link in the cold clone, want none: every name is in a listed directory", n)
	}
	if n := listingsCold - listings; n > 3 {
		t.Errorf("%d READDIRPLUS crossed the link in the cold clone, want at most 3 (/, /images, /images/g0)", n)
	}
	// MKDIR of the clone's directory, CREATE of its config, SYMLINK of its
	// disk, CREATE of its redo log.
	if warm > 4 {
		ops := c.Server.Proxy.Proxy.Statusz().Clients
		t.Errorf("warm clone sent %d calls across the link, want at most 4 (server proxy op mix, both clones: %+v)", warm, ops)
	}
	snap := c.Hop().Proxy.Snapshot()
	if hits := snap.Counter(`gvfs_proxy_attr_hits_total{proc="LOOKUP"}`); hits == 0 {
		t.Error("no LOOKUP was answered from the attribute table")
	}
}

// TestWarmCloneWANWallTime times a warm instantiation over a link whose
// round trip dwarfs everything local. Of its four calls across the link,
// the config's CREATE and the disk's SYMLINK go out together, so it waits
// for three round trips: MKDIR, those two, the redo log's CREATE. One
// at a time, with the MOUNT crossing too, it would wait for five.
func TestWarmCloneWANWallTime(t *testing.T) {
	const rtt = 200 * time.Millisecond
	c := wanCloneChain(t, simnet.NewLink(simnet.Profile{Name: "far", RTT: rtt}))
	instantiate(t, c, "cold")
	start := time.Now()
	instantiate(t, c, "warm")
	d := time.Since(start)
	t.Logf("warm clone: %v, %.2f round trips of %v", d, float64(d)/float64(rtt), rtt)
	if d >= rtt*9/2 {
		t.Errorf("warm clone took %v, %.1f round trips of %v; want under 4.5", d, float64(d)/float64(rtt), rtt)
	}
}

// TestCloneMissingGoldenConfig: a clone whose golden config is not there
// fails as the read fails, with the read's error, and makes no directory.
func TestCloneMissingGoldenConfig(t *testing.T) {
	e := stacktest.New(t, goldenClient())
	_, err := clone.Clone(e.Session(), clone.Options{GoldenDir: "/images/golden", CloneDir: "/clones/c1", Name: "missing"})
	var nfsErr *nfs3.Error
	if err == nil || !strings.HasPrefix(err.Error(), "clone: read golden config: ") || !errors.As(err, &nfsErr) || nfsErr.Status != nfs3.ErrNoEnt {
		t.Fatalf("clone of an image with no config: %v, want clone: read golden config: ... NOENT", err)
	}
	if _, err := e.FS.LookupPath("/clones"); err == nil {
		t.Error("the failed clone left /clones at the origin")
	}
}
