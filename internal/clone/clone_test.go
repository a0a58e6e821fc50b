package clone_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	gvfs "gvfs"
	"gvfs/internal/bubble"
	"gvfs/internal/cache"
	"gvfs/internal/clone"
	"gvfs/internal/filechan"
	"gvfs/internal/memfs"
	"gvfs/internal/nfs3"
	"gvfs/internal/obs"
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
func goldenServer(hops ...stack.ProxyOptions) stack.ChainSpec {
	return stack.ChainSpec{
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
func goldenClient() stack.ChainSpec {
	spec := goldenServer(stack.ProxyOptions{CacheConfig: &cache.Config{Banks: 16, SetsPerBank: 16, Assoc: 4, BlockSize: 8192, Policy: cache.WriteBack}})
	spec.FileChan = true
	return spec
}

// computeServer declares one compute server — a caching proxy with the
// file channel and a session — against server.
func computeServer(server *stack.ImageServer) stack.ChainSpec {
	return stack.ChainSpec{Upstream: stack.Own, Session: gvfs.SessionConfig{PageCachePages: 64},
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

// TestSCPCopyMissingFile: the baseline copy of an image without its
// memory state fails as TestCloneMissingMemState's clone does on the NFS
// path, with NFS3ERR_NOENT: the file channel carries the status.
func TestSCPCopyMissingFile(t *testing.T) {
	e := stacktest.New(t, goldenClient())
	golden, err := e.FS.LookupPath("/images/golden")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.FS.Remove(golden, "rh73.vmss"); err != nil {
		t.Fatal(err)
	}
	_, _, err = clone.SCPCopy(stack.Dialer(e.Server.FileChanAddr(), nil, nil), "/images/golden", "rh73")
	if err == nil || !strings.HasPrefix(err.Error(), "clone: scp rh73.vmss: ") || !errors.Is(err, filechan.ErrRemote) || nfs3.StatusOf(err) != nfs3.ErrNoEnt {
		t.Fatalf("scp of an image with no memory state: %v, want clone: scp rh73.vmss: ... NOENT", err)
	}
}

func TestPlainNFSResumeBaseline(t *testing.T) {
	// No proxy cache, no metadata: a plain NFS mount.
	plain := goldenServer()
	plain.Upstream = stack.NFS
	e := stacktest.New(t, plain)
	dur, err := clone.PlainNFSResume(e.Session(), "/images/golden", "rh73")
	if err != nil {
		t.Fatal(err)
	}
	if dur <= 0 {
		t.Error("no duration measured")
	}
	// The baseline resumes in place: it creates nothing in the golden
	// directory, a redo log least of all.
	if _, err := e.FS.LookupPath("/images/golden/rh73.redo"); err == nil {
		t.Error("PlainNFSResume created a redo log in the golden directory")
	}
}

// wanCloneChain is the shape of the benchmark's wan_clone: an image server
// across link, and a compute server's caching client proxy with the file
// channel, which mounts no session of its own.
func wanCloneChain(t *testing.T, link *simnet.Link) *stack.Chain {
	fs := memfs.New()
	if err := vm.InstallImage(fs, "/images/g0", spec("img0", 1)); err != nil {
		t.Fatal(err)
	}
	return stacktest.New(t, stack.ChainSpec{FS: fs, Link: link, FileChan: true, NoSession: true,
		Hops: []stack.ProxyOptions{{FileChanLink: link,
			CacheConfig: &cache.Config{Banks: 16, SetsPerBank: 16, Assoc: 4, BlockSize: 8192, Policy: cache.WriteBack}}}})
}

// instantiate is one wan_clone instantiation of img0 into /clones/<pass>
// through a fresh session: the MOUNT, the clone, one 64 KiB boot extent
// (two windows) and the first redo-log page.
func instantiate(t *testing.T, c *stack.Chain, pass string) {
	t.Helper()
	sess := stacktest.Mount(t, c, gvfs.SessionConfig{PageCachePages: 64,
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
	bubble.Run(t, func(t *testing.T) {
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
	})
}

// TestWarmCloneWANWallTime times a cold and then a warm instantiation
// over a link whose round trip dwarfs everything local. Of the warm
// clone's four calls across the link, the config's CREATE, the disk's
// SYMLINK and the redo log's CREATE go out together, so it waits for two
// round trips: MKDIR, then those three. The memory state is read during
// them. One at a time, with the MOUNT crossing too, it would wait for
// five. In virtual time the link's round trips are all the time there
// is, so both figures are exact: 9 round trips cold, 2 warm. Given the
// WAN's bandwidth as well, the warm clone's few hundred bytes each way
// add under a millisecond of serialization, and a second run on a chain
// of its own takes the same time to the nanosecond.
func TestWarmCloneWANWallTime(t *testing.T) {
	wall := time.Now()
	bubble.Run(t, func(t *testing.T) {
		const rtt = 200 * time.Millisecond
		cold, d := timeClones(t, simnet.Profile{Name: "far", RTT: rtt})
		t.Logf("cold clone: %v, warm clone: %v, %.2f round trips of %v", cold, d, float64(d)/float64(rtt), rtt)
		if !bubble.Virtual {
			if d >= rtt*5/2 {
				t.Errorf("warm clone took %v, %.1f round trips of %v; want under 2.5", d, float64(d)/float64(rtt), rtt)
			}
			return
		}
		if cold != 9*rtt || d != 2*rtt {
			t.Errorf("cold clone took %v and warm %v; want exactly 9 and 2 round trips of %v", cold, d, rtt)
		}
		wan := simnet.Profile{Name: "far", RTT: rtt, Bandwidth: simnet.WAN().Bandwidth}
		cold, d = timeClones(t, wan)
		_, again := timeClones(t, wan)
		t.Logf("at %.2f MB/s: cold clone: %v, warm clone: %v, then %v", wan.Bandwidth/1e6, cold, d, again)
		if d < 2*rtt || d >= 2*rtt+time.Millisecond || again != d {
			t.Errorf("at %.2f MB/s the warm clone took %v, then %v; want one time, 2 round trips of %v plus under 1ms", wan.Bandwidth/1e6, d, again, rtt)
		}
	})
	t.Logf("wall time: %v", time.Since(wall))
}

// timeClones times a cold and then a warm instantiation on a chain of
// its own across a link of profile p.
func timeClones(t *testing.T, p simnet.Profile) (cold, warm time.Duration) {
	c := wanCloneChain(t, simnet.NewLink(p))
	start := time.Now()
	instantiate(t, c, "cold")
	cold = time.Since(start)
	start = time.Now()
	instantiate(t, c, "warm")
	return cold, time.Since(start)
}

// TestCloneMissingGoldenConfig: a clone whose golden config is not there
// fails as the read fails, with the read's error, and makes no directory.
func TestCloneMissingGoldenConfig(t *testing.T) {
	e := stacktest.New(t, goldenClient())
	_, err := clone.Clone(e.Session(), clone.Options{GoldenDir: "/images/golden", CloneDir: "/clones/c1", Name: "missing"})
	if err == nil || !strings.HasPrefix(err.Error(), "clone: read golden config: ") || nfs3.StatusOf(err) != nfs3.ErrNoEnt {
		t.Fatalf("clone of an image with no config: %v, want clone: read golden config: ... NOENT", err)
	}
	if _, err := e.FS.LookupPath("/clones"); err == nil {
		t.Error("the failed clone left /clones at the origin")
	}
}

// openFiles is how many files sess — mounted with reg as its Metrics —
// has open.
func openFiles(reg *obs.Registry) float64 { return reg.Snapshot().Gauge("gvfs_session_open_files") }

// TestCloneMissingMemState: the golden memory state is not there. The
// clone's directory, config, link and redo log are made while the state is
// read; the clone then fails as the resume's read failed, closes the redo
// log and removes it again, so it leaves what a resume that failed after
// those steps always left.
func TestCloneMissingMemState(t *testing.T) {
	spec := goldenClient()
	reg := obs.NewRegistry()
	spec.Session.Metrics = reg
	e := stacktest.New(t, spec)
	golden, err := e.FS.LookupPath("/images/golden")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.FS.Remove(golden, "rh73.vmss"); err != nil {
		t.Fatal(err)
	}
	_, err = clone.Clone(e.Session(), clone.Options{GoldenDir: "/images/golden", CloneDir: "/clones/c1", Name: "rh73", KeepVM: true})
	if err == nil || !strings.HasPrefix(err.Error(), "clone: resume: ") || nfs3.StatusOf(err) != nfs3.ErrNoEnt {
		t.Fatalf("clone of an image with no memory state: %v, want clone: resume: ... NOENT", err)
	}
	if n := openFiles(reg); n != 0 {
		t.Errorf("the failed clone left %v files open in the session, want 0: the redo log is closed", n)
	}
	if _, err := e.FS.LookupPath("/clones/c1/rh73.vmx"); err != nil {
		t.Errorf("the config a failed resume leaves is not at the origin: %v", err)
	}
	if _, err := e.FS.LookupPath("/clones/c1/rh73.redo"); err == nil || e.OriginCalls("REMOVE") != 1 {
		t.Errorf("the failed clone's redo log: %v at the origin after %d REMOVEs, want NOENT after 1", err, e.OriginCalls("REMOVE"))
	}
}

// TestCloneMkdirFailsDuringStateRead: the clone's directory cannot be
// made (its parent is a file) while the memory state is being read. The
// clone returns the mkdir's error, and only once the read is done: the
// state went through the file channel and the reader's file is closed.
func TestCloneMkdirFailsDuringStateRead(t *testing.T) {
	spec := goldenClient()
	reg := obs.NewRegistry()
	spec.Session.Metrics = reg
	e := stacktest.New(t, spec)
	_, err := clone.Clone(e.Session(), clone.Options{GoldenDir: "/images/golden", CloneDir: "/images/golden/rh73.vmx/c1", Name: "rh73"})
	if err == nil || !strings.HasPrefix(err.Error(), "clone: mkdir: ") || nfs3.StatusOf(err) != nfs3.ErrNotDir {
		t.Fatalf("clone into a directory under a file: %v, want clone: mkdir: ... NOTDIR", err)
	}
	if n := e.Hop().Proxy.Snapshot().Counter("gvfs_proxy_filechan_fetches_total"); n != 1 {
		t.Errorf("%d file channel fetches when the clone returned, want 1: the state read ran to its end", n)
	}
	if n := openFiles(reg); n != 0 {
		t.Errorf("%v files open in the session when the clone returned, want 0: the reader is done", n)
	}
}

// TestOpenRedoLogAfterClone: the clone made the VM's redo log with its
// config, so opening it sends nothing across the link and finds it empty.
func TestOpenRedoLogAfterClone(t *testing.T) {
	c := wanCloneChain(t, simnet.NewLink(simnet.Local()))
	sess := stacktest.Mount(t, c, gvfs.SessionConfig{PageCachePages: 64})
	res, err := clone.Clone(sess, clone.Options{GoldenDir: "/images/g0", CloneDir: "/clones/c1", Name: "img0", KeepVM: true})
	if err != nil {
		t.Fatal(err)
	}
	defer res.VM.Close()
	before := c.OriginCalls("")
	redo, err := res.VM.OpenRedoLog()
	if err != nil {
		t.Fatal(err)
	}
	if n := c.OriginCalls("") - before; n != 0 {
		t.Errorf("OpenRedoLog after Clone sent %d calls across the link, want 0", n)
	}
	if redo.Path() != "/clones/c1/img0.redo" || redo.Size() != 0 {
		t.Errorf("redo log %s of %d bytes, want the empty /clones/c1/img0.redo", redo.Path(), redo.Size())
	}
	if _, err := c.FS.LookupPath("/clones/c1/img0.redo"); err != nil {
		t.Errorf("the redo log is not at the origin: %v", err)
	}
}
