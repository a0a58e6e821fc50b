package proxy

// The attribute table's name space under REMOVE and RENAME: an entry per
// live handle, none for a dead one, one answer for a name that was
// removed and created again — and bounded state however long that goes on.

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"gvfs/internal/cache"
	"gvfs/internal/filechan"
	"gvfs/internal/memfs"
	"gvfs/internal/meta"
	"gvfs/internal/mountd"
	"gvfs/internal/nfs3"
	"gvfs/internal/sunrpc"
)

// nfsdInProcess serves fs the way stack.StartNFSServer does, with no
// socket in between.
func nfsdInProcess(t *testing.T, fs *memfs.FS) sunrpc.Local {
	t.Helper()
	root, err := fs.Root()
	if err != nil {
		t.Fatal(err)
	}
	md := mountd.NewServer()
	md.Export("/", root)
	nfsd := nfs3.NewServer(fs)
	return sunrpc.Local{H: sunrpc.HandlerFunc(func(c *sunrpc.Call) ([]byte, sunrpc.AcceptStat) {
		if c.Prog == nfs3.MountProgram {
			return md.HandleCall(c)
		}
		return nfsd.HandleCall(c)
	})}
}

// pathsProxy is a write-back caching proxy over an in-process nfsd,
// mounted, with an NFS client speaking to it in process too.
func pathsProxy(t *testing.T) (*Proxy, *nfs3.Client, nfs3.FH) {
	t.Helper()
	return pathsProxyOn(t, nfsdInProcess(t, memfs.New()))
}

// pathsProxyOn is pathsProxy over a given upstream, so that several
// proxies can share one origin.
func pathsProxyOn(t *testing.T, upstream nfs3.Caller) (*Proxy, *nfs3.Client, nfs3.FH) {
	t.Helper()
	bc, err := cache.New(cache.Config{Dir: t.TempDir(), Banks: 4, SetsPerBank: 4, Assoc: 2,
		BlockSize: 8192, Policy: cache.WriteBack})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bc.Close() })
	p, err := New(Config{Upstream: upstream, BlockCache: bc})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Shutdown)
	cred := sunrpc.UnixCred{UID: 500, GID: 500, MachineName: "paths"}.Encode()
	rpc := sunrpc.Local{H: p}
	root, err := mountd.Mount(rpc, cred, "/")
	if err != nil {
		t.Fatal(err)
	}
	return p, nfs3.NewClient(rpc, cred), root
}

// TestRenameWaitsForWholePut: a fetched file's put goes to the origin by
// path, so a RENAME of the file issued while the put is in flight waits
// for it. Were the RENAME to land first, the put would recreate the old
// name with the written bytes and leave the renamed file without them.
func TestRenameWaitsForWholePut(t *testing.T) {
	const bs = 8192
	fs := memfs.New()
	state := bytes.Repeat([]byte{7}, 4*bs)
	fs.WriteFile("/mem.vmss", state)
	blob, _ := meta.ForWholeFile(state, bs).Encode()
	fs.WriteFile("/"+meta.NameFor("mem.vmss"), blob)
	bc, err := cache.New(cache.Config{Dir: t.TempDir(), Banks: 4, SetsPerBank: 4, Assoc: 2,
		BlockSize: bs, Policy: cache.WriteBack})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bc.Close() })
	var hold atomic.Bool // the next dial waits for release
	dialed, release := make(chan struct{}, 1), make(chan struct{})
	p, err := New(Config{Upstream: nfsdInProcess(t, fs), BlockCache: bc,
		FileChanDial: func() (net.Conn, error) {
			if hold.Load() {
				dialed <- struct{}{}
				<-release
			}
			a, b := net.Pipe()
			go filechan.NewServer(fs).ServeConn(b)
			return a, nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Shutdown)
	cred := sunrpc.UnixCred{UID: 500, GID: 500, MachineName: "paths"}.Encode()
	rpc := sunrpc.Local{H: p}
	root, err := mountd.Mount(rpc, cred, "/")
	if err != nil {
		t.Fatal(err)
	}
	nc := nfs3.NewClient(rpc, cred)
	fh, _, err := nc.Lookup(root, "mem.vmss")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := nc.Read(fh, 0, bs); err != nil || p.stats.fileChanFetch.Value() != 1 {
		t.Fatalf("the first READ (err %v) did not fetch the file", err)
	}
	patch := bytes.Repeat([]byte{0xa5}, bs)
	if _, _, err := nc.Write(fh, bs, patch, nfs3.Unstable); err != nil {
		t.Fatal(err)
	}
	copy(state[bs:], patch)

	hold.Store(true)
	wroteBack := make(chan error, 1)
	go func() { wroteBack <- p.WriteBack() }()
	<-dialed // the put is in flight
	renamed := make(chan error, 1)
	go func() { renamed <- nc.Rename(root, "mem.vmss", root, "moved.vmss") }()
	select {
	case err := <-renamed:
		renamed <- err // for the wait below
		t.Errorf("the RENAME (err %v) returned while the put to the old name was in flight", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	if err := <-wroteBack; err != nil {
		t.Fatal(err)
	}
	if err := <-renamed; err != nil {
		t.Fatal(err)
	}
	if got, err := fs.ReadFile("/moved.vmss"); err != nil || !bytes.Equal(got, state) {
		t.Errorf("the renamed file does not hold the written state (err %v)", err)
	}
	if _, err := fs.ReadFile("/mem.vmss"); err == nil {
		t.Error("the put recreated the old name")
	}
}

// internLen is the number of values t holds.
func internLen[V any](t *intern[V]) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.m)
}

// pathCount is the number of handles the table holds (negative entries,
// which stand for names, not handles, are not counted).
func (p *Proxy) pathCount() int {
	p.attrs.mu.Lock()
	defer p.attrs.mu.Unlock()
	return len(p.attrs.byFH)
}

// childFH is the handle the table has for dir/name.
func (p *Proxy) childFH(dir nfs3.FH, name string) (nfs3.FH, bool) {
	fh, _, ok := p.attrs.child(dir, name)
	return fh, ok && len(fh) > 0
}

// TestPathsFlatAcrossCreateRemoveCycles is the soak: 10^5 create / lookup /
// remove cycles of distinct names, each call under a credential never seen
// before. The table stays under its cap (it would hold 10^5 negative
// entries otherwise), the credential-keyed label cache under its, and the
// heap does not grow with the number of cycles.
func TestPathsFlatAcrossCreateRemoveCycles(t *testing.T) {
	cycles := 100000
	if testing.Short() {
		cycles = 70000 // still past attrTableCap
	}
	p, _, root := pathsProxy(t)
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	var mid uint64
	for i := 0; i < cycles; i++ {
		nc := nfs3.NewClient(sunrpc.Local{H: p}, sunrpc.UnixCred{UID: 500, GID: 500, MachineName: "soak", Stamp: uint32(i)}.Encode())
		name := fmt.Sprintf("scratch-%d.img", i)
		fh, _, err := nc.Create(root, name, nfs3.SetAttr{}, false)
		if err != nil {
			t.Fatalf("cycle %d: CREATE: %v", i, err)
		}
		if got, _, err := nc.Lookup(root, name); err != nil || !bytes.Equal(got, fh) {
			t.Fatalf("cycle %d: LOOKUP = %v, %v; want the created handle", i, got, err)
		}
		if err := nc.Remove(root, name); err != nil {
			t.Fatalf("cycle %d: REMOVE: %v", i, err)
		}
		if _, _, err := nc.Lookup(root, name); nfs3.StatusOf(err) != nfs3.ErrNoEnt {
			t.Fatalf("cycle %d: LOOKUP after REMOVE: %v, want NOENT", i, err)
		}
		if n := p.attrs.len(); n > attrTableCap+1 {
			t.Fatalf("cycle %d: table holds %d entries, cap %d", i, n, attrTableCap)
		}
		if i == cycles*3/4 {
			mid = heap() // the table has been at its cap for a while
		}
	}
	if after := heap(); after > mid+mid/4+(1<<20) {
		t.Errorf("heap %d -> %d bytes over the last quarter of %d cycles, want a plateau", mid, after, cycles)
	}
	if n := p.pathCount(); n != 1 {
		t.Errorf("%d handles in the table after every file was removed, want the root alone", n)
	}
	if labels := internLen(&p.labels); labels > internMax {
		t.Errorf("%d credential labels cached, bound %d", labels, internMax)
	}
	snap := p.Snapshot()
	if hits, fwd := snap.Counter(`gvfs_proxy_attr_hits_total{proc="LOOKUP"}`), snap.Counter("gvfs_proxy_forwarded_total"); hits != uint64(2*cycles) || fwd != uint64(2*cycles+1) {
		t.Errorf("%d LOOKUPs answered from the table and %d calls forwarded, want %d and one more (the MOUNT, every CREATE and REMOVE, no LOOKUP)", hits, fwd, 2*cycles)
	}

	// A REMOVE the upstream refuses leaves the file, and its entry.
	nc := nfs3.NewClient(sunrpc.Local{H: p}, sunrpc.UnixCred{UID: 500, GID: 500, MachineName: "soak"}.Encode())
	fh, _, err := nc.Create(root, "kept.img", nfs3.SetAttr{}, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := nc.Remove(root, "no-such.img"); err == nil {
		t.Fatal("REMOVE of a missing name succeeded")
	}
	if got, ok := p.childFH(root, "kept.img"); !ok || !bytes.Equal(got, fh) {
		t.Errorf("childFH(kept.img) = %v, %v after an unrelated failed REMOVE", got, ok)
	}
}

func TestRenameRekeysPath(t *testing.T) {
	p, nc, root := pathsProxy(t)
	fh, _, err := nc.Create(root, "a.img", nfs3.SetAttr{}, false)
	if err != nil {
		t.Fatal(err)
	}
	old, _, err := nc.Create(root, "b.img", nfs3.SetAttr{}, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := nc.Write(old, 0, make([]byte, 8192), nfs3.Unstable); err != nil {
		t.Fatal(err)
	}
	before := p.pathCount()
	if err := nc.Rename(root, "a.img", root, "b.img"); err != nil {
		t.Fatal(err)
	}
	if got := p.fileLabel(fh); got != "/b.img" {
		t.Errorf("renamed file is labelled %q, want /b.img", got)
	}
	if got, ok := p.childFH(root, "b.img"); !ok || !bytes.Equal(got, fh) {
		t.Errorf("childFH(b.img) = %v, %v; want the renamed handle %v", got, ok, fh)
	}
	if got, ok := p.childFH(root, "a.img"); ok {
		t.Errorf("childFH(a.img) still answers %v after the rename", got)
	}
	if after := p.pathCount(); after != before-1 {
		t.Errorf("len(paths) %d -> %d: the replaced b.img must lose its entry", before, after)
	}
	if cached, _ := p.cfg.BlockCache.Peek(old, 0); cached {
		t.Error("the replaced file's block is still cached")
	}
}

// TestRemoveAfterRecreateInvalidatesLiveHandle: a name is removed,
// created again (a new handle) and removed again, round after round.
// Every REMOVE must invalidate the blocks of the handle that is live at
// that moment — with the dead handles' entries left in paths, childFH
// picked among them in map order.
func TestRemoveAfterRecreateInvalidatesLiveHandle(t *testing.T) {
	p, nc, root := pathsProxy(t)
	var prev nfs3.FH
	for round := 0; round < 8; round++ {
		fh, _, err := nc.Create(root, "vm.redo", nfs3.SetAttr{}, false)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(fh, prev) {
			t.Fatal("memfs reused a handle; the test needs a new one per create")
		}
		prev = fh
		if _, _, err := nc.Write(fh, 0, bytes.Repeat([]byte{byte(round)}, 8192), nfs3.Unstable); err != nil {
			t.Fatal(err)
		}
		if cached, _ := p.cfg.BlockCache.Peek(fh, 0); !cached {
			t.Fatalf("round %d: the WRITE was not absorbed", round)
		}
		if got, ok := p.childFH(root, "vm.redo"); !ok || !bytes.Equal(got, fh) {
			t.Errorf("round %d: childFH = %v, want the live handle %v", round, got, fh)
		}
		if err := nc.Remove(root, "vm.redo"); err != nil {
			t.Fatal(err)
		}
		if cached, _ := p.cfg.BlockCache.Peek(fh, 0); cached {
			t.Errorf("round %d: REMOVE left the live handle's block cached", round)
		}
	}
}

// TestCreateTruncateDropsCachedBlocks: a CREATE that sets a size
// truncates the file it names, so the proxy drops that file's cached
// blocks before forwarding it, as for a truncating SETATTR. A short WRITE
// after it must not merge with the old bytes, nor a flush send them back
// past the new end of file.
func TestCreateTruncateDropsCachedBlocks(t *testing.T) {
	fs := memfs.New()
	fs.WriteFile("/disk.img", bytes.Repeat([]byte{0xaa}, 16<<10))
	p, nc, root := pathsProxyOn(t, nfsdInProcess(t, fs))
	fh, _, err := nc.Lookup(root, "disk.img")
	if err != nil {
		t.Fatal(err)
	}
	for off := uint64(0); off < 16<<10; off += 8192 {
		if _, _, err := nc.Read(fh, off, 8192); err != nil {
			t.Fatal(err)
		}
	}
	zero := uint64(0)
	if _, _, err := nc.Create(root, "disk.img", nfs3.SetAttr{Size: &zero}, false); err != nil {
		t.Fatal(err)
	}
	if _, _, err := nc.Write(fh, 0, []byte{0x01}, nfs3.Unstable); err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, err := fs.ReadFile("/disk.img"); err != nil || !bytes.Equal(got, []byte{0x01}) {
		t.Fatalf("origin holds %d bytes (% x …), %v; want the 1 byte written", len(got), got[:min(len(got), 4)], err)
	}
}

// TestAuditFollowsDirtyHandle: the write-back audit tracks a dirty block
// by its handle, so a commit closes its lifecycle whatever the file is
// called by then — after a RENAME, or after a Flush forgot the path and
// a LOOKUP found it again. Keyed by the label, the entry outlived the
// commit: /statusz's dirty_blocks never came down and the table grew.
func TestAuditFollowsDirtyHandle(t *testing.T) {
	for _, tc := range []struct {
		name    string
		relabel func(t *testing.T, p *Proxy, nc *nfs3.Client, root, fh nfs3.FH) (label string)
	}{
		{"rename", func(t *testing.T, p *Proxy, nc *nfs3.Client, root, fh nfs3.FH) string {
			if err := nc.Rename(root, "a", root, "b"); err != nil {
				t.Fatal(err)
			}
			return "/b"
		}},
		{"flush then lookup", func(t *testing.T, p *Proxy, nc *nfs3.Client, root, fh nfs3.FH) string {
			if err := p.Flush(); err != nil {
				t.Fatal(err)
			}
			// Dirty again under the handle alone: the Flush forgot its path.
			if _, _, err := nc.Write(fh, 0, bytes.Repeat([]byte{2}, 8192), nfs3.Unstable); err != nil {
				t.Fatal(err)
			}
			if _, _, err := nc.Lookup(root, "a"); err != nil {
				t.Fatal(err)
			}
			return "/a"
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, nc, root := pathsProxy(t)
			fh, _, err := nc.Create(root, "a", nfs3.SetAttr{}, false)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := nc.Write(fh, 0, bytes.Repeat([]byte{1}, 8192), nfs3.Unstable); err != nil {
				t.Fatal(err)
			}
			label := tc.relabel(t, p, nc, root, fh)
			if err := p.WriteBack(); err != nil {
				t.Fatal(err)
			}
			if n := p.cfg.BlockCache.DirtyCount(); n != 0 {
				t.Fatalf("%d blocks still dirty in the cache after WriteBack", n)
			}
			audit := p.Statusz().Audit
			if audit.DirtyBlocks != 0 || audit.OldestDirtyAgeNs != 0 {
				t.Errorf("audit reports %d dirty blocks, oldest %dns, after every block was written back",
					audit.DirtyBlocks, audit.OldestDirtyAgeNs)
			}
			last := audit.Events[len(audit.Events)-1]
			if last.Kind != AuditCommit || last.File != label || last.AgeNs <= 0 {
				t.Errorf("last audit event %+v, want the commit of %s with its dirty age", last, label)
			}
		})
	}
}
