package proxy

// Proxy.paths under REMOVE and RENAME: an entry per live handle, none
// for a dead one, and one answer from childFH for a name that was
// removed and created again.

import (
	"bytes"
	"testing"

	"gvfs/internal/cache"
	"gvfs/internal/memfs"
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
	bc, err := cache.New(cache.Config{Dir: t.TempDir(), Banks: 4, SetsPerBank: 4, Assoc: 2,
		BlockSize: 8192, Policy: cache.WriteBack})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bc.Close() })
	p, err := New(Config{Upstream: nfsdInProcess(t, memfs.New()), BlockCache: bc, WritePolicy: cache.WriteBack})
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

func (p *Proxy) pathCount() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.paths)
}

func TestPathsFlatAcrossCreateRemoveCycles(t *testing.T) {
	p, nc, root := pathsProxy(t)
	before := p.pathCount()
	for i := 0; i < 10000; i++ {
		if _, _, err := nc.Create(root, "scratch.img", nfs3.SetAttr{}, false); err != nil {
			t.Fatalf("cycle %d: CREATE: %v", i, err)
		}
		if err := nc.Remove(root, "scratch.img"); err != nil {
			t.Fatalf("cycle %d: REMOVE: %v", i, err)
		}
	}
	if after := p.pathCount(); after != before {
		t.Errorf("len(paths) %d -> %d over 10^4 create/remove cycles, want flat", before, after)
	}
	// A REMOVE the upstream refuses leaves the file, and its entry.
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
