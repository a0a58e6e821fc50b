package nfs3_test

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"

	"gvfs/internal/bufpool"
	"gvfs/internal/memfs"
	"gvfs/internal/mountd"
	"gvfs/internal/nfs3"
	"gvfs/internal/sunrpc"
)

// startStack runs an NFS+MOUNT server over memfs on loopback TCP and
// returns a connected client plus the export root handle.
func startStack(t testing.TB) (*nfs3.Client, nfs3.FH, *memfs.FS) {
	t.Helper()
	fs := memfs.New()
	root, _ := fs.Root()

	rpcSrv := sunrpc.NewServer()
	rpcSrv.Register(nfs3.Program, nfs3.Version, nfs3.NewServer(fs))
	md := mountd.NewServer()
	md.Export("/export", root)
	rpcSrv.Register(nfs3.MountProgram, nfs3.MountVersion, md)

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go rpcSrv.Serve(l)
	t.Cleanup(func() { rpcSrv.Close(); l.Close() })

	rpc, err := sunrpc.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rpc.Close() })

	cred := sunrpc.UnixCred{UID: 1000, GID: 1000, MachineName: "test"}.Encode()
	fh, err := mountd.Mount(rpc, cred, "/export")
	if err != nil {
		t.Fatal(err)
	}
	return nfs3.NewClient(rpc, cred), fh, fs
}

func TestMountUnknownExport(t *testing.T) {
	_, _, _ = startStack(t) // ensure stack builds
	fs := memfs.New()
	root, _ := fs.Root()
	rpcSrv := sunrpc.NewServer()
	md := mountd.NewServer()
	md.Export("/export", root)
	rpcSrv.Register(nfs3.MountProgram, nfs3.MountVersion, md)
	l, _ := net.Listen("tcp", "127.0.0.1:0")
	defer l.Close()
	go rpcSrv.Serve(l)
	defer rpcSrv.Close()
	rpc, _ := sunrpc.Dial(l.Addr().String())
	defer rpc.Close()
	if _, err := mountd.Mount(rpc, sunrpc.AuthNoneCred, "/nope"); err == nil {
		t.Error("mount of unknown export succeeded")
	}
}

func TestNullPing(t *testing.T) {
	c, _, _ := startStack(t)
	if err := c.Null(); err != nil {
		t.Fatal(err)
	}
}

func TestEndToEndFileLifecycle(t *testing.T) {
	c, root, _ := startStack(t)

	fh, attr, err := c.Create(root, "state.vmss", nfs3.SetAttr{}, false)
	if err != nil {
		t.Fatal(err)
	}
	if attr == nil || attr.Type != nfs3.TypeReg {
		t.Fatalf("attr = %+v", attr)
	}

	payload := bytes.Repeat([]byte("GVFS"), 1000)
	n, wattr, err := c.Write(fh, 0, payload, nfs3.FileSync)
	if err != nil {
		t.Fatal(err)
	}
	if n != uint32(len(payload)) {
		t.Errorf("wrote %d, want %d", n, len(payload))
	}
	if wattr == nil || wattr.Size != uint64(len(payload)) {
		t.Errorf("post-write attr %+v", wattr)
	}

	data, eof, err := c.Read(fh, 0, 8192)
	if err != nil {
		t.Fatal(err)
	}
	if !eof || !bytes.Equal(data, payload) {
		t.Errorf("read mismatch: %d bytes, eof=%v", len(data), eof)
	}

	// Read the tail.
	data, eof, err = c.Read(fh, 3000, 8192)
	if err != nil || !eof {
		t.Fatalf("tail read: err=%v eof=%v", err, eof)
	}
	if !bytes.Equal(data, payload[3000:]) {
		t.Error("tail read mismatch")
	}

	got, err := c.GetAttr(fh)
	if err != nil || got.Size != 4000 {
		t.Errorf("getattr: %+v err=%v", got, err)
	}

	if err := c.Remove(root, "state.vmss"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Lookup(root, "state.vmss"); nfs3.StatusOf(err) != nfs3.ErrNoEnt {
		t.Errorf("lookup after remove: %v", err)
	}
}

func TestEndToEndDirectories(t *testing.T) {
	c, root, _ := startStack(t)
	dir, _, err := c.Mkdir(root, "images", nfs3.SetAttr{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, _, err := c.Create(dir, fmt.Sprintf("img%02d.vmdk", i), nfs3.SetAttr{}, false); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := c.ReadDirAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 20 {
		t.Errorf("entries = %d, want 20", len(entries))
	}
	for i, e := range entries {
		want := fmt.Sprintf("img%02d.vmdk", i)
		if e.Name != want {
			t.Errorf("entry %d = %q, want %q", i, e.Name, want)
		}
	}
}

func TestEndToEndSymlink(t *testing.T) {
	c, root, _ := startStack(t)
	fh, _, err := c.Symlink(root, "disk.vmdk", "../golden/disk.vmdk")
	if err != nil {
		t.Fatal(err)
	}
	target, err := c.ReadLink(fh)
	if err != nil || target != "../golden/disk.vmdk" {
		t.Errorf("target = %q err=%v", target, err)
	}
}

func TestEndToEndRename(t *testing.T) {
	c, root, _ := startStack(t)
	fh, _, _ := c.Create(root, "a", nfs3.SetAttr{}, false)
	c.Write(fh, 0, []byte("x"), nfs3.FileSync)
	if err := c.Rename(root, "a", root, "b"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Lookup(root, "b"); err != nil {
		t.Error(err)
	}
}

func TestEndToEndSetAttr(t *testing.T) {
	c, root, _ := startStack(t)
	fh, _, _ := c.Create(root, "f", nfs3.SetAttr{}, false)
	c.Write(fh, 0, make([]byte, 100), nfs3.FileSync)
	sz := uint64(10)
	attr, err := c.SetAttr(fh, nfs3.SetAttr{Size: &sz})
	if err != nil {
		t.Fatal(err)
	}
	if attr == nil || attr.Size != 10 {
		t.Errorf("attr = %+v", attr)
	}
}

func TestEndToEndAccessFSInfo(t *testing.T) {
	c, root, _ := startStack(t)
	granted, err := c.Access(root, nfs3.AccessRead|nfs3.AccessLookup)
	if err != nil {
		t.Fatal(err)
	}
	if granted != nfs3.AccessRead|nfs3.AccessLookup {
		t.Errorf("granted = %#x", granted)
	}
	info, err := c.FSInfo(root)
	if err != nil {
		t.Fatal(err)
	}
	if info.RtMax != 32768 || info.WtPref != 8192 {
		t.Errorf("fsinfo = %+v", info)
	}
	st, err := c.FSStat(root)
	if err != nil || st.TotalBytes == 0 {
		t.Errorf("fsstat = %+v err=%v", st, err)
	}
}

func TestEndToEndCommit(t *testing.T) {
	c, root, _ := startStack(t)
	fh, _, _ := c.Create(root, "f", nfs3.SetAttr{}, false)
	c.Write(fh, 0, []byte("unstable"), nfs3.Unstable)
	if err := c.Commit(fh, 0, 0); err != nil {
		t.Fatal(err)
	}
}

func TestEndToEndErrors(t *testing.T) {
	c, root, _ := startStack(t)
	if _, _, err := c.Lookup(root, "missing"); nfs3.StatusOf(err) != nfs3.ErrNoEnt {
		t.Errorf("lookup: %v", err)
	}
	if _, err := c.GetAttr(nfs3.FH{9, 9, 9, 9, 9, 9, 9, 9}); nfs3.StatusOf(err) != nfs3.ErrStale {
		t.Errorf("getattr: %v", err)
	}
	if err := c.Remove(root, "missing"); nfs3.StatusOf(err) != nfs3.ErrNoEnt {
		t.Errorf("remove: %v", err)
	}
}

func TestConcurrentClients(t *testing.T) {
	c, root, _ := startStack(t)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("file%d", i)
			fh, _, err := c.Create(root, name, nfs3.SetAttr{}, false)
			if err != nil {
				t.Error(err)
				return
			}
			blob := bytes.Repeat([]byte{byte(i)}, 4096)
			for off := uint64(0); off < 64*1024; off += 4096 {
				if _, _, err := c.Write(fh, off, blob, nfs3.Unstable); err != nil {
					t.Error(err)
					return
				}
			}
			for off := uint64(0); off < 64*1024; off += 4096 {
				data, _, err := c.Read(fh, off, 4096)
				if err != nil || !bytes.Equal(data, blob) {
					t.Errorf("readback %s@%d: err=%v", name, off, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

func TestEndToEndReadDirPlus(t *testing.T) {
	c, root, _ := startStack(t)
	dir, _, err := c.Mkdir(root, "plus", nfs3.SetAttr{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		fh, _, err := c.Create(dir, fmt.Sprintf("f%d", i), nfs3.SetAttr{}, false)
		if err != nil {
			t.Fatal(err)
		}
		c.Write(fh, 0, bytes.Repeat([]byte{byte(i)}, 100*(i+1)), nfs3.FileSync)
	}
	entries, eof, err := c.ReadDirPlus(dir, 0, 1<<16)
	if err != nil || !eof {
		t.Fatalf("readdirplus: eof=%v err=%v", eof, err)
	}
	if len(entries) != 5 {
		t.Fatalf("entries = %d", len(entries))
	}
	for i, ent := range entries {
		if ent.Attr == nil || ent.Handle == nil {
			t.Errorf("entry %d missing attr/handle", i)
			continue
		}
		if ent.Attr.Size != uint64(100*(i+1)) {
			t.Errorf("entry %d size = %d", i, ent.Attr.Size)
		}
		// The returned handle is directly usable.
		data, _, err := c.Read(ent.Handle, 0, 10)
		if err != nil || len(data) == 0 {
			t.Errorf("read via readdirplus handle: %v", err)
		}
	}
}

// TestReaddirplusHonoursMaxcount: a 2000-entry directory paged by
// READDIRPLUS at a maxcount of 4 KiB and of 32 KiB. No reply is longer
// than the maxcount asked for (RFC 1813 §3.3.17 — a backend's budget,
// charged at READDIR's entry size, is not), every name comes back exactly
// once, and only the last reply says eof.
func TestReaddirplusHonoursMaxcount(t *testing.T) {
	c, root, fs := startStack(t)
	const n = 2000
	for i := 0; i < n; i++ {
		if err := fs.WriteFile(fmt.Sprintf("/big/entry-%04d.img", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	dir, _, err := c.Lookup(root, "big")
	if err != nil {
		t.Fatal(err)
	}
	for _, maxcount := range []uint32{4 << 10, 32 << 10} {
		seen := make(map[string]int, n)
		var cookie uint64
		for pages := 0; ; pages++ {
			args := nfs3.ReaddirplusArgs{Dir: dir, Cookie: cookie, DirCount: maxcount, MaxCount: maxcount}
			res, err := c.RawCall(nfs3.ProcReaddirplus, args.Encode())
			if err != nil {
				t.Fatal(err)
			}
			if len(res) > int(maxcount) {
				t.Errorf("maxcount %d: page %d is %d bytes", maxcount, pages, len(res))
			}
			r, err := nfs3.DecodeReaddirplusRes(res)
			if err != nil || r.Status != nfs3.OK || len(r.Entries) == 0 {
				t.Fatalf("maxcount %d: page %d: %v, %+v", maxcount, pages, err, r)
			}
			for _, e := range r.Entries {
				seen[e.Name]++
				if e.Handle == nil || e.Attr == nil {
					t.Errorf("maxcount %d: %s came without its handle or attributes", maxcount, e.Name)
				}
			}
			cookie = r.Entries[len(r.Entries)-1].Cookie
			if r.EOF != (len(seen) == n) {
				t.Fatalf("maxcount %d: page %d says eof=%v with %d of %d names seen", maxcount, pages, r.EOF, len(seen), n)
			}
			if r.EOF {
				t.Logf("maxcount %d: %d pages", maxcount, pages+1)
				break
			}
		}
		for name, times := range seen {
			if times != 1 {
				t.Errorf("maxcount %d: %s listed %d times", maxcount, name, times)
			}
		}
	}
	// Too small for one entry: NFS3ERR_TOOSMALL, not an over-long reply.
	args := nfs3.ReaddirplusArgs{Dir: dir, DirCount: 64, MaxCount: 128}
	res, err := c.RawCall(nfs3.ProcReaddirplus, args.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if r, err := nfs3.DecodeReaddirplusRes(res); err != nil || r.Status != nfs3.ErrTooSmall {
		t.Errorf("maxcount 128: %+v, %v; want NFS3ERR_TOOSMALL", r, err)
	}
}

// TestHardLinks: LINK makes a second name for a file; a REMOVE of either
// name leaves the file to the other.
func TestHardLinks(t *testing.T) {
	c, root, _ := startStack(t)
	fh, _, err := c.Create(root, "a.img", nfs3.SetAttr{}, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Write(fh, 0, []byte("shared"), nfs3.FileSync); err != nil {
		t.Fatal(err)
	}
	if err := c.Link(fh, root, "b.img"); err != nil {
		t.Fatal(err)
	}
	if err := c.Link(fh, root, "b.img"); nfs3.StatusOf(err) != nfs3.ErrExist {
		t.Errorf("LINK over an existing name: %v, want EXIST", err)
	}
	got, attr, err := c.Lookup(root, "b.img")
	if err != nil || !bytes.Equal(got, fh) || attr.Nlink != 2 {
		t.Fatalf("LOOKUP b.img = %v, %+v, %v; want the linked handle, nlink 2", got, attr, err)
	}
	if err := c.Remove(root, "a.img"); err != nil {
		t.Fatal(err)
	}
	if data, _, err := c.Read(fh, 0, 64); err != nil || string(data) != "shared" {
		t.Errorf("READ after one name went: %q, %v", data, err)
	}
	if err := c.Remove(root, "b.img"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetAttr(fh); nfs3.StatusOf(err) != nfs3.ErrStale {
		t.Errorf("GETATTR after the last name went: %v, want STALE", err)
	}
}

func TestMknodAndLinkNotSupported(t *testing.T) {
	c, root, _ := startStack(t)
	// MKNOD: diropargs + type; encode minimal args via raw call.
	args := (&nfs3.LookupArgs{Dir: root, Name: "dev"}).Encode()
	withType := append(args, 0, 0, 0, 6) // NF3FIFO: no extra body
	res, err := c.RawCall(nfs3.ProcMknod, withType)
	if err != nil {
		t.Fatal(err)
	}
	if got := nfs3.Status(binaryBigEndianUint32(res[:4])); got != nfs3.ErrNotSupp {
		t.Errorf("mknod status = %v, want NOTSUPP", got)
	}
}

func binaryBigEndianUint32(p []byte) uint32 {
	return uint32(p[0])<<24 | uint32(p[1])<<16 | uint32(p[2])<<8 | uint32(p[3])
}

func TestWriteCarriesPreOpAttrs(t *testing.T) {
	c, root, _ := startStack(t)
	fh, _, _ := c.Create(root, "wcc", nfs3.SetAttr{}, false)
	c.Write(fh, 0, []byte("first"), nfs3.FileSync)
	// Issue a raw WRITE and inspect the wcc_data.
	args := nfs3.WriteArgs{FH: fh, Offset: 5, Count: 4, Stable: nfs3.FileSync, Data: []byte("more")}
	res, err := c.RawCall(nfs3.ProcWrite, args.Encode())
	if err != nil {
		t.Fatal(err)
	}
	var r nfs3.WriteRes
	if err := r.DecodeInto(res); err != nil {
		t.Fatal(err)
	}
	if r.Status != nfs3.OK {
		t.Fatalf("status = %v", r.Status)
	}
	if r.Wcc.Before == nil {
		t.Fatal("WRITE reply missing pre-op attributes")
	}
	if r.Wcc.Before.Size != 5 {
		t.Errorf("pre-op size = %d, want 5", r.Wcc.Before.Size)
	}
	if r.Wcc.After == nil || r.Wcc.After.Size != 9 {
		t.Errorf("post-op attrs = %+v", r.Wcc.After)
	}
}

// An OK READ reply is encoded into a pooled buffer the RPC server
// releases, byte for byte what Encode gives; an error reply is not
// pooled.
func TestServerReadReplyPooled(t *testing.T) {
	fs := memfs.New()
	payload := bytes.Repeat([]byte("vmdk"), 2048)
	if err := fs.WriteFile("/disk", payload); err != nil {
		t.Fatal(err)
	}
	root, _ := fs.Root()
	fh, _, err := fs.Lookup(root, "disk")
	if err != nil {
		t.Fatal(err)
	}
	srv := nfs3.NewServer(fs)
	read := func(fh nfs3.FH) (*sunrpc.Call, *nfs3.ReadRes) {
		call := &sunrpc.Call{Prog: nfs3.Program, Vers: nfs3.Version, Proc: nfs3.ProcRead,
			Args: (&nfs3.ReadArgs{FH: fh, Offset: 0, Count: uint32(len(payload))}).Encode()}
		reply, stat := srv.HandleCall(call)
		if stat != sunrpc.Success {
			t.Fatalf("READ: %v", stat)
		}
		res, err := nfs3.DecodeReadRes(reply)
		if err != nil {
			t.Fatal(err)
		}
		if want := res.Encode(); !bytes.Equal(reply, want) {
			t.Errorf("reply is %d bytes, Encode gives %d: not the same encoding", len(reply), len(want))
		}
		return call, res
	}
	call, res := read(fh)
	if call.ReplyBuf == nil || res.Status != nfs3.OK || !bytes.Equal(res.Data, payload) || !res.EOF {
		t.Errorf("OK read: pooled=%v status=%v eof=%v, %d data bytes", call.ReplyBuf != nil, res.Status, res.EOF, len(res.Data))
	}
	call, res = read(nfs3.FH{9, 9, 9, 9, 9, 9, 9, 9})
	if call.ReplyBuf != nil || res.Status != nfs3.ErrStale {
		t.Errorf("stale read: pooled=%v status=%v", call.ReplyBuf != nil, res.Status)
	}
}

// plainCaller hides a transport's CallPooled: a Caller that cannot lend.
type plainCaller struct{ nfs3.Caller }

// ReadPooled lends the transport's record when the transport can, says so
// with rec, reports a failed READ like Read does and leaves nothing to
// release then; Read, next to it, keeps returning bytes the caller owns.
func TestReadPooled(t *testing.T) {
	fs := memfs.New()
	payload := bytes.Repeat([]byte("vmdk"), 8192) // 32 KiB
	if err := fs.WriteFile("/disk", payload); err != nil {
		t.Fatal(err)
	}
	root, _ := fs.Root()
	fh, _, err := fs.Lookup(root, "disk")
	if err != nil {
		t.Fatal(err)
	}
	local := sunrpc.Local{H: nfs3.NewServer(fs)}
	for name, rpc := range map[string]nfs3.Caller{"lending transport": local, "plain transport": plainCaller{local}} {
		c := nfs3.NewClient(rpc, sunrpc.OpaqueAuth{})
		data, eof, rec, err := c.ReadPooled(fh, 4096, 32768)
		if err != nil || !bytes.Equal(data, payload[4096:]) || !eof {
			t.Fatalf("%s: %d bytes eof=%v err=%v", name, len(data), eof, err)
		}
		if lent := rec != nil; lent != (name == "lending transport") {
			t.Errorf("%s: record lent: %v", name, lent)
		}
		bufpool.Put(rec)
		kept, _, err := c.Read(fh, 0, 8192)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ { // pooled records come and go; kept is not one of them
			if _, _, rec, err := c.ReadPooled(fh, 8192, 8192); err != nil {
				t.Fatal(err)
			} else {
				clear(rec)
				bufpool.Put(rec)
			}
		}
		if !bytes.Equal(kept, payload[:8192]) {
			t.Errorf("%s: the bytes Read returned changed under later pooled READs", name)
		}
		if _, _, rec, err := c.ReadPooled(nfs3.FH{9, 9, 9, 9, 9, 9, 9, 9}, 0, 8192); nfs3.StatusOf(err) != nfs3.ErrStale || rec != nil {
			t.Errorf("%s: stale handle: err=%v, record lent: %v", name, err, rec != nil)
		}
	}
}

// A READ through a sunrpc.Client allocates its reply record when the
// caller keeps the bytes (Read), and nothing when it gives the record back
// (ReadPooled): the post-op attributes are decoded and dropped, not put on
// the heap. Allocation counts mean nothing under the race detector; CI
// runs this test without it.
func TestClientReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not comparable under -race")
	}
	// One P, as in the sunrpc call gate: with a second the server's reader
	// can take the next call before the last one's worker has parked.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	payload := bytes.Repeat([]byte("vmdk"), 2048) // 8 KiB
	reply := (&nfs3.ReadRes{Status: nfs3.OK, Attr: &nfs3.Fattr{Type: nfs3.TypeReg, Size: 1 << 20},
		Count: uint32(len(payload)), Data: payload}).Encode()
	srv := sunrpc.NewServer()
	srv.Register(nfs3.Program, nfs3.Version, sunrpc.HandlerFunc(func(*sunrpc.Call) ([]byte, sunrpc.AcceptStat) {
		return reply, sunrpc.Success
	}))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()
	rpc, err := sunrpc.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer rpc.Close()
	c := nfs3.NewClient(rpc, sunrpc.OpaqueAuth{})
	fh := nfs3.FH(bytes.Repeat([]byte{7}, 32))
	for _, mode := range []struct {
		name string
		read func() (int, error)
		want float64
	}{
		{"kept", func() (int, error) { data, _, err := c.Read(fh, 0, 8192); return len(data), err }, 1},
		{"pooled", func() (int, error) {
			data, _, rec, err := c.ReadPooled(fh, 0, 8192)
			bufpool.Put(rec)
			return len(data), err
		}, 0},
	} {
		if _, err := mode.read(); err != nil { // warm-up: the worker, pool entries, grown stacks
			t.Fatal(err)
		}
		const reads = 10000
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < reads; i++ {
			if n, err := mode.read(); err != nil || n != len(payload) {
				t.Fatalf("%s: %d bytes, %v", mode.name, n, err)
			}
		}
		runtime.ReadMemStats(&after)
		// The odd allocation is the runtime's (a GC cycle refilling a
		// sync.Pool it emptied), hence the 0.05.
		if perRead := float64(after.Mallocs-before.Mallocs) / reads; perRead > mode.want+0.05 {
			t.Errorf("%s: %.3f allocs per Read, want %v", mode.name, perRead, mode.want)
		} else {
			t.Logf("%s: %.3f allocs per Read", mode.name, perRead)
		}
	}
}
