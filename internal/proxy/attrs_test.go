package proxy

// The contract of the attribute/lookup table: session consistency for
// attributes and names, "dirty data wins", invalidation by every
// name-changing call, bounded state.

import (
	"bytes"
	"fmt"
	"testing"

	"gvfs/internal/backend"
	"gvfs/internal/memfs"
	"gvfs/internal/meta"
	"gvfs/internal/nfs3"
	"gvfs/internal/obs"
	"gvfs/internal/sunrpc"
)

func forwarded(p *Proxy) uint64 { return p.Snapshot().Counter("gvfs_proxy_forwarded_total") }

// readAttr issues a READ and returns the reply's post-op attribute too,
// which nfs3.Client.Read drops.
func readAttr(t *testing.T, nc *nfs3.Client, fh nfs3.FH, off uint64) ([]byte, *nfs3.Fattr) {
	t.Helper()
	res, err := nc.RawCall(nfs3.ProcRead, (&nfs3.ReadArgs{FH: fh, Offset: off, Count: 8192}).Encode())
	if err != nil {
		t.Fatal(err)
	}
	r, err := nfs3.DecodeReadRes(res)
	if err != nil || r.Status != nfs3.OK {
		t.Fatalf("READ at %d: %v, status %v", off, err, r.Status)
	}
	return r.Data, r.Attr
}

// TestSessionViewHeldUntilFlush: two caching proxies, two sessions, one
// origin. Session A stats and reads a file; session B rewrites it, removes
// another name and flushes. A keeps its view — attributes, names and data
// alike, without a call upstream — until its own Flush, after which no
// stale attribute, name or byte is left.
func TestSessionViewHeldUntilFlush(t *testing.T) {
	fs := memfs.New()
	old := bytes.Repeat([]byte{'a'}, 8192)
	fs.WriteFile("/disk.img", old)
	fs.WriteFile("/scratch.img", []byte("x"))
	chA := newChain(t, chainSpec{fs: fs})
	chB := newChain(t, chainSpec{upstream: chA.origin})
	pa, a, root := chA.p, chA.nc, chA.root
	pb, b := chB.p, chB.nc

	fh, attr, err := a.Lookup(root, "disk.img")
	if err != nil || attr.Size != 8192 {
		t.Fatalf("A: LOOKUP disk.img: %v, %+v", err, attr)
	}
	if _, _, err := a.Lookup(root, "scratch.img"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.Lookup(root, "later.img"); nfs3.StatusOf(err) != nfs3.ErrNoEnt {
		t.Fatalf("A: LOOKUP later.img: %v, want NOENT", err)
	}
	if data, _ := readAttr(t, a, fh, 0); !bytes.Equal(data, old) {
		t.Fatal("A: first READ returned wrong bytes")
	}

	// B's session: rewrite and extend disk.img, remove one name, add one.
	bfh, _, err := b.Lookup(root, "disk.img")
	if err != nil {
		t.Fatal(err)
	}
	fresh := bytes.Repeat([]byte{'b'}, 16384)
	if _, _, err := b.Write(bfh, 0, fresh, nfs3.Unstable); err != nil {
		t.Fatal(err)
	}
	if err := b.Remove(root, "scratch.img"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.Create(root, "later.img", nfs3.SetAttr{}, false); err != nil {
		t.Fatal(err)
	}
	if err := pb.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, _ := fs.ReadFile("/disk.img"); !bytes.Equal(got, fresh) {
		t.Fatal("B's flush did not reach the origin")
	}

	// A's session view holds, and costs nothing upstream.
	before := forwarded(pa)
	if got, err := a.GetAttr(fh); err != nil || got.Size != 8192 {
		t.Errorf("A before its flush: GETATTR size %d, %v; want its session's 8192", got.Size, err)
	}
	if _, got, err := a.Lookup(root, "disk.img"); err != nil || got.Size != 8192 {
		t.Errorf("A before its flush: LOOKUP disk.img: %v, %+v", err, got)
	}
	if _, _, err := a.Lookup(root, "scratch.img"); err != nil {
		t.Errorf("A before its flush: LOOKUP of the name B removed: %v, want its session's view", err)
	}
	if _, _, err := a.Lookup(root, "later.img"); nfs3.StatusOf(err) != nfs3.ErrNoEnt {
		t.Errorf("A before its flush: LOOKUP of the name B created: %v, want NOENT", err)
	}
	if data, ra := readAttr(t, a, fh, 0); !bytes.Equal(data, old) || ra == nil || ra.Size != 8192 {
		t.Errorf("A before its flush: READ returned B's bytes or size (%+v)", ra)
	}
	if n := forwarded(pa) - before; n != 0 {
		t.Errorf("A sent %d calls upstream for what its table and cache hold", n)
	}

	// WriteBack propagates data but keeps the session, table included.
	held := pa.attrs.len()
	if err := pa.WriteBack(); err != nil {
		t.Fatal(err)
	}
	if n := pa.attrs.len(); n != held || n == 0 {
		t.Errorf("WriteBack left %d of %d table entries, want all", n, held)
	}

	if err := pa.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := pa.attrs.len(); n != 0 {
		t.Errorf("%d entries in A's table after Flush, want none", n)
	}
	before = forwarded(pa)
	if got, err := a.GetAttr(fh); err != nil || got.Size != 16384 {
		t.Errorf("A after its flush: GETATTR size %d, %v; want B's 16384", got.Size, err)
	}
	if n := forwarded(pa) - before; n != 1 {
		t.Errorf("the first GETATTR after Flush made %d upstream calls, want 1", n)
	}
	if _, got, err := a.Lookup(root, "disk.img"); err != nil || got.Size != 16384 {
		t.Errorf("A after its flush: LOOKUP disk.img: %v, %+v", err, got)
	}
	if _, _, err := a.Lookup(root, "scratch.img"); nfs3.StatusOf(err) != nfs3.ErrNoEnt {
		t.Errorf("A after its flush: LOOKUP of the name B removed: %v, want NOENT", err)
	}
	if _, _, err := a.Lookup(root, "later.img"); err != nil {
		t.Errorf("A after its flush: LOOKUP of the name B created: %v", err)
	}
	for off := uint64(0); off < 16384; off += 8192 {
		if data, ra := readAttr(t, a, fh, off); !bytes.Equal(data, fresh[off:off+8192]) || ra == nil || ra.Size != 16384 {
			t.Errorf("A after its flush: READ at %d returned stale bytes or size (%+v)", off, ra)
		}
	}
}

// TestAbsorbedWriteExtendsEveryAttr: an absorbed WRITE moves the file's
// size ahead of the origin's, and every reply that carries attributes —
// GETATTR, LOOKUP, a READ hit, a READ miss whose upstream reply still has
// the old size, the WRITE's own wcc — says so until the flush, after
// which the origin agrees.
func TestAbsorbedWriteExtendsEveryAttr(t *testing.T) {
	fs := memfs.New()
	fs.WriteFile("/vm.redo", make([]byte, 16384))
	p, nc, root := newChain(t, chainSpec{fs: fs}).client()
	fh, before, err := nc.Lookup(root, "vm.redo")
	if err != nil {
		t.Fatal(err)
	}
	_, wattr, err := nc.Write(fh, 16384, bytes.Repeat([]byte{'w'}, 8192), nfs3.Unstable)
	if err != nil {
		t.Fatal(err)
	}
	const want = 24576
	check := func(what string, a *nfs3.Fattr) {
		t.Helper()
		if a == nil {
			t.Errorf("%s: no attributes in the reply", what)
		} else if a.Size != want || a.Used < want || a.FileID != before.FileID || a.Mode != before.Mode || a.Mtime.Less(before.Mtime) {
			t.Errorf("%s: %+v; want size %d and the origin's identity %+v", what, *a, want, *before)
		}
	}
	check("WRITE wcc", wattr)
	got, err := nc.GetAttr(fh)
	check("GETATTR", &got)
	if err != nil {
		t.Fatal(err)
	}
	_, la, _ := nc.Lookup(root, "vm.redo")
	check("LOOKUP", la)
	_, ra := readAttr(t, nc, fh, 16384)
	check("READ hit", ra)
	misses := p.Snapshot().Counter("gvfs_proxy_read_misses_total")
	_, ra = readAttr(t, nc, fh, 0)
	check("READ miss", ra)
	if p.Snapshot().Counter("gvfs_proxy_read_misses_total") != misses+1 {
		t.Error("the READ of block 0 was not a miss; the case is not covered")
	}
	if data, _ := fs.ReadFile("/vm.redo"); len(data) != 16384 {
		t.Fatalf("origin has %d bytes before any flush, want 16384", len(data))
	}
	if err := p.WriteBack(); err != nil {
		t.Fatal(err)
	}
	if data, _ := fs.ReadFile("/vm.redo"); len(data) != want {
		t.Errorf("origin has %d bytes after the write-back, want %d", len(data), want)
	}
	got, _ = nc.GetAttr(fh)
	check("GETATTR after WriteBack", &got)

	// SETATTR-size is the shrinker.
	size := uint64(100)
	if _, err := nc.SetAttr(fh, nfs3.SetAttr{Size: &size}); err != nil {
		t.Fatal(err)
	}
	if got, _ := nc.GetAttr(fh); got.Size != 100 {
		t.Errorf("GETATTR after SETATTR size=100: %d", got.Size)
	}
}

// TestSetattrTimesStand: cp -p, tar x and rsync -t write a file and then
// set its mtime back. The absorbed WRITE has moved the table's mtime to
// now; the SETATTR's, older, is the file's all the same — while a SETATTR
// of something else does not bring the origin's older mtime back.
func TestSetattrTimesStand(t *testing.T) {
	_, nc, root := newChain(t, chainSpec{}).client()
	fh, _, err := nc.Create(root, "copied.img", nfs3.SetAttr{}, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := nc.Write(fh, 0, make([]byte, 8192), nfs3.Unstable); err != nil {
		t.Fatal(err)
	}
	// A SETATTR that leaves the times alone leaves the absorbed write's.
	wrote, _ := nc.GetAttr(fh)
	mode := uint32(0600)
	if _, err := nc.SetAttr(fh, nfs3.SetAttr{Mode: &mode}); err != nil {
		t.Fatal(err)
	}
	if got, _ := nc.GetAttr(fh); got.Mode&0777 != 0600 || got.Mtime.Less(wrote.Mtime) || got.Size != 8192 {
		t.Errorf("GETATTR after SETATTR mode: mode %o mtime %+v size %d; want 600, no earlier than the write's %+v, 8192", got.Mode, got.Mtime, got.Size, wrote.Mtime)
	}
	old := nfs3.Time{Sec: 1086307200} // 2004-06-04
	if _, err := nc.SetAttr(fh, nfs3.SetAttr{MtimeHow: nfs3.SetToClient, Mtime: old}); err != nil {
		t.Fatal(err)
	}
	if got, err := nc.GetAttr(fh); err != nil || got.Mtime != old || got.Size != 8192 {
		t.Errorf("GETATTR after SETATTR mtime: mtime %+v size %d (%v); want %+v and the absorbed 8192", got.Mtime, got.Size, err, old)
	}
	if _, got, err := nc.Lookup(root, "copied.img"); err != nil || got == nil || got.Mtime != old || got.Size != 8192 {
		t.Errorf("LOOKUP after SETATTR mtime: %+v (%v); want mtime %+v, size 8192", got, err, old)
	}
}

// TestShortWriteOfUnsizedHandle: a client keeps a handle across a Flush
// and writes half a block in the middle of the file. The table has no size
// for the handle, so the write is not the file's tail for all it knows: the
// cached block keeps the bytes after the write, and the file its size.
func TestShortWriteOfUnsizedHandle(t *testing.T) {
	fs := memfs.New()
	img := bytes.Repeat([]byte{'o'}, 3*8192)
	fs.WriteFile("/vm.vmdk", img)
	p, nc, root := newChain(t, chainSpec{fs: fs}).client()
	fh, _, err := nc.Lookup(root, "vm.vmdk")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := nc.Write(fh, 8192, bytes.Repeat([]byte{'w'}, 4096), nfs3.Unstable); err != nil {
		t.Fatal(err)
	}
	want := append(bytes.Repeat([]byte{'w'}, 4096), img[8192+4096:2*8192]...)
	if data, ra := readAttr(t, nc, fh, 8192); !bytes.Equal(data, want) || (ra != nil && ra.Size != uint64(len(img))) {
		t.Errorf("READ of the block written short: %d bytes (%q…), attr %+v; want the whole block", len(data), data[:min(len(data), 1)], ra)
	}
	if got, err := nc.GetAttr(fh); err != nil || got.Size != uint64(len(img)) {
		t.Errorf("GETATTR: size %d (%v), want %d", got.Size, err, len(img))
	}
	// A whole block, too, ends where it ends and not the file: with block 2
	// cached and the entry gone (forget stands in for the LRU taking a clean
	// one), a write of block 0 must not make 8192 the size a hit is cut to.
	if err := p.WriteBack(); err != nil {
		t.Fatal(err)
	}
	readAttr(t, nc, fh, 16384)
	p.attrs.forget(fh)
	if _, _, err := nc.Write(fh, 0, bytes.Repeat([]byte{'W'}, 8192), nfs3.Unstable); err != nil {
		t.Fatal(err)
	}
	misses := p.Snapshot().Counter("gvfs_proxy_read_misses_total")
	if data, _ := readAttr(t, nc, fh, 16384); !bytes.Equal(data, img[16384:]) || p.Snapshot().Counter("gvfs_proxy_read_misses_total") != misses {
		t.Errorf("READ hit past a whole-block write of an unsized handle: %d bytes, want %d from the cache", len(data), 8192)
	}
	if got, err := nc.GetAttr(fh); err != nil || got.Size != uint64(len(img)) {
		t.Errorf("GETATTR after the whole-block write: size %d (%v), want %d", got.Size, err, len(img))
	}
}

// TestNegativeEntryRacesCreate: the origin answers a LOOKUP with NOENT,
// then a CREATE of the same name goes through the same proxy and
// completes, and only then does the LOOKUP's reply reach the proxy. The
// late NOENT must not be installed over the CREATE's positive entry.
func TestNegativeEntryRacesCreate(t *testing.T) {
	// The origin holds back its NOENT until release is closed. It refuses
	// READDIRPLUS, as an objstore upstream does, so that the LOOKUP miss is
	// forwarded rather than answered by a listing of the root.
	answered, release := make(chan struct{}), make(chan struct{})
	p, nc, root := newChain(t, chainSpec{hook: func(c *sunrpc.Call, next func() ([]byte, error)) ([]byte, error) {
		if c.Proc == nfs3.ProcReaddirplus {
			return (&nfs3.ReaddirplusRes{Status: nfs3.ErrNotSupp}).Encode(), nil
		}
		res, err := next()
		if a, derr := nfs3.DecodeLookupArgs(c.Args); c.Proc == nfs3.ProcLookup && derr == nil && a.Name == "raced.img" {
			answered <- struct{}{}
			<-release
		}
		return res, err
	}}).client()
	lookupErr := make(chan error, 1)
	go func() {
		_, _, err := nc.Lookup(root, "raced.img")
		lookupErr <- err
	}()
	<-answered
	fh, _, err := nc.Create(root, "raced.img", nfs3.SetAttr{}, false)
	if err != nil {
		t.Fatal(err)
	}
	close(release)
	if err := <-lookupErr; nfs3.StatusOf(err) != nfs3.ErrNoEnt {
		t.Fatalf("the held LOOKUP returned %v, want the origin's NOENT", err)
	}
	before := forwarded(p)
	got, _, err := nc.Lookup(root, "raced.img")
	if err != nil || !bytes.Equal(got, fh) {
		t.Errorf("LOOKUP after the race = %v, %v; want the created handle %v", got, err, fh)
	}
	if n := forwarded(p) - before; n != 0 {
		t.Errorf("the CREATE's entry did not answer the LOOKUP (%d calls upstream)", n)
	}
}

// TestNameChangesInvalidate: every proc that adds, removes or moves a name
// passes the invalidation point — RMDIR, LINK and MKNOD used to be
// forwarded past it — and an error reply is evidence too.
func TestNameChangesInvalidate(t *testing.T) {
	fs := memfs.New()
	p, nc, root := newChain(t, chainSpec{fs: fs}).client()
	dir, _, err := nc.Mkdir(root, "d", nfs3.SetAttr{})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := p.childFH(root, "d"); !ok || !bytes.Equal(got, dir) {
		t.Fatalf("MKDIR left childFH(d) = %v, %v", got, ok)
	}
	if v, ok := p.attrs.get(dir); !ok || v.full != "/d" || v.attr.Type != nfs3.TypeDir {
		t.Errorf("MKDIR entry: %+v, %v", v, ok)
	}
	if err := nc.Rmdir(root, "d"); err != nil {
		t.Fatal(err)
	}
	if _, ok := p.attrs.get(dir); ok {
		t.Error("RMDIR left the directory's entry")
	}
	before := forwarded(p)
	if _, _, err := nc.Lookup(root, "d"); nfs3.StatusOf(err) != nfs3.ErrNoEnt || forwarded(p) != before {
		t.Errorf("LOOKUP after RMDIR: %v with %d upstream calls, want a local NOENT", err, forwarded(p)-before)
	}

	// A name appears behind the proxy's negative entry: the EXIST a CREATE
	// (guarded) gets is evidence, and drops it.
	if _, _, err := nc.Lookup(root, "behind.img"); nfs3.StatusOf(err) != nfs3.ErrNoEnt {
		t.Fatal(err)
	}
	fs.WriteFile("/behind.img", []byte("origin"))
	if _, _, err := nc.Create(root, "behind.img", nfs3.SetAttr{}, true); nfs3.StatusOf(err) != nfs3.ErrExist {
		t.Fatalf("guarded CREATE: %v, want EXIST", err)
	}
	if _, _, err := nc.Lookup(root, "behind.img"); err != nil {
		t.Errorf("LOOKUP after the EXIST: %v, want the file", err)
	}

	// A name vanishes behind a positive entry: the NOENT a REMOVE gets
	// drops it, and a STALE for the handle drops the handle's entry.
	fh, _, err := nc.Create(root, "vanishing.img", nfs3.SetAttr{}, false)
	if err != nil {
		t.Fatal(err)
	}
	fs.Remove(root, "vanishing.img")
	if err := nc.Remove(root, "vanishing.img"); nfs3.StatusOf(err) != nfs3.ErrNoEnt {
		t.Fatalf("REMOVE of a vanished name: %v, want NOENT", err)
	}
	if _, ok := p.childFH(root, "vanishing.img"); ok {
		t.Error("the NOENT left the positive entry")
	}
	if _, ok := p.attrs.get(fh); ok {
		t.Error("REMOVE left the handle's entry")
	}
	kept, _, _ := nc.Create(root, "stale.img", nfs3.SetAttr{}, false)
	fs.Remove(root, "stale.img")
	p.attrs.update(kept, nil) // void the attributes: the next GETATTR goes upstream
	if _, err := nc.GetAttr(kept); nfs3.StatusOf(err) != nfs3.ErrStale {
		t.Fatalf("GETATTR of a removed file: %v, want STALE", err)
	}
	if _, ok := p.attrs.get(kept); ok {
		t.Error("the STALE left the handle's entry")
	}

	// The proxy's own lookup of a file's meta-data feeds the table too.
	plain, _, _ := nc.Create(root, "plain.img", nfs3.SetAttr{}, false)
	readAttr(t, nc, plain, 0)
	before = forwarded(p)
	if _, _, err := nc.Lookup(root, meta.NameFor("plain.img")); nfs3.StatusOf(err) != nfs3.ErrNoEnt || forwarded(p) != before {
		t.Errorf("LOOKUP of the meta-data file the proxy found missing: %v with %d upstream calls, want a local NOENT", err, forwarded(p)-before)
	}

	// SYMLINK leaves the target; READLINK is answered from it.
	link, _, err := nc.Symlink(root, "disk.vmdk", "/images/golden/disk.vmdk")
	if err != nil {
		t.Fatal(err)
	}
	before = forwarded(p)
	if target, err := nc.ReadLink(link); err != nil || target != "/images/golden/disk.vmdk" || forwarded(p) != before {
		t.Errorf("READLINK = %q, %v with %d upstream calls; want the SYMLINK's target, locally", target, err, forwarded(p)-before)
	}
}

// TestAttrTableBounded: the LRU cap holds, and an entry whose file has
// absorbed writes no write-back of everything has settled — its size is
// ahead of the origin's, its writer is who its frames go back as — is
// never the victim. A clean file the origin reports smaller than the table
// has it is not dirty for that, and goes like any other.
func TestAttrTableBounded(t *testing.T) {
	tbl := newAttrTable(true)
	root := nfs3.FH("root")
	tbl.setRoot(root, "/")
	dirty, shrunk := nfs3.FH("dirty"), nfs3.FH("shrunk")
	tbl.learn(shrunk, root, "shrunk.img", &nfs3.Fattr{Type: nfs3.TypeReg, Size: 8192}, false, anyGen)
	if v := tbl.sawSize(shrunk, 4096); v.attr.Size != 8192 {
		t.Errorf("a READ reply lowered the session's size to %d", v.attr.Size)
	}
	tbl.learn(dirty, root, "dirty.redo", &nfs3.Fattr{Type: nfs3.TypeReg, Size: 8192}, false, anyGen)
	tbl.wrote(dirty, 16384, nfs3.Time{Sec: 1}, backend.Cred{})
	tbl.sawSize(dirty, 12288) // part of it written back: still ahead
	for i := 0; i < attrTableCap+1000; i++ {
		name := fmt.Sprintf("f%d", i)
		if i%2 == 0 {
			tbl.learn(nfs3.FH(name), root, name, &nfs3.Fattr{Type: nfs3.TypeReg, Size: 1}, false, anyGen)
		} else {
			tbl.negative(root, name, anyGen)
		}
		if n := tbl.len(); n > attrTableCap+1 {
			t.Fatalf("%d entries after %d installs, cap %d (+1 pinned)", n, i+1, attrTableCap)
		}
	}
	if len(tbl.byFH)+1 > tbl.n || len(tbl.names) > tbl.n {
		t.Errorf("maps hold %d handles and %d names, the LRU %d entries", len(tbl.byFH), len(tbl.names), tbl.n)
	}
	if v, ok := tbl.get(dirty); !ok || v.attr.Size != 16384 || v.full != "/dirty.redo" {
		t.Errorf("the entry ahead of the origin was evicted or damaged: %+v, %v", v, ok)
	}
	if _, ok := tbl.get(nfs3.FH("f0")); ok {
		t.Error("the oldest clean entry survived 1000 installs past the cap")
	}
	if _, ok := tbl.get(shrunk); ok {
		t.Error("a clean file the origin shrank was kept as if dirty")
	}
	// A write-back of everything settles the file — but not a WRITE it
	// absorbed while that was under way — and then the entry may go again.
	seq := tbl.absorbed.Load()
	tbl.wrote(dirty, 16384, nfs3.Time{Sec: 2}, backend.Cred{})
	if tbl.settled(seq); !tbl.byFH[string(dirty)].dirty {
		t.Error("a write-back settled a WRITE absorbed after it began")
	}
	tbl.settled(tbl.absorbed.Load())
	for i := 0; i < attrTableCap+8; i++ {
		tbl.negative(root, fmt.Sprintf("g%d", i), anyGen)
	}
	if _, ok := tbl.get(dirty); ok {
		t.Error("a clean entry outlived a table's worth of newer ones")
	}
	tbl.reset()
	if tbl.len() != 0 || len(tbl.byFH) != 0 || len(tbl.names) != 0 {
		t.Error("reset left entries")
	}
	if full := tbl.sawSize(root, 0).full; full != "/" {
		t.Errorf("the export root's path did not survive reset: %q", full)
	}
}

// TestAttrTableAnswersInTrace: a LOOKUP the table answers shows as an
// attr_table span in the hop-0 trace, and nothing else; one it answers
// after listing the directory shows the listing's upstream span and an
// attr_table span with outcome list; the cache-less relay asks upstream
// every time.
func TestAttrTableAnswersInTrace(t *testing.T) {
	fs := memfs.New()
	fs.WriteFile("/img", []byte("x"))
	ch := newChain(t, chainSpec{fs: fs})
	p, nc, root := ch.p, ch.nc, ch.root
	p.cfg.Tracer = obs.NewTracer(16)
	for i := 0; i < 2; i++ {
		if _, _, err := nc.Lookup(root, "img"); err != nil {
			t.Fatal(err)
		}
	}
	traces := p.cfg.Tracer.Traces()
	if len(traces) != 2 || len(traces[0].Spans) != 2 || traces[0].Spans[0].Layer != obs.LayerUpstream ||
		traces[0].Spans[1].Layer != obs.LayerAttrTable || traces[0].Spans[1].Outcome != "list" ||
		len(traces[1].Spans) != 1 || traces[1].Spans[0].Layer != obs.LayerAttrTable || traces[1].Spans[0].Outcome != "hit" {
		t.Errorf("traces of a LOOKUP miss then hit: %+v", traces)
	}
	st := p.Statusz().AttrTable
	if st.Hits != 1 || st.Misses != 1 || st.HitRatio != 0.5 || st.Entries != p.attrs.len() {
		t.Errorf("statusz attr_table row: %+v", st)
	}

	r := newChain(t, chainSpec{upstream: ch.origin, noCache: true})
	relay, rc := r.p, r.nc
	before := forwarded(relay)
	for i := 0; i < 3; i++ {
		if _, _, err := rc.Lookup(root, "img"); err != nil {
			t.Fatal(err)
		}
		if _, err := rc.GetAttr(root); err != nil {
			t.Fatal(err)
		}
	}
	if n := forwarded(relay) - before; n != 6 {
		t.Errorf("the cache-less relay forwarded %d of 6 LOOKUP/GETATTR calls", n)
	}
	if relay.fileLabel(root) == "" || relay.attrs.len() == 0 {
		t.Error("the relay's table is not fed by what it relays")
	}
}

// TestKeptHandleAfterFlushCostsTheSame: a client that keeps a handle
// across a Flush (the benchmark's write_flush does) is served without a
// known path until it looks the name up again. That state must not cost
// an allocation per call — the handle's accounting label is formatted
// once per entry.
func TestKeptHandleAfterFlushCostsTheSame(t *testing.T) {
	p, nc, root := newChain(t, chainSpec{}).client()
	fh, _, err := nc.Create(root, "vm.redo", nfs3.SetAttr{}, false)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 8192)
	op := func() {
		if _, _, err := nc.Write(fh, 0, data, nfs3.Unstable); err != nil {
			t.Fatal(err)
		}
		if _, _, err := nc.Read(fh, 0, 8192); err != nil {
			t.Fatal(err)
		}
	}
	op()
	located := testing.AllocsPerRun(200, op)
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	op() // the miss that refills the cache and re-creates the entry
	if label := p.fileLabel(fh); label != fhLabel(fh) {
		t.Fatalf("after Flush the handle is labelled %q, want its bytes until it is looked up again", label)
	}
	if kept := testing.AllocsPerRun(200, op); kept > located {
		t.Errorf("WRITE+READ of a handle kept across Flush: %.1f allocs, %.1f with its path known", kept, located)
	}
}
