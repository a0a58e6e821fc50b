package proxy

// The hazards of answering LOOKUPs from a directory's listing, one example
// each (DESIGN.md §6.3, "A listed directory"). Each fails with the rule
// its comment names taken out.

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gvfs/internal/backend/objstore"
	"gvfs/internal/memfs"
	"gvfs/internal/nfs3"
	"gvfs/internal/sunrpc"
)

func dirListings(p *Proxy, result string) uint64 {
	return p.Snapshot().Counter(`gvfs_proxy_dir_listings_total{result="` + result + `"}`)
}

// listState is what the table knows of dir's listing.
func (p *Proxy) listState(dir nfs3.FH) listState {
	p.attrs.mu.Lock()
	defer p.attrs.mu.Unlock()
	if d := p.attrs.byFH[string(dir)]; d != nil {
		return d.list
	}
	return unlisted
}

// setTableLimit bounds the table at n entries.
func (p *Proxy) setTableLimit(n int) {
	p.attrs.mu.Lock()
	p.attrs.limit = n
	p.attrs.mu.Unlock()
}

// TestListingHardLinkPair: a directory holds two names of one file. The
// table files a handle under one name, so installing the listing costs
// the first name its entry: the directory is not complete, and both names
// still resolve. Rule: a name the index loses ends its directory's
// completeness (attrTable.unfile).
func TestListingHardLinkPair(t *testing.T) {
	fs := memfs.New()
	fs.WriteFile("/vm/a.img", []byte("shared"))
	vm, _ := fs.LookupPath("/vm")
	file, _ := fs.LookupPath("/vm/a.img")
	if err := fs.Link(file, vm, "b.img"); err != nil {
		t.Fatal(err)
	}
	p, nc, root := newChain(t, chainSpec{fs: fs}).client()
	if _, _, err := nc.Lookup(root, "vm"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a.img", "b.img", "a.img"} {
		if got, _, err := nc.Lookup(vm, name); err != nil || !bytes.Equal(got, file) {
			t.Errorf("LOOKUP %s = %x, %v; want the linked file %x", name, got, err, file)
		}
	}
	if p.listState(vm) == complete {
		t.Error("a listing the table could not hold whole marked its directory complete")
	}
}

// TestListingMkdirExistRace: two compute nodes make the same directory
// (MkdirAll), each through its own proxy, both of which listed the parent
// without it. The loser's MKDIR gets EXIST; its next LOOKUP must find the
// directory, not the NOENT its listing implied. Rule: a name change
// through the proxy, a failed one too, ends its directory's completeness
// (attrTable.invalidateName).
func TestListingMkdirExistRace(t *testing.T) {
	chA := newChain(t, chainSpec{})
	pa, a, root := chA.p, chA.nc, chA.root
	b := newChain(t, chainSpec{upstream: chA.origin}).nc
	for _, c := range []*nfs3.Client{a, b} {
		if _, _, err := c.Lookup(root, "clones"); nfs3.StatusOf(err) != nfs3.ErrNoEnt {
			t.Fatalf("LOOKUP clones before either MKDIR: %v, want NOENT", err)
		}
	}
	won, _, err := b.Mkdir(root, "clones", nfs3.SetAttr{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.Mkdir(root, "clones", nfs3.SetAttr{}); nfs3.StatusOf(err) != nfs3.ErrExist {
		t.Fatalf("the second MKDIR: %v, want EXIST", err)
	}
	if got, _, err := a.Lookup(root, "clones"); err != nil || !bytes.Equal(got, won) {
		t.Errorf("the loser's LOOKUP = %x, %v; want the winner's directory %x", got, err, won)
	}
	if n := dirListings(pa, listComplete); n != 2 {
		t.Errorf("%d complete listings of the root, want 2: one before the race, one after", n)
	}
}

// heldReply is a hook that holds back the reply to the first call of proc
// until release is closed, after the origin has answered it.
func heldReply(proc uint32, answered, release chan struct{}) upstreamHook {
	var once sync.Once
	return func(c *sunrpc.Call, next func() ([]byte, error)) ([]byte, error) {
		res, err := next()
		if c.Proc == proc {
			once.Do(func() {
				answered <- struct{}{}
				<-release
			})
		}
		return res, err
	}
}

// TestListingRacesCreate: the origin answers a listing of the root, then
// a CREATE that truncates a file there goes through the proxy and
// completes, and only then does the listing reach the proxy. It predates
// the CREATE, so it marks nothing complete and installs nothing — not the
// file's old size over the CREATE's. Rule: a name change advances its
// directory's generation, under which the listing was sent
// (attrTable.invalidateName).
func TestListingRacesCreate(t *testing.T) {
	fs := memfs.New()
	fs.WriteFile("/vm.vmdk", make([]byte, 8192))
	answered, release := make(chan struct{}), make(chan struct{})
	p, nc, root := newChain(t, chainSpec{fs: fs, hook: heldReply(nfs3.ProcReaddirplus, answered, release)}).client()
	if stripeOf(root, "vm.vmdk") == stripeOf(root, "") {
		t.Fatal("the name shares its directory's generation stripe: the case would not test the directory's")
	}
	lookup := make(chan error, 1)
	go func() {
		_, _, err := nc.Lookup(root, "vm.vmdk")
		lookup <- err
	}()
	<-answered
	zero := uint64(0)
	fh, _, err := nc.Create(root, "vm.vmdk", nfs3.SetAttr{Size: &zero}, false)
	if err != nil {
		t.Fatal(err)
	}
	close(release)
	if err := <-lookup; err != nil {
		t.Fatalf("the LOOKUP whose listing raced: %v", err)
	}
	if p.listState(root) == complete {
		t.Error("a listing that raced a CREATE marked the directory complete")
	}
	if got, attr, err := nc.Lookup(root, "vm.vmdk"); err != nil || !bytes.Equal(got, fh) || attr.Size != 0 {
		t.Errorf("LOOKUP after the race = %x, %+v, %v; want the truncated file, size 0", got, attr, err)
	}
	if n := dirListings(p, listPartial); n != 1 {
		t.Errorf("%d partial listings, want the one that raced", n)
	}
}

// TestListingChildEvicted: a file of a complete directory leaves the
// table, pushed out by a newer entry. The directory is complete no more:
// the name is found again, not answered NOENT. Rule: an entry leaving the
// index of names ends its directory's completeness (attrTable.unfile).
func TestListingChildEvicted(t *testing.T) {
	fs := memfs.New()
	for _, name := range []string{"a", "b", "c"} {
		fs.WriteFile("/d/"+name, []byte(name))
	}
	p, nc, root := newChain(t, chainSpec{fs: fs}).client()
	d, _, err := nc.Lookup(root, "d")
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]nfs3.FH{}
	for _, name := range []string{"b", "c", "a"} {
		if files[name], _, err = nc.Lookup(d, name); err != nil {
			t.Fatal(err)
		}
	}
	if p.listState(d) != complete {
		t.Fatal("d was not listed whole: the case is not set up")
	}
	// Everything but a is used again, and the table gets room for what it
	// holds and not one entry more.
	for _, fh := range []nfs3.FH{root, d, files["b"], files["c"]} {
		p.attrs.get(fh)
	}
	p.setTableLimit(p.attrs.len())
	p.attrs.update(nfs3.FH("another"), &nfs3.Fattr{Type: nfs3.TypeReg})
	if _, ok := p.attrs.get(files["a"]); ok {
		t.Fatal("a is still in the table: something else was evicted")
	}
	p.setTableLimit(attrTableCap)
	if got, _, err := nc.Lookup(d, "a"); err != nil || !bytes.Equal(got, files["a"]) {
		t.Errorf("LOOKUP of the evicted name = %x, %v; want %x", got, err, files["a"])
	}
}

// TestListingPartial: a directory too big for one listing (2000 names;
// nfs3.MaxTransfer holds about 250 of them) is listed without eof. The
// names the listing brought are answered; any other costs one forwarded
// LOOKUP, never a second listing. Rules: completeness needs eof, and a
// listing that is not complete makes its directory unlistable until Flush
// (attrTable.install).
func TestListingPartial(t *testing.T) {
	fs := memfs.New()
	for i := 0; i < 2000; i++ {
		fs.WriteFile(fmt.Sprintf("/big/f%04d", i), nil)
	}
	p, nc, root := newChain(t, chainSpec{fs: fs}).client()
	big, _, err := nc.Lookup(root, "big")
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct {
		name  string
		found bool
		calls uint64
	}{
		{"f0000", true, 1},  // the listing, which has it
		{"f1999", true, 1},  // past the listing: one forwarded LOOKUP
		{"f1998", true, 1},  // and no second listing
		{"f0001", true, 0},  // in the listing
		{"g0000", false, 1}, // absent: the origin says so
	} {
		before := forwarded(p)
		_, _, err := nc.Lookup(big, step.name)
		if (err == nil) != step.found || forwarded(p)-before != step.calls {
			t.Errorf("LOOKUP %s: %v with %d calls upstream, want found=%v with %d", step.name, err, forwarded(p)-before, step.found, step.calls)
		}
	}
	if n := dirListings(p, listPartial); n != 1 {
		t.Errorf("%d partial listings, want 1", n)
	}
}

// TestListingObjstoreRefused: an objstore upstream has no READDIRPLUS
// (NOTSUPP). The first miss in a directory pays for the refusal with one
// extra call; every later one is a forwarded LOOKUP, as before listings.
// Rule: a refused listing makes its directory unlistable until Flush
// (attrTable.install).
func TestListingObjstoreRefused(t *testing.T) {
	store := objstore.New(objstore.NewMemStore(), 0)
	for _, name := range []string{"/a.img", "/b.img"} {
		if err := store.CreateFile(name, []byte(name)); err != nil {
			t.Fatal(err)
		}
	}
	p, nc, root := newChain(t, chainSpec{config: func(cfg *Config) { cfg.Upstream, cfg.Backend = nil, store }}).client()
	for i, name := range []string{"a.img", "b.img", "c.img"} {
		want := uint64(1)
		if i == 0 {
			want = 2 // the refused listing, then the LOOKUP
		}
		before := forwarded(p)
		_, _, err := nc.Lookup(root, name)
		if (err == nil) != (name != "c.img") || forwarded(p)-before != want {
			t.Errorf("LOOKUP %s: %v with %d calls upstream, want %d", name, err, forwarded(p)-before, want)
		}
	}
	if n := dirListings(p, listRefused); n != 1 {
		t.Errorf("%d refused listings, want 1", n)
	}
}

// TestListingHidesOriginCreateUntilFlush: a name made at the origin behind
// the proxy's back, after the proxy listed its directory, is invisible
// until the session's Flush — as a name already looked up keeps its answer
// — and there after it. Rule: Flush drops what the table knows of
// listings with the rest of it (attrTable.reset).
func TestListingHidesOriginCreateUntilFlush(t *testing.T) {
	fs := memfs.New()
	fs.WriteFile("/a.img", []byte("a"))
	p, nc, root := newChain(t, chainSpec{fs: fs}).client()
	if _, _, err := nc.Lookup(root, "a.img"); err != nil {
		t.Fatal(err)
	}
	fs.WriteFile("/behind.img", []byte("origin"))
	before := forwarded(p)
	if _, _, err := nc.Lookup(root, "behind.img"); nfs3.StatusOf(err) != nfs3.ErrNoEnt || forwarded(p) != before {
		t.Errorf("LOOKUP before the Flush: %v with %d calls upstream, want the listing's NOENT with none", err, forwarded(p)-before)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := nc.Lookup(root, "behind.img"); err != nil {
		t.Errorf("LOOKUP after the Flush: %v, want the origin's file", err)
	}
}

// TestRelayLearnsPathsFromListings: a cache-less relay below a caching
// proxy sees that proxy's listings where it used to see its LOOKUPs, and
// learns from them where the files are: its accounting labels a file by
// its path (formatting a handle's bytes per READ instead cost the relay
// an allocation or two per call).
func TestRelayLearnsPathsFromListings(t *testing.T) {
	fs := memfs.New()
	fs.WriteFile("/vm/disk.img", make([]byte, 8192))
	relay := newChain(t, chainSpec{fs: fs, noCache: true}).p
	ch := newChain(t, chainSpec{upstream: sunrpc.Local{H: relay}})
	nc, root := ch.nc, ch.root
	vm, _, err := nc.Lookup(root, "vm")
	if err != nil {
		t.Fatal(err)
	}
	fh, _, err := nc.Lookup(vm, "disk.img")
	if err != nil {
		t.Fatal(err)
	}
	if got := relay.fileLabel(fh); got != "/vm/disk.img" {
		t.Errorf("the relay labels the file %q, want its path", got)
	}
}

// countedListings is a hook that counts the READDIRPLUS calls in n and
// the bytes of their replies in size, and delays each by delay.
func countedListings(delay time.Duration, n, size *atomic.Int64) upstreamHook {
	return func(c *sunrpc.Call, next func() ([]byte, error)) ([]byte, error) {
		res, err := next()
		if c.Proc == nfs3.ProcReaddirplus {
			n.Add(1)
			size.Add(int64(len(res)))
			time.Sleep(delay)
		}
		return res, err
	}
}

// TestListingJoinedByConcurrentMisses: eight clients miss in one directory
// at once. One listing goes upstream; the misses that find it in flight
// wait for it, as a demand READ joins a run ahead, and every one is
// answered from it. Rule: one listing per directory in flight
// (attrTable.startListing).
func TestListingJoinedByConcurrentMisses(t *testing.T) {
	fs := memfs.New()
	for i := 0; i < 8; i++ {
		fs.WriteFile(fmt.Sprintf("/vm/f%d", i), nil)
	}
	var listings, size atomic.Int64
	p, nc, root := newChain(t, chainSpec{fs: fs, hook: countedListings(20*time.Millisecond, &listings, &size)}).client()
	vm, _, err := nc.Lookup(root, "vm")
	if err != nil {
		t.Fatal(err)
	}
	listed, fwd := listings.Load(), forwarded(p)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			want, _ := fs.LookupPath("/vm/" + name)
			if got, _, err := nc.Lookup(vm, name); err != nil || !bytes.Equal(got, want) {
				t.Errorf("LOOKUP %s = %x, %v; want %x", name, got, err, want)
			}
		}(fmt.Sprintf("f%d", i))
	}
	wg.Wait()
	if n, f := listings.Load()-listed, forwarded(p)-fwd; n != 1 || f != 1 {
		t.Errorf("eight concurrent misses in one directory: %d listings, %d calls upstream; want 1 and 1", n, f)
	}
}

// TestListingKeptAcrossNameChanges: new files go one after another into
// a directory of 200 names, as clones into /clones — a LOOKUP of the new
// name (NOENT), its CREATE, a LOOKUP again — and are removed again. The
// directory is listed once; every cycle after costs its CREATE and REMOVE
// upstream and nothing more. Rule: a name change whose reply the table
// files keeps its directory complete (attrTable.endChange, and unfile
// while the name is changing); taken out, every cycle lists it again.
func TestListingKeptAcrossNameChanges(t *testing.T) {
	fs := memfs.New()
	for i := 0; i < 200; i++ {
		fs.WriteFile(fmt.Sprintf("/clones/c%03d", i), nil)
	}
	var listings, size atomic.Int64
	p, nc, root := newChain(t, chainSpec{fs: fs, hook: countedListings(0, &listings, &size)}).client()
	clones, _, err := nc.Lookup(root, "clones")
	if err != nil {
		t.Fatal(err)
	}
	listed, fwd := listings.Load(), forwarded(p)
	const cycles = 20
	for i := 0; i < cycles; i++ {
		name := fmt.Sprintf("new%02d", i)
		if _, _, err := nc.Lookup(clones, name); nfs3.StatusOf(err) != nfs3.ErrNoEnt {
			t.Fatalf("LOOKUP %s before its CREATE: %v, want NOENT", name, err)
		}
		fh, _, err := nc.Create(clones, name, nfs3.SetAttr{}, true)
		if err != nil {
			t.Fatal(err)
		}
		if got, _, err := nc.Lookup(clones, name); err != nil || !bytes.Equal(got, fh) {
			t.Fatalf("LOOKUP %s after its CREATE = %x, %v; want %x", name, got, err, fh)
		}
		if err := nc.Remove(clones, name); err != nil {
			t.Fatal(err)
		}
		if _, _, err := nc.Lookup(clones, name); nfs3.StatusOf(err) != nfs3.ErrNoEnt {
			t.Fatalf("LOOKUP %s after its REMOVE: %v, want NOENT", name, err)
		}
	}
	n, calls := listings.Load()-listed, forwarded(p)-fwd
	t.Logf("%d LOOKUP+CREATE+REMOVE cycles in a directory of 200 names: %d listings, %d bytes of them", cycles, n, size.Load())
	if n != 1 || calls != 1+2*cycles {
		t.Errorf("%d listings and %d calls upstream in all; want 1 listing, then a CREATE and a REMOVE a cycle", n, calls)
	}
}

// failListings is a hook that answers READDIRPLUS calls, in turn, with
// what fails holds — an nfs3.Status for the reply, or an error for the
// call — and once that is used up passes them on.
func failListings(fails ...any) upstreamHook {
	var mu sync.Mutex
	return func(c *sunrpc.Call, next func() ([]byte, error)) ([]byte, error) {
		if c.Proc == nfs3.ProcReaddirplus {
			mu.Lock()
			var fail any
			if len(fails) > 0 {
				fail, fails = fails[0], fails[1:]
			}
			mu.Unlock()
			switch f := fail.(type) {
			case nfs3.Status:
				return (&nfs3.ReaddirplusRes{Status: f}).Encode(), nil
			case error:
				return nil, f
			}
		}
		return next()
	}
}

// TestListingTransientErrors: upstream fails a listing the way a busy or
// degraded hop does — JUKEBOX, SERVERFAULT in the reply, SYSTEM_ERR for
// the call. Each costs its miss a forwarded LOOKUP and leaves the
// directory listable, so the next miss lists it, whole. Rule: only a
// status that refuses makes a directory unlistable (refuses).
func TestListingTransientErrors(t *testing.T) {
	fs := memfs.New()
	for _, name := range []string{"a", "b", "c"} {
		fs.WriteFile("/"+name, []byte(name))
	}
	p, nc, root := newChain(t, chainSpec{fs: fs, hook: failListings(nfs3.ErrJukebox, nfs3.ErrServerFault, &sunrpc.RPCError{Stat: sunrpc.SystemErr})}).client()
	for _, name := range []string{"a", "b", "c", "d"} {
		want := uint64(2) // the failed listing and the LOOKUP
		if name == "d" {
			want = 1 // the listing, whole: d is NOENT from it
		}
		before := forwarded(p)
		_, _, err := nc.Lookup(root, name)
		if (err == nil) != (name != "d") || forwarded(p)-before != want {
			t.Errorf("LOOKUP %s: %v with %d calls upstream, want %d", name, err, forwarded(p)-before, want)
		}
	}
	if r, c := dirListings(p, listRefused), dirListings(p, listComplete); r != 0 || c != 1 {
		t.Errorf("%d refused and %d complete listings, want 0 and 1", r, c)
	}
}

// TestListingRefusalAcrossFlush: a listing the origin refuses reaches the
// proxy only after a Flush. The refusal belongs to the session before: the
// directory is listable in the new one. Rule: a listing whose directory's
// generation moved installs nothing, a refusal neither
// (attrTable.installListing).
func TestListingRefusalAcrossFlush(t *testing.T) {
	fs := memfs.New()
	fs.WriteFile("/a", []byte("a"))
	answered, release := make(chan struct{}), make(chan struct{})
	held, refuse := heldReply(nfs3.ProcReaddirplus, answered, release), failListings(nfs3.ErrNotSupp)
	p, nc, root := newChain(t, chainSpec{fs: fs, hook: func(c *sunrpc.Call, next func() ([]byte, error)) ([]byte, error) {
		return held(c, func() ([]byte, error) { return refuse(c, next) })
	}}).client()
	lookup := make(chan error, 1)
	go func() {
		_, _, err := nc.Lookup(root, "a")
		lookup <- err
	}()
	<-answered
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	close(release)
	if err := <-lookup; err != nil {
		t.Fatalf("the LOOKUP whose listing was refused: %v", err)
	}
	if p.listState(root) == unlistable {
		t.Error("a refusal from before the Flush made the directory unlistable after it")
	}
	if _, _, err := nc.Lookup(root, "b"); nfs3.StatusOf(err) != nfs3.ErrNoEnt || p.listState(root) != complete {
		t.Errorf("LOOKUP b after the Flush: %v, directory %v; want NOENT from a complete listing", err, p.listState(root))
	}
}

// TestListingRemovedDirectory: a client keeps a directory's handle across
// a Flush and looks a name up in it, so the proxy lists it — whole, but
// with no idea where it is. The directory is then removed through the
// proxy, under a name the table does not have: nothing tells the table
// which handle went. A LOOKUP in it must get the origin's STALE, not the
// listing's NOENT. Rule: only a directory the table knows the place of
// answers a name absent (attrTable.placed).
func TestListingRemovedDirectory(t *testing.T) {
	fs := memfs.New()
	fs.WriteFile("/p/keep", nil)
	p, nc, root := newChain(t, chainSpec{fs: fs}).client()
	parent, _, err := nc.Lookup(root, "p")
	if err != nil {
		t.Fatal(err)
	}
	d, _, err := nc.Mkdir(parent, "d", nfs3.SetAttr{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := nc.Lookup(d, "x"); nfs3.StatusOf(err) != nfs3.ErrNoEnt || p.listState(d) != complete {
		t.Fatalf("LOOKUP d/x: %v, d %v; want NOENT from a complete listing: the case is not set up", err, p.listState(d))
	}
	if err := nc.Rmdir(parent, "d"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := nc.Lookup(d, "x"); nfs3.StatusOf(err) != nfs3.ErrStale {
		t.Errorf("LOOKUP in the removed directory: %v, want STALE", err)
	}
}

// TestListingRemoveInFlight: a REMOVE that is going to fail (the name is
// a directory) is upstream when the name is looked up again in its
// complete directory. The table has dropped the name's entry for the
// call's duration, but the name is still there: the LOOKUP must find it,
// not take the directory's completeness for NOENT. Rule: a name a call is
// changing is not answered absent (attrTable.child, changing).
func TestListingRemoveInFlight(t *testing.T) {
	fs := memfs.New()
	fs.WriteFile("/d/keep", nil)
	answered, release := make(chan struct{}), make(chan struct{})
	p, nc, root := newChain(t, chainSpec{fs: fs, hook: heldReply(nfs3.ProcRemove, answered, release)}).client()
	d, _, err := nc.Lookup(root, "d")
	if err != nil || p.listState(root) != complete {
		t.Fatalf("LOOKUP d: %v, root %v: the case is not set up", err, p.listState(root))
	}
	removed := make(chan error, 1)
	go func() { removed <- nc.Remove(root, "d") }()
	<-answered
	if got, _, err := nc.Lookup(root, "d"); err != nil || !bytes.Equal(got, d) {
		t.Errorf("LOOKUP d while its REMOVE is upstream = %x, %v; want %x", got, err, d)
	}
	close(release)
	if err := <-removed; nfs3.StatusOf(err) != nfs3.ErrIsDir {
		t.Fatalf("REMOVE of a directory: %v, want ISDIR", err)
	}
	if got, _, err := nc.Lookup(root, "d"); err != nil || !bytes.Equal(got, d) {
		t.Errorf("LOOKUP d after its REMOVE failed = %x, %v; want %x", got, err, d)
	}
}
